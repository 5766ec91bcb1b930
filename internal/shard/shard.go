// Package shard hash-partitions the triple store by subject into N
// independent storage.Store shards, each with its own SPO/POS/OSP
// indexes and statistics. The partition key is the subject: a subject's
// whole forward neighborhood is co-located, so the reformulation
// strategies' dominant shape — unions of small conjunctive queries whose
// atoms share one subject variable — evaluates shard-locally with no
// shuffle, in the executor's one scatter (internal/exec/source.go).
//
// Store implements exec.Source, so every evaluator path that runs
// against a single store runs unchanged against a sharded one: scans
// with a bound subject route to the subject's home shard, everything
// else iterates shards in order. It also implements exec.ShardedSource,
// through which a union's co-partitioned members run once per shard, in
// parallel. An unsharded store is a one-shard Store: its scans go straight
// to its one storage.Store, and the executor does not scatter over it.
package shard

import (
	"slices"
	"sync"

	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Store is a subject-hash-partitioned triple store.
type Store struct {
	d      *dict.Dict
	shards []*storage.Store
	total  int

	// mu guards the lazily collected per-shard statistics (lock rank
	// shard.Store.mu, level 1 — see DESIGN.md §14: a leaf lock, never
	// held while acquiring any other ranked lock).
	mu    sync.Mutex
	stats []*stats.Stats
}

// hashSubject mixes a subject ID into its shard. IDs are dense small
// integers (dictionary order), so identity modulo would put contiguous
// subject runs — often one class of entities — on one shard; a
// splitmix64-style finalizer spreads them evenly.
func hashSubject(s dict.ID) uint64 {
	x := uint64(s)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Of returns the shard index subject s maps to among n shards — the one
// assignment function partition (behind Build and Apply) and HomeShard
// share, so the shard a triple is stored in and the home shard of its
// subject always agree.
func Of(s dict.ID, n int) int {
	if n < 2 {
		return 0
	}
	return int(hashSubject(s) % uint64(n))
}

// partition splits the triples by hash(subject) % n.
func partition(triples []dict.Triple, n int) [][]dict.Triple {
	if n == 1 {
		return [][]dict.Triple{triples}
	}
	// Size the buckets with a counting pass so the split pass never
	// reallocates.
	parts, counts := make([][]dict.Triple, n), make([]int, n)
	for _, t := range triples {
		counts[Of(t.S, n)]++
	}
	for i, c := range counts {
		parts[i] = make([]dict.Triple, 0, c)
	}
	for _, t := range triples {
		parts[Of(t.S, n)] = append(parts[Of(t.S, n)], t)
	}
	return parts
}

// Build partitions spo — a run sorted by (S,P,O), as a graph's D — by
// subject into n shards (n < 2: one): Apply on the empty store, so each
// shard makes only its POS and OSP runs, and a one-shard store keeps spo
// itself as its SPO run.
func Build(d *dict.Dict, spo *storage.Run, n int) *Store {
	empty := &Store{d: d, shards: make([]*storage.Store, max(n, 1)), stats: make([]*stats.Stats, max(n, 1))}
	for i := range empty.shards {
		empty.shards[i] = storage.BuildSorted(d, storage.NewRun(nil))
	}
	return empty.Apply(spo, spo.Triples(), nil)
}

// Apply returns the sharded store over spo: s's triples without removed and
// with added, a run sorted by (S,P,O). A one-shard store keeps spo as its
// shard's SPO run; more shards apply their part of the delta to their own.
// The delta is partitioned like the triples and applied, in parallel, to
// the shards it touches, whose statistics — where collected — follow it;
// the other shards and their statistics are shared with s.
func (s *Store) Apply(spo *storage.Run, added, removed []dict.Triple) *Store {
	n := len(s.shards)
	add, del := partition(added, n), partition(removed, n)
	out := &Store{d: s.d, shards: slices.Clone(s.shards)}
	s.mu.Lock()
	out.stats = slices.Clone(s.stats)
	s.mu.Unlock()
	var wg sync.WaitGroup
	for i, sh := range out.shards {
		if n > 1 && len(add[i])+len(del[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := spo
			if n > 1 {
				run = sh.SPO().Apply(add[i], del[i])
			}
			out.shards[i] = sh.Apply(run, add[i], del[i])
			if st := out.stats[i]; st != nil {
				out.stats[i] = st.Apply(out.shards[i], add[i], del[i])
			}
		}()
	}
	wg.Wait()
	for _, sh := range out.shards {
		out.total += sh.Len()
	}
	return out
}

// --- exec.Source -------------------------------------------------------------

// Dict returns the shared dictionary (shards encode against one dict).
func (s *Store) Dict() *dict.Dict { return s.d }

// Len returns the total triple count across shards.
func (s *Store) Len() int { return s.total }

// one returns the shard holding every triple with subject sub (dict.None:
// any) — a one-shard store's shard, a bound subject's home shard — or nil.
// Scans call it directly, so a one-shard store costs what its shard does.
func (s *Store) one(sub dict.ID) *storage.Store {
	switch {
	case len(s.shards) == 1:
		return s.shards[0]
	case sub != dict.None:
		return s.shards[s.HomeShard(sub)]
	}
	return nil
}

// EachRun streams the triples matching the range pattern a sorted slice at
// a time, as storage.Store.EachRun does: from the one shard holding them
// when there is one, otherwise from every shard in order.
func (s *Store) EachRun(pat storage.RangePattern, fn func([]dict.Triple) bool) {
	if sh := s.one(exactSubject(pat)); sh != nil {
		sh.EachRun(pat, fn)
		return
	}
	for _, sh := range s.shards {
		more := true
		sh.EachRun(pat, func(ts []dict.Triple) bool { more = fn(ts); return more })
		if !more {
			return
		}
	}
}

// CountRange returns the number of triples matching the range pattern.
func (s *Store) CountRange(pat storage.RangePattern) int {
	if sh := s.one(exactSubject(pat)); sh != nil {
		return sh.CountRange(pat)
	}
	n := 0
	for _, sh := range s.shards {
		n += sh.CountRange(pat)
	}
	return n
}

// exactSubject returns the one ID the pattern pins the subject to, or
// dict.None.
func exactSubject(pat storage.RangePattern) dict.ID {
	if len(pat.S) == 1 && pat.S[0].IsExact() {
		return pat.S[0].Lo
	}
	return dict.None
}

// --- exec.ShardedSource ------------------------------------------------------

// NumShards returns the partition count.
func (s *Store) NumShards() int { return len(s.shards) }

// Shard returns shard i as a plain source.
func (s *Store) Shard(i int) exec.Source { return s.shards[i] }

// ShardStore returns shard i's underlying store: the concrete type, for the
// tests and fixtures that read a shard's sorted Triples and Len directly.
func (s *Store) ShardStore(i int) *storage.Store { return s.shards[i] }

// HomeShard returns the shard holding subject id.
func (s *Store) HomeShard(id dict.ID) int { return Of(id, len(s.shards)) }

// ShardStats returns shard i's statistics, collecting them on first use.
// Lazy because only the scatter of a union's co-partitioned members plans
// against them, and only when its evaluator has statistics — workloads that
// never scatter never pay for N stat collections.
func (s *Store) ShardStats(i int) *stats.Stats {
	s.mu.Lock()
	st := s.stats[i]
	if st == nil {
		st = stats.Collect(s.shards[i])
		s.stats[i] = st
	}
	s.mu.Unlock()
	return st
}

// --- stats.Source ------------------------------------------------------------

// DistinctInPosition counts distinct values in one position among the
// matching triples: the one shard's count where there is one. Otherwise
// subjects are partitioned, so subject counts sum exactly, and other
// positions merge a value set across shards.
func (s *Store) DistinctInPosition(pat storage.Pattern, pos byte) int {
	if sh := s.one(pat.S); sh != nil {
		return sh.DistinctInPosition(pat, pos)
	}
	if pos == 's' {
		n := 0
		for _, sh := range s.shards {
			n += sh.DistinctInPosition(pat, pos)
		}
		return n
	}
	// No subject is bound here: merge the values of every shard's matches.
	var buf [3]storage.IDRange
	seen := map[dict.ID]bool{}
	s.EachRun(pat.Range(&buf), func(ts []dict.Triple) bool {
		for _, t := range ts {
			if pos == 'p' {
				seen[t.P] = true
			} else {
				seen[t.O] = true
			}
		}
		return true
	})
	return len(seen)
}

// --- topology ----------------------------------------------------------------

// ShardInfo describes one shard for the admin surface.
type ShardInfo struct {
	Shard    int `json:"shard"`
	Triples  int `json:"triples"`
	Subjects int `json:"subjects"`
}

// Topology returns per-shard triple and distinct-subject counts.
func (s *Store) Topology() []ShardInfo {
	out := make([]ShardInfo, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardInfo{
			Shard:    i,
			Triples:  sh.Len(),
			Subjects: sh.DistinctInPosition(storage.Pattern{}, 's'),
		}
	}
	return out
}

// Skew returns the partition skew ratio max/mean of per-shard triple
// counts (1.0 = perfectly even, as one shard is; an empty store reports 1).
func (s *Store) Skew() float64 {
	if s.total == 0 {
		return 1
	}
	most := 0
	for _, sh := range s.shards {
		most = max(most, sh.Len())
	}
	return float64(most) / (float64(s.total) / float64(len(s.shards)))
}

// PublishMetrics records the partition shape into the registry: the shard
// count and the skew ratio.
func (s *Store) PublishMetrics(reg *metrics.Registry) {
	reg.Gauge("shard.count").Set(int64(len(s.shards)))
	reg.FloatGauge("shard.skew").Set(s.Skew())
}
