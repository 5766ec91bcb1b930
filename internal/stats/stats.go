// Package stats collects the database statistics the paper's demo exposes
// (step 1: value distributions for subject, property and object, and for
// attribute pairs) and provides the cardinality estimates the cost model
// (§4, "database textbook formulas") is computed from.
package stats

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/dict"
	"repro/internal/storage"
)

// PropertyStats holds per-property statistics: the number of triples with
// that property, and the numbers of distinct subjects and objects among
// them.
type PropertyStats struct {
	Count     int
	DistinctS int
	DistinctO int
}

// ValueCount pairs a dictionary ID with its number of occurrences.
type ValueCount struct {
	ID    dict.ID
	Count int
}

// PairCount counts occurrences of a (property, object) pair.
type PairCount struct {
	P, O  dict.ID
	Count int
}

// Counter is what the estimates read off a source once its statistics are
// made: counts, and the scans of the demo's distributions.
type Counter interface {
	Count(pat storage.Pattern) int
	CountRange(p storage.RangePattern) int
	EachRun(pat storage.RangePattern, fn func([]dict.Triple) bool)
}

// Source is the scan surface statistics are collected from and estimated
// against: the slice of *storage.Store the estimators use, satisfied by
// both a single store and a hash-partitioned shard.Store (whose counts
// sum across disjoint shards, so the estimates stay exact).
type Source interface {
	Counter
	Len() int
	DistinctInPosition(pat storage.Pattern, pos byte) int
}

// Stats holds collected statistics over one store.
type Stats struct {
	store Counter
	n     int

	props map[dict.ID]PropertyStats

	distinctS int
	distinctP int
	distinctO int
}

// Collect gathers the statistics of the store in two passes over runs it
// already keeps sorted, so nothing is copied or re-sorted.
func Collect(st Source) *Stats {
	s := &Stats{store: st, n: st.Len(), props: map[dict.ID]PropertyStats{}}
	// The unconstrained scan is in (S,P,O) order — within each shard of a
	// sharded source, and shards share no subject — so a property's distinct
	// subjects are the (S,P) runs it appears in.
	var last dict.Triple
	st.EachRun(storage.RangePattern{}, func(ts []dict.Triple) bool {
		for _, t := range ts {
			ps := s.props[t.P]
			ps.Count++
			if t.S != last.S || t.P != last.P {
				ps.DistinctS++
			}
			s.props[t.P], last = ps, t
		}
		return true
	})
	// Its distinct objects are the runs of its (P,O,S) range.
	for p, ps := range s.props {
		ps.DistinctO = st.DistinctInPosition(storage.Pattern{P: p}, 'o')
		s.props[p] = ps
	}
	s.distinctS = st.DistinctInPosition(storage.Pattern{}, 's')
	s.distinctP = len(s.props)
	s.distinctO = st.DistinctInPosition(storage.Pattern{}, 'o')
	return s
}

// Apply returns the statistics of next — the source s describes, without
// removed and with added — equal field by field to Collect(next). Only a
// key some triple of the delta has can appear or disappear, so each such
// key is counted once in both sources, and each property of the delta once
// in next: O(|delta| log n) for Collect's O(n).
func (s *Stats) Apply(next Source, added, removed []dict.Triple) *Stats {
	out := &Stats{store: next, n: next.Len(), props: maps.Clone(s.props), distinctS: s.distinctS, distinctO: s.distinctO}
	seen := map[storage.Pattern]bool{}
	// moved is +1 when next has triples matching key and s's source had
	// none, -1 the other way round, 0 otherwise and on a key already seen.
	moved := func(key storage.Pattern) int {
		if seen[key] {
			return 0
		}
		seen[key] = true
		was, is := s.store.Count(key) > 0, next.Count(key) > 0
		switch {
		case is && !was:
			return 1
		case was && !is:
			return -1
		}
		return 0
	}
	var props []dict.ID
	for _, t := range slices.Concat(added, removed) {
		out.distinctS += moved(storage.Pattern{S: t.S})
		out.distinctO += moved(storage.Pattern{O: t.O})
		ps := out.props[t.P]
		ps.DistinctS += moved(storage.Pattern{S: t.S, P: t.P})
		ps.DistinctO += moved(storage.Pattern{P: t.P, O: t.O})
		out.props[t.P] = ps
		if !slices.Contains(props, t.P) {
			props = append(props, t.P)
		}
	}
	for _, p := range props {
		ps := out.props[p]
		if ps.Count = next.Count(storage.Pattern{P: p}); ps.Count > 0 {
			out.props[p] = ps
		} else {
			delete(out.props, p)
		}
	}
	out.distinctP = len(out.props)
	return out
}

// Plus returns the statistics of src, the union of s's source and more, a
// store that shares no triple with it — equal field by field to Collect
// over the union. Only a key some triple of more has can be new to the
// union, so more is walked in (S,P,O), (P,O,S) and (O,S,P) order and s's
// source is asked about each of its distinct keys once: a search per key of
// more, not a pass over the union.
func (s *Stats) Plus(src Counter, more *storage.Store) *Stats {
	out := &Stats{store: src, n: s.n + more.Len(), props: maps.Clone(s.props), distinctS: s.distinctS, distinctO: s.distinctO}
	had := func(key storage.Pattern) bool { return s.store.Count(key) > 0 }
	var last dict.Triple // no triple holds None
	more.EachRun(storage.RangePattern{}, func(ts []dict.Triple) bool {
		for _, t := range ts {
			ps := out.props[t.P]
			ps.Count++
			if t.S != last.S && !had(storage.Pattern{S: t.S}) {
				out.distinctS++
			}
			if (t.S != last.S || t.P != last.P) && !had(storage.Pattern{S: t.S, P: t.P}) {
				ps.DistinctS++
			}
			out.props[t.P], last = ps, t
		}
		return true
	})
	// A range on one position alone is scanned in the ordering it leads:
	// (P,O,S) for the properties' objects, (O,S,P) for the objects.
	all := []storage.IDRange{{Lo: 1, Hi: ^dict.ID(0)}}
	last = dict.Triple{}
	more.EachRun(storage.RangePattern{P: all}, func(ts []dict.Triple) bool {
		for _, t := range ts {
			if (t.P != last.P || t.O != last.O) && !had(storage.Pattern{P: t.P, O: t.O}) {
				ps := out.props[t.P]
				ps.DistinctO++
				out.props[t.P] = ps
			}
			last = t
		}
		return true
	})
	last = dict.Triple{}
	more.EachRun(storage.RangePattern{O: all}, func(ts []dict.Triple) bool {
		for _, t := range ts {
			if t.O != last.O && !had(storage.Pattern{O: t.O}) {
				out.distinctO++
			}
			last = t
		}
		return true
	})
	out.distinctP = len(out.props)
	return out
}

// N returns the number of triples in the store.
func (s *Stats) N() int { return s.n }

// DistinctSubjects returns the number of distinct subjects in the store.
func (s *Stats) DistinctSubjects() int { return s.distinctS }

// DistinctProperties returns the number of distinct properties.
func (s *Stats) DistinctProperties() int { return s.distinctP }

// DistinctObjects returns the number of distinct objects.
func (s *Stats) DistinctObjects() int { return s.distinctO }

// Property returns the statistics for property p.
func (s *Stats) Property(p dict.ID) (PropertyStats, bool) {
	ps, ok := s.props[p]
	return ps, ok
}

// PatternCard estimates the number of triples matching the pattern. All
// prefix-contiguous shapes use exact index counts (the idealized-histogram
// limit of the textbook model); the (s,?,o) shape uses the independence
// assumption card(s)·card(o)/N.
func (s *Stats) PatternCard(pat storage.Pattern) float64 {
	if s.n == 0 {
		return 0
	}
	sB, pB, oB := pat.S != dict.None, pat.P != dict.None, pat.O != dict.None
	if sB && !pB && oB {
		cs := float64(s.store.Count(storage.Pattern{S: pat.S}))
		co := float64(s.store.Count(storage.Pattern{O: pat.O}))
		return cs * co / float64(s.n)
	}
	return float64(s.store.Count(pat))
}

// RangeCard returns the exact number of triples matching the range
// pattern. The shapes the range reformulator generates (an exact prefix
// plus one range-constrained position) are two binary searches per range,
// so exact counting stays cheap.
func (s *Stats) RangeCard(p storage.RangePattern) float64 {
	return float64(s.store.CountRange(p))
}

// DistinctVar estimates the number of distinct values appearing in the
// given position ('s', 'p' or 'o') of the triples matching the pattern;
// this is the V(R, a) quantity of textbook join-size formulas.
func (s *Stats) DistinctVar(pat storage.Pattern, pos byte) float64 {
	card := s.PatternCard(pat)
	if card == 0 {
		return 0
	}
	bound := func(b byte) bool {
		switch b {
		case 's':
			return pat.S != dict.None
		case 'p':
			return pat.P != dict.None
		default:
			return pat.O != dict.None
		}
	}
	if bound(pos) {
		return 1
	}
	var v float64
	if pat.P != dict.None {
		ps := s.props[pat.P]
		switch pos {
		case 's':
			v = float64(ps.DistinctS)
		case 'o':
			v = float64(ps.DistinctO)
		default:
			v = 1
		}
		// If another position is also bound, each matching triple tends
		// to contribute a distinct value: cap by card (below).
	} else {
		switch pos {
		case 's':
			v = float64(s.distinctS)
		case 'p':
			v = float64(s.distinctP)
		default:
			v = float64(s.distinctO)
		}
	}
	if v > card {
		v = card
	}
	if v < 1 {
		v = 1
	}
	return v
}

// --- distributions (demo step 1) -------------------------------------------

// TopValues returns the k most frequent values in the given position
// ('s', 'p' or 'o'), most frequent first; ties break on ascending ID.
func (s *Stats) TopValues(pos byte, k int) []ValueCount {
	counts := map[dict.ID]int{}
	s.store.EachRun(storage.RangePattern{}, func(ts []dict.Triple) bool {
		for _, t := range ts {
			switch pos {
			case 's':
				counts[t.S]++
			case 'p':
				counts[t.P]++
			default:
				counts[t.O]++
			}
		}
		return true
	})
	return topK(counts, k)
}

// TopPairsPO returns the k most frequent (property, object) pairs — the
// "attribute pair" distribution of demo step 1 (dominated in practice by
// (rdf:type, class) pairs, i.e. class cardinalities).
func (s *Stats) TopPairsPO(k int) []PairCount {
	type key struct{ p, o dict.ID }
	counts := map[key]int{}
	s.store.EachRun(storage.RangePattern{}, func(ts []dict.Triple) bool {
		for _, t := range ts {
			counts[key{t.P, t.O}]++
		}
		return true
	})
	out := make([]PairCount, 0, len(counts))
	for k2, c := range counts {
		out = append(out, PairCount{P: k2.p, O: k2.o, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].P != out[j].P {
			return out[i].P < out[j].P
		}
		return out[i].O < out[j].O
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func topK(counts map[dict.ID]int, k int) []ValueCount {
	out := make([]ValueCount, 0, len(counts))
	for id, c := range counts {
		out = append(out, ValueCount{ID: id, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Summary renders a human-readable statistics report (demo step 1).
func (s *Stats) Summary(d *dict.Dict, k int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "triples: %d, distinct subjects: %d, properties: %d, objects: %d\n",
		s.n, s.distinctS, s.distinctP, s.distinctO)
	sb.WriteString("top properties:\n")
	for _, vc := range s.TopValues('p', k) {
		fmt.Fprintf(&sb, "  %-60s %d\n", d.Decode(vc.ID), vc.Count)
	}
	sb.WriteString("top (property, object) pairs:\n")
	for _, pc := range s.TopPairsPO(k) {
		fmt.Fprintf(&sb, "  %s %s: %d\n", d.Decode(pc.P), d.Decode(pc.O), pc.Count)
	}
	return sb.String()
}
