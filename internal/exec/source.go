package exec

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Source is the scan surface the evaluator runs against: the narrow,
// read-only slice of *storage.Store the operators actually use. It exists
// so one executor serves both a single store and a hash-partitioned
// shard.Store — the evaluator never materializes a source, it only
// iterates and counts. Every read takes a range pattern (a constant is a
// one-ID range): EachRun serves scans and index probes a block at a time,
// CountRange the exact counts the plan ranks atoms by.
type Source interface {
	// Dict returns the dictionary terms are encoded against.
	Dict() *dict.Dict
	// Len returns the number of triples.
	Len() int
	// EachRun streams the triples matching the range pattern a sorted
	// slice at a time — a block's share, for a pattern the index search
	// answers exactly — stopping early if fn returns false. The slices are
	// the source's: callers must not modify them, nor keep them once fn
	// returns.
	EachRun(pat storage.RangePattern, fn func([]dict.Triple) bool)
	// CountRange returns the number of triples matching the range pattern.
	CountRange(pat storage.RangePattern) int
}

// ShardedSource is a Source hash-partitioned by subject: shard i holds
// exactly the triples whose subject hashes to i, so a subject's whole
// forward neighborhood is co-located. Its Source methods read it like any
// other store, walking the shards in shard order; the evaluator uses the
// partitioning in one place only — a union's co-partitioned members, whose
// atoms all share one subject variable, evaluate shard-locally in one
// scatter: any embedding maps that variable to a single subject s, so every
// matched triple lives on s's home shard and the per-shard answers just
// union.
type ShardedSource interface {
	Source
	// NumShards returns the partition count (≥ 1).
	NumShards() int
	// Shard returns shard i's source (all triples with hash(S)%N == i).
	Shard(i int) Source
	// ShardStats returns shard i's statistics for shard-local planning.
	ShardStats(i int) *stats.Stats
}

// scatterSource returns the evaluator's source as a sharded source when
// scatter-gather applies: more than one shard.
func (e *Evaluator) scatterSource() ShardedSource {
	sh, ok := e.st.(ShardedSource)
	if !ok || sh.NumShards() < 2 {
		return nil
	}
	return sh
}

// shardWorkers bounds a scatter's parallelism: the admission gate's
// granted weight (MaxParallel) when set, GOMAXPROCS otherwise, and never
// more workers than shards.
func (e *Evaluator) shardWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if e.MaxParallel > 0 && e.MaxParallel < w {
		w = e.MaxParallel
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// shardSub returns the evaluator a scatter hands the worker of one shard:
// the same knobs, with its own fan-out off — the scatter owns the
// parallelism, and nesting it would overrun the admitted weight. It plans
// like its parent: against the shard's own statistics when the parent has
// statistics, by exact counts otherwise — so a parent that needed no
// statistics never makes a shard collect them.
func (e *Evaluator) shardSub(sh ShardedSource, i int) *Evaluator {
	sub := &Evaluator{st: sh.Shard(i), Budget: e.Budget, ForceHashJoins: e.ForceHashJoins,
		Cost: e.Cost, MaxParallel: 1}
	if e.stats != nil {
		sub.stats = sh.ShardStats(i)
	}
	return sub
}

// runScatter executes task(i) for every shard i with bounded workers,
// checking the shared guard between tasks. The per-shard results land in
// order; the first error wins.
func (e *Evaluator) runScatter(sh ShardedSource, g guard, task func(i int) (*Relation, error)) ([]*Relation, error) {
	n := sh.NumShards()
	parts := make([]*Relation, n)
	errs := make([]error, n)
	nw := e.shardWorkers(n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := g.err(); err != nil {
					errs[i] = err
					return
				}
				parts[i], errs[i] = task(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if e.Metrics != nil {
		for i, r := range parts {
			if r != nil {
				e.Metrics.Counter("shard.rows." + strconv.Itoa(i)).Add(int64(r.Len()))
			}
		}
	}
	return parts, nil
}

// coPartitioned reports whether every atom's subject is one shared,
// range-free variable — the co-partitioned shape: any embedding maps that
// variable to a single subject, so all of its matched triples live on one
// shard and the CQ decomposes into independent shard-local evaluations
// whose projected answers union. A constant subject or a second subject
// variable breaks the rule (the embedding could span shards), so those
// bodies join centrally over the shards read in turn. (A subject interval
// constrains which subjects match but not where they live, so it would
// still be shard-safe — kept out so the rule stays the plain one above.)
func coPartitioned(q query.RangeCQ) bool {
	if len(q.Atoms) == 0 {
		return false
	}
	for _, a := range q.Atoms {
		if a.S.Ranges != nil || !a.S.Arg.IsVar() || a.S.Arg.Var != q.Atoms[0].S.Arg.Var {
			return false
		}
	}
	return true
}

// SplitCoPartitioned partitions a union's members into the co-partitioned
// group a sharded evaluation runs shard-locally and the rest. Members are
// independent — a union is just a distinct concatenation — so the
// co-partitioned group, one member or more, evaluates in ONE scatter, each
// shard running the whole group serially, paying the scatter/gather
// overhead once per union instead of once per member. JUCQ fragment
// materialization is the shape that earns this: hundreds of tiny
// single-subject-variable members per fragment, interleaved with range-rule
// rewritings whose fresh subject variables break co-partitioning (those
// stay on the parent path). Exported so EXPLAIN shows the scatter the
// executor runs.
func SplitCoPartitioned(cqs []query.RangeCQ) (co, rest []query.RangeCQ) {
	for _, cq := range cqs {
		if coPartitioned(cq) {
			co = append(co, cq)
		} else {
			rest = append(rest, cq)
		}
	}
	return co, rest
}

// evalUnionScatter evaluates a union's co-partitioned group against a
// sharded source into the union's set dst — the executor's only fan-out.
// The group runs shard-locally in one scatter: each shard evaluates the
// whole group serially, from the seed when there is one, with its own
// statistics, memo and set, and the per-shard sets enter dst in shard
// order, the deterministic central union. The union's other members (rest
// counts them) evaluate afterwards on the parent path, which reads the
// shards in turn through the source's own methods. EXPLAIN ANALYZE shows
// the scatter as one "scatter" span carrying the shard count, op=ucq and the
// group's size, with the shards' member spans as its children.
func (e *Evaluator) evalUnionScatter(sh ShardedSource, co []query.RangeCQ, rest int, seed *Relation, g guard, sp *trace.Span, dst *Set) error {
	var ssp *trace.Span
	if sp != nil {
		ssp = sp.Child("scatter")
		defer ssp.End()
		ssp.SetInt("n", int64(sh.NumShards()))
		ssp.SetStr("op", "ucq")
		ssp.SetInt("cqs", int64(len(co)))
		ssp.SetInt("rest", int64(rest))
	}
	if e.Metrics != nil {
		e.Metrics.Counter("shard.local_cqs").Add(int64(len(co)))
	}
	parts, err := e.runScatter(sh, g, func(i int) (*Relation, error) {
		u := e.shardSub(sh, i).newUnion(dst.Rows.Vars, seed, g)
		return u.out.Rows, u.addAll(co, ssp)
	})
	if err != nil {
		return err
	}
	merged := 0
	for _, r := range parts {
		if err := dst.insert(r, nil, nil, g.err); err != nil {
			return err
		}
		merged += r.Len()
	}
	if e.Metrics != nil {
		e.Metrics.Counter("shard.merge").Add(int64(merged))
	}
	if ssp != nil {
		ssp.SetInt("rows", int64(merged))
		ssp.End()
	}
	return e.checkRows(dst.Rows.Len())
}
