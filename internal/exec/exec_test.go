package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/dict"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
)

// tinyStore builds a store from (s,p,o) integer triples; its dictionary
// names every ID up to the largest one used, so traced runs can print atoms.
func tinyStore(triples [][3]dict.ID) (*storage.Store, *stats.Stats) {
	ts := make([]dict.Triple, len(triples))
	d := dict.New()
	for i, t := range triples {
		ts[i] = dict.Triple{S: t[0], P: t[1], O: t[2]}
		for d.Len() < int(max(t[0], t[1], t[2])) {
			d.EncodeIRI(fmt.Sprintf("t%d", d.Len()+1))
		}
	}
	st := storage.Build(d, ts)
	return st, stats.Collect(st)
}

// splitStore is st as a ShardedSource: its triples split by subject modulo
// n, each shard a store of its own, so a union over it runs its
// co-partitioned members in the scatter, whose shard workers run
// concurrently; everything else reads the embedded store.
type splitStore struct {
	*storage.Store
	shards []*storage.Store
	stats  []*stats.Stats
}

func newSplitStore(st *storage.Store, n int) *splitStore {
	parts := make([][]dict.Triple, n)
	for _, t := range st.Triples() {
		parts[int(t.S)%n] = append(parts[int(t.S)%n], t)
	}
	s := &splitStore{Store: st}
	for _, p := range parts {
		sh := storage.Build(st.Dict(), p)
		s.shards, s.stats = append(s.shards, sh), append(s.stats, stats.Collect(sh))
	}
	return s
}

func (s *splitStore) NumShards() int                { return len(s.shards) }
func (s *splitStore) Shard(i int) Source            { return s.shards[i] }
func (s *splitStore) ShardStats(i int) *stats.Stats { return s.stats[i] }

// One helper per query shape: the entry point under a background context.
// flat returns the relation's rows, row-major, in one slice.
func flat(r *Relation) []dict.ID {
	var out []dict.ID
	for i := 0; i < r.Len(); i++ {
		out = append(out, r.Row(i)...)
	}
	return out
}

func (e *Evaluator) cq(headNames []string, q query.CQ) (*Relation, error) {
	return e.EvalCQContext(context.Background(), headNames, q)
}
func (e *Evaluator) ucq(u query.UCQ) (*Relation, error) {
	return e.EvalUCQContext(context.Background(), u)
}
func (e *Evaluator) ucqStream(headNames []string, enumerate func(func(query.CQ) bool)) (*Relation, error) {
	return e.EvalUCQStreamContext(context.Background(), headNames, enumerate)
}
func (e *Evaluator) jucq(j query.JUCQ) (*Relation, error) {
	return e.EvalJUCQContext(context.Background(), j)
}
func (e *Evaluator) ucqWhy(u query.UCQ) (*Relation, [][]int, error) {
	return e.EvalUCQWithProvenanceContext(context.Background(), u)
}

func v(n string) query.Arg   { return query.Variable(n) }
func c(id dict.ID) query.Arg { return query.Constant(id) }

func TestEvalSingleAtom(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{{1, 10, 2}, {3, 10, 4}, {5, 11, 6}})
	e := New(st, ss)
	q := query.CQ{Head: []query.Arg{v("x"), v("y")}, Atoms: []query.Atom{{S: v("x"), P: c(10), O: v("y")}}}
	r, err := e.cq([]string{"x", "y"}, q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("want 2 rows, got %d", r.Len())
	}
}

func TestEvalRepeatedVariable(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{{1, 10, 1}, {2, 10, 3}})
	e := New(st, ss)
	q := query.CQ{Head: []query.Arg{v("x")}, Atoms: []query.Atom{{S: v("x"), P: c(10), O: v("x")}}}
	r, err := e.cq([]string{"x"}, q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Row(0)[0] != 1 {
		t.Fatalf("self-loop match wrong: %d rows", r.Len())
	}
}

func TestEvalJoin(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{
		{1, 10, 2}, {2, 11, 3}, {4, 10, 5}, {5, 11, 6}, {7, 10, 8},
	})
	e := New(st, ss)
	q := query.CQ{
		Head: []query.Arg{v("x"), v("z")},
		Atoms: []query.Atom{
			{S: v("x"), P: c(10), O: v("y")},
			{S: v("y"), P: c(11), O: v("z")},
		},
	}
	r, err := e.cq([]string{"x", "z"}, q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("want 2 rows, got %d", r.Len())
	}
}

func TestEvalCrossProduct(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{{1, 10, 2}, {3, 11, 4}, {5, 11, 6}})
	e := New(st, ss)
	q := query.CQ{
		Head: []query.Arg{v("x"), v("u")},
		Atoms: []query.Atom{
			{S: v("x"), P: c(10), O: v("y")},
			{S: v("u"), P: c(11), O: v("w")},
		},
	}
	r, err := e.cq([]string{"x", "u"}, q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 { // 1 × 2
		t.Fatalf("want 2 rows, got %d", r.Len())
	}
}

func TestEvalConstantHead(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{{1, 10, 2}})
	e := New(st, ss)
	q := query.CQ{
		Head:  []query.Arg{v("x"), c(99)},
		Atoms: []query.Atom{{S: v("x"), P: c(10), O: v("y")}},
	}
	r, err := e.cq([]string{"x", "u"}, q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Row(0)[1] != 99 {
		t.Fatalf("constant head column wrong: %+v", r)
	}
}

func TestEvalBooleanQuery(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{{1, 10, 2}})
	e := New(st, ss)
	q := query.CQ{Atoms: []query.Atom{{S: v("x"), P: c(10), O: v("y")}}}
	r, err := e.cq(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Width() != 0 {
		t.Fatalf("boolean true should give one empty row, got %d x %d", r.Len(), r.Width())
	}
	q2 := query.CQ{Atoms: []query.Atom{{S: v("x"), P: c(99), O: v("y")}}}
	r2, err := e.cq(nil, q2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 0 {
		t.Fatal("boolean false should give zero rows")
	}
}

func TestEvalUCQUnionDistinct(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{{1, 10, 2}, {1, 11, 2}})
	e := New(st, ss)
	u := query.UCQ{
		HeadNames: []string{"x"},
		CQs: []query.CQ{
			{Head: []query.Arg{v("x")}, Atoms: []query.Atom{{S: v("x"), P: c(10), O: v("y")}}},
			{Head: []query.Arg{v("x")}, Atoms: []query.Atom{{S: v("x"), P: c(11), O: v("y")}}},
		},
	}
	r, err := e.ucq(u)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("set semantics: want 1 distinct row, got %d", r.Len())
	}
}

func TestBudgetMaxRows(t *testing.T) {
	var ts [][3]dict.ID
	for i := dict.ID(1); i <= 100; i++ {
		ts = append(ts, [3]dict.ID{i, 200, i + 1000})
	}
	st, ss := tinyStore(ts)
	e := New(st, ss)
	e.Budget = Budget{MaxRows: 10}
	q := query.CQ{Head: []query.Arg{v("x")}, Atoms: []query.Atom{{S: v("x"), P: c(200), O: v("y")}}}
	_, err := e.cq([]string{"x"}, q)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}

	// A scan streamed into a hash join is charged as the scan it replaces,
	// and the join's output as any join's. Each triple of the first scan
	// matches every row of the running result; those of the second none, so
	// only the scan's own charge can stop it.
	fanOut := fanOutStore(100, 120)
	none := slices.Clone(fanOut)
	for i := 100; i < len(none); i++ {
		none[i][2] = 2
	}
	for _, tc := range []struct {
		triples [][3]dict.ID
		cap     int
	}{{fanOut, 110}, {fanOut, 5000}, {none, 110}} {
		st, ss := tinyStore(tc.triples)
		for _, src := range []Source{st, newSplitStore(st, 2), newSplitStore(st, 4)} {
			_, ops := evalTraced(t, New(src, ss), []string{"x", "z"}, fanOutCQ())
			if j := ops.Find(cost.OpHashJoin); j == nil || j.Attrs["atom"] == nil || j.Attrs["left_rows"] != int64(100) || j.Attrs["right_rows"] != int64(120) {
				t.Fatalf("%T: the 120-triple scan is not streamed into the join: %+v", src, ops)
			}
			e := New(src, ss)
			e.Budget = Budget{MaxRows: tc.cap}
			if _, err := e.cq([]string{"x", "z"}, fanOutCQ()); !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("%T, cap %d: want ErrBudgetExceeded, got %v", src, tc.cap, err)
			}
		}
	}
}

func TestBudgetTimeout(t *testing.T) {
	var ts [][3]dict.ID
	for i := dict.ID(1); i <= 50; i++ {
		ts = append(ts, [3]dict.ID{i, 200, i})
	}
	st, ss := tinyStore(ts)
	e := New(st, ss)
	e.Budget = Budget{Timeout: time.Nanosecond}
	var cqs []query.CQ
	for i := 0; i < 100; i++ {
		cqs = append(cqs, query.CQ{Head: []query.Arg{v("x")}, Atoms: []query.Atom{{S: v("x"), P: c(200), O: v("y")}}})
	}
	_, err := e.ucq(query.UCQ{HeadNames: []string{"x"}, CQs: cqs})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want timeout, got %v", err)
	}
}

func TestParallelUCQMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var ts [][3]dict.ID
	for i := 0; i < 500; i++ {
		ts = append(ts, [3]dict.ID{dict.ID(1 + r.Intn(40)), dict.ID(200 + r.Intn(4)), dict.ID(1 + r.Intn(40))})
	}
	st, ss := tinyStore(ts)
	// Paths, which join across shards, and stars, which scatter as one group.
	var cqs []query.CQ
	for p := dict.ID(200); p < 204; p++ {
		for q := dict.ID(200); q < 204; q++ {
			for _, o := range []string{"y", "x"} {
				cqs = append(cqs, query.CQ{
					Head: []query.Arg{v("x"), v("z")},
					Atoms: []query.Atom{
						{S: v("x"), P: c(p), O: v("y")},
						{S: v(o), P: c(q), O: v("z")},
					},
				})
			}
		}
	}
	u := query.UCQ{HeadNames: []string{"x", "z"}, CQs: cqs}
	serial := New(st, ss)
	want, err := serial.ucq(u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(newSplitStore(st, 4), ss).ucq(u)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("scattered %d rows != serial %d rows", got.Len(), want.Len())
	}

	// A union with exactly one co-partitioned member — the paths and cqs[1],
	// the first star — scatters that member alone; the paths stay on the
	// parent path.
	one := query.UCQ{HeadNames: []string{"x", "z"}}
	for i, cq := range cqs {
		if cq.Atoms[1].S.Var == "y" || i == 1 {
			one.CQs = append(one.CQs, cq)
		}
	}
	oneWant, err := serial.ucq(one)
	if err != nil {
		t.Fatal(err)
	}
	e := New(newSplitStore(st, 4), ss)
	e.Metrics = metrics.NewRegistry()
	if got, err = e.ucq(one); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(oneWant) || e.Metrics.Counter("shard.local_cqs").Value() != 1 {
		t.Fatalf("one scattered member: %d rows != serial %d rows, or %d members scattered",
			got.Len(), oneWant.Len(), e.Metrics.Counter("shard.local_cqs").Value())
	}

	// A streamed union reads the shards in turn and scatters nothing.
	enumerate := func(fn func(query.CQ) bool) {
		for _, cq := range cqs {
			if !fn(cq) {
				return
			}
		}
	}
	e = New(newSplitStore(st, 4), ss)
	e.Metrics = metrics.NewRegistry()
	if got, err = e.ucqStream(u.HeadNames, enumerate); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || e.Metrics.Counter("shard.local_cqs").Value() != 0 {
		t.Fatalf("streamed over shards: %d rows, or %d members scattered", got.Len(), e.Metrics.Counter("shard.local_cqs").Value())
	}
}

// evalTraced evaluates q on e under a fresh span tree and returns the answer
// with the recorded tree.
func evalTraced(t *testing.T, e *Evaluator, head []string, q query.CQ) (*Relation, *trace.SpanJSON) {
	t.Helper()
	root := trace.New(0).StartSpan("eval")
	e.Span = root
	res, err := e.cq(head, q)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	return res, trace.ToJSON(root)
}

func TestTraceRecordsOperators(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{{1, 10, 2}, {2, 11, 3}})
	e := New(st, ss)
	q := query.CQ{
		Head: []query.Arg{v("x")},
		Atoms: []query.Atom{
			{S: v("x"), P: c(10), O: v("y")},
			{S: v("y"), P: c(11), O: v("z")},
		},
	}
	_, ops := evalTraced(t, e, []string{"x"}, q)
	scan, join := ops.Find("scan"), ops.Find("inlj")
	if scan == nil || join == nil {
		t.Fatalf("trace lacks a scan or a join: %+v", ops)
	}
	if scan.Attrs["rows"] != int64(1) || join.Attrs["left_rows"] != int64(1) || join.Attrs["rows"] != int64(1) {
		t.Fatalf("operator cardinalities: scan %v, join %v", scan.Attrs, join.Attrs)
	}
}

func TestRelationDistinctAndEqual(t *testing.T) {
	in := NewRelation([]string{"a", "b"})
	in.Append([]dict.ID{1, 2})
	in.Append([]dict.ID{1, 2})
	in.Append([]dict.ID{3, 4})
	s := NewSet(in.Vars)
	s.Add(in)
	r := s.Rows
	if r.Len() != 2 {
		t.Fatalf("distinct: want 2, got %d", r.Len())
	}
	o := NewRelation([]string{"a", "b"})
	o.Append([]dict.ID{3, 4})
	o.Append([]dict.ID{1, 2})
	if !r.Equal(o) {
		t.Fatal("order-insensitive equality failed")
	}
	o.Append([]dict.ID{9, 9})
	if r.Equal(o) {
		t.Fatal("different sets must not be equal")
	}
	if r.Equal(NewRelation([]string{"a"})) {
		t.Fatal("different widths must not be equal")
	}
}

func TestRelationSortRows(t *testing.T) {
	r := NewRelation([]string{"a"})
	r.Append([]dict.ID{3})
	r.Append([]dict.ID{1})
	r.Append([]dict.ID{2})
	r.SortFirst(r.Len())
	for i, want := range []dict.ID{1, 2, 3} {
		if r.Row(i)[0] != want {
			t.Fatalf("row %d = %d, want %d", i, r.Row(i)[0], want)
		}
	}
}

// atChunkSizes runs f on relations cut into chunks of one row, of four rows
// and of the default size: every chunk boundary a relation of a few rows can
// cross, and none.
func atChunkSizes(t *testing.T, f func(t *testing.T)) {
	for _, shift := range []uint8{0, 2, chunkShift} {
		t.Run(fmt.Sprintf("chunk=%d", 1<<shift), func(t *testing.T) {
			defer func(s uint8) { chunkShift = s }(chunkShift)
			chunkShift = shift
			f(t)
		})
	}
}

// SortFirst(n) puts first the rows a full sort puts first, keeps the row
// set, and leaves a relation whose rows it shares untouched: the relation it
// is a view of, and the view cache's snapshot a hit renames. Relations of one
// and of two columns, in no order and already in order; n from 0 past the
// rows. Views of one relation never write into the chunks they share: a row
// appended through one is seen by no other view and not by the relation.
func TestSortFirstMatchesFullSort(t *testing.T) {
	atChunkSizes(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(5))
		for trial := 0; trial < 400; trial++ {
			w, ordered := 1+trial%2, trial%4 >= 2
			rows := make([][]dict.ID, r.Intn(60))
			for i := range rows {
				rows[i] = []dict.ID{dict.ID(r.Intn(5)), dict.ID(r.Intn(5))}[:w]
			}
			sorted := slices.Clone(rows)
			slices.SortFunc(sorted, slices.Compare[[]dict.ID])
			if ordered {
				rows = sorted
			}
			rel := NewRelation([]string{"a", "b"}[:w])
			for _, row := range rows {
				rel.Append(row)
			}
			snap := rel.Snapshot()
			for _, n := range []int{0, 1, r.Intn(rel.Len() + 1), rel.Len(), rel.Len() + 3} {
				shared, cached := flat(rel), flat(snap)
				for _, of := range []*Relation{rel, snap} {
					got, _ := of.RenamedView(of.Vars)
					got.SortFirst(n)
					if !slices.Equal(flat(rel), shared) || !slices.Equal(flat(snap), cached) {
						t.Fatalf("trial %d, n=%d: SortFirst rewrote the rows it shares", trial, n)
					}
					if !got.Equal(rel) || got.Len() != rel.Len() {
						t.Fatalf("trial %d, n=%d: SortFirst changed the rows", trial, n)
					}
					for i := 0; i < min(n, len(sorted)); i++ {
						if !slices.Equal(got.Row(i), sorted[i]) {
							t.Fatalf("trial %d, n=%d: row %d = %v, a full sort's %v", trial, n, i, got.Row(i), sorted[i])
						}
					}
					// Its chunks are cut from one allocation: a row appended
					// lands after them, not over any of them.
					before := flat(got)
					got.Append([]dict.ID{9, 9}[:w])
					if after := flat(got); !slices.Equal(after[:len(before)], before) || !slices.Equal(after[len(before):], []dict.ID{9, 9}[:w]) {
						t.Fatalf("trial %d, n=%d: appending to the sorted rows wrote over them", trial, n)
					}
				}
			}
			shared := flat(rel)
			v1, _ := rel.RenamedView(rel.Vars)
			v2, _ := rel.RenamedView(rel.Vars)
			v1.Append([]dict.ID{7, 7}[:w])
			v2.Append([]dict.ID{8, 8}[:w])
			if !slices.Equal(flat(rel), shared) || !slices.Equal(v1.Row(rel.Len()), []dict.ID{7, 7}[:w]) ||
				!slices.Equal(flat(v2)[:len(shared)], shared) {
				t.Fatalf("trial %d: appending through views of %d rows wrote into the rows they share", trial, rel.Len())
			}
		}
	})
}

// Property-like: a 3-atom chain query evaluated with our planner matches a
// brute-force nested-loop evaluation on random graphs.
func TestEvalMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		var raw [][3]dict.ID
		n := 5 + r.Intn(60)
		for i := 0; i < n; i++ {
			raw = append(raw, [3]dict.ID{
				dict.ID(1 + r.Intn(10)), dict.ID(100 + r.Intn(3)), dict.ID(1 + r.Intn(10)),
			})
		}
		st, ss := tinyStore(raw)
		e := New(st, ss)
		p1, p2, p3 := dict.ID(100), dict.ID(101), dict.ID(102)
		q := query.CQ{
			Head: []query.Arg{v("x"), v("w")},
			Atoms: []query.Atom{
				{S: v("x"), P: c(p1), O: v("y")},
				{S: v("y"), P: c(p2), O: v("z")},
				{S: v("z"), P: c(p3), O: v("w")},
			},
		}
		got, err := e.cq([]string{"x", "w"}, q)
		if err != nil {
			t.Fatal(err)
		}
		want := map[[2]dict.ID]bool{}
		for _, a := range raw {
			if a[1] != p1 {
				continue
			}
			for _, b := range raw {
				if b[1] != p2 || b[0] != a[2] {
					continue
				}
				for _, cc := range raw {
					if cc[1] != p3 || cc[0] != b[2] {
						continue
					}
					want[[2]dict.ID{a[0], cc[2]}] = true
				}
			}
		}
		if got.Len() != len(want) {
			t.Fatalf("seed %d: got %d rows, want %d", seed, got.Len(), len(want))
		}
		for i := 0; i < got.Len(); i++ {
			row := got.Row(i)
			if !want[[2]dict.ID{row[0], row[1]}] {
				t.Fatalf("seed %d: unexpected row %v", seed, row)
			}
		}
	}
}

func TestEvalJUCQ(t *testing.T) {
	// Two fragments sharing variable y.
	st, ss := tinyStore([][3]dict.ID{
		{1, 10, 2}, {2, 11, 3}, {4, 10, 5}, {6, 11, 7},
	})
	e := New(st, ss)
	f1 := query.Fragment{
		AtomIndexes: []int{0},
		UCQ: query.UCQ{HeadNames: []string{"x", "y"}, CQs: []query.CQ{
			{Head: []query.Arg{v("x"), v("y")}, Atoms: []query.Atom{{S: v("x"), P: c(10), O: v("y")}}},
		}},
	}
	f2 := query.Fragment{
		AtomIndexes: []int{1},
		UCQ: query.UCQ{HeadNames: []string{"y", "z"}, CQs: []query.CQ{
			{Head: []query.Arg{v("y"), v("z")}, Atoms: []query.Atom{{S: v("y"), P: c(11), O: v("z")}}},
		}},
	}
	j := query.JUCQ{HeadNames: []string{"x", "z"}, Fragments: []query.Fragment{f1, f2}}
	r, err := e.jucq(j)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Row(0)[0] != 1 || r.Row(0)[1] != 3 {
		t.Fatalf("JUCQ join wrong: %d rows", r.Len())
	}
}

func TestEvalErrors(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{{1, 10, 2}})
	e := New(st, ss)
	if _, err := e.cq(nil, query.CQ{}); err == nil {
		t.Fatal("empty body must error")
	}
	// Head variable missing from body.
	q := query.CQ{Head: []query.Arg{v("missing")}, Atoms: []query.Atom{{S: v("x"), P: c(10), O: v("y")}}}
	if _, err := e.cq([]string{"missing"}, q); err == nil {
		t.Fatal("unsafe head must error")
	}
	// Mismatched head name count.
	if _, err := e.cq([]string{"a", "b"}, query.CQ{Head: []query.Arg{v("x")}, Atoms: []query.Atom{{S: v("x"), P: c(10), O: v("y")}}}); err == nil {
		t.Fatal("head arity mismatch must error")
	}
	if _, err := e.jucq(query.JUCQ{}); err == nil {
		t.Fatal("JUCQ without fragments must error")
	}
}

func TestEvalStreamBudget(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{{1, 10, 2}})
	e := New(st, ss)
	e.Budget = Budget{MaxRows: 1000}
	got, err := e.ucqStream([]string{"x"}, func(fn func(query.CQ) bool) {
		for i := 0; i < 5; i++ {
			if !fn(query.CQ{Head: []query.Arg{v("x")}, Atoms: []query.Atom{{S: v("x"), P: c(10), O: v("y")}}}) {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("stream eval: want 1 distinct row, got %d", got.Len())
	}
}

// Evaluation against a real parsed graph, for integration confidence.
func TestEvalAgainstParsedGraph(t *testing.T) {
	g, err := graph.ParseString(`
@prefix ex: <http://example.org/> .
ex:a ex:knows ex:b .
ex:b ex:knows ex:c .
ex:c ex:knows ex:a .
`)
	if err != nil {
		t.Fatal(err)
	}
	st := storage.Build(g.Dict(), g.AllTriples())
	e := New(st, stats.Collect(st))
	q, err := query.ParseRuleWithPrefixes(g.Dict(), map[string]string{"ex": "http://example.org/"},
		`q(x) :- x ex:knows y, y ex:knows z, z ex:knows x`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.cq(query.HeadVarNames(q), q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("triangle query: want 3 rows, got %d", r.Len())
	}
}

func TestRelationProjectPanicsOnWidthMismatch(t *testing.T) {
	r := NewRelation([]string{"a"})
	defer func() {
		if recover() == nil {
			t.Fatal("Append with wrong width must panic")
		}
	}()
	r.Append([]dict.ID{1, 2})
}

func TestRelationString(t *testing.T) {
	r := NewRelation([]string{"a", "b"})
	r.Append([]dict.ID{1, 2})
	if s := r.String(); s == "" || !containsAll(s, "a", "b", "1 rows") {
		t.Fatalf("String = %q", s)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

func TestEvalUCQWithProvenance(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{{1, 10, 2}, {1, 11, 2}, {3, 11, 4}})
	e := New(st, ss)
	u := query.UCQ{
		HeadNames: []string{"x"},
		CQs: []query.CQ{
			{Head: []query.Arg{v("x")}, Atoms: []query.Atom{{S: v("x"), P: c(10), O: v("y")}}},
			{Head: []query.Arg{v("x")}, Atoms: []query.Atom{{S: v("x"), P: c(11), O: v("y")}}},
		},
	}
	rows, prov, err := e.ucqWhy(u)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 || len(prov) != 2 {
		t.Fatalf("rows %d prov %d, want 2 and 2", rows.Len(), len(prov))
	}
	byVal := map[dict.ID][]int{}
	for i := 0; i < rows.Len(); i++ {
		byVal[rows.Row(i)[0]] = prov[i]
	}
	// Subject 1 matches both members; subject 3 only the second.
	if len(byVal[1]) != 2 || byVal[1][0] != 0 || byVal[1][1] != 1 {
		t.Fatalf("provenance of 1: %v", byVal[1])
	}
	if len(byVal[3]) != 1 || byVal[3][0] != 1 {
		t.Fatalf("provenance of 3: %v", byVal[3])
	}
	// Provenance agrees with plain union evaluation.
	plain, err := e.ucq(u)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Equal(plain) {
		t.Fatal("provenance evaluation changed answers")
	}
}

func TestEvalUCQWithProvenanceBoolean(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{{1, 10, 2}})
	e := New(st, ss)
	u := query.UCQ{CQs: []query.CQ{
		{Atoms: []query.Atom{{S: v("x"), P: c(10), O: v("y")}}},
		{Atoms: []query.Atom{{S: v("x"), P: c(99), O: v("y")}}},
		{Atoms: []query.Atom{{S: v("x"), P: c(10), O: c(2)}}},
	}}
	rows, prov, err := e.ucqWhy(u)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || len(prov) != 1 {
		t.Fatalf("boolean: rows %d prov %d", rows.Len(), len(prov))
	}
	if len(prov[0]) != 2 || prov[0][0] != 0 || prov[0][1] != 2 {
		t.Fatalf("boolean provenance: %v", prov[0])
	}
}

// Provenance stays exact for a one-column union past the point where its
// set takes a bitmap: every row names the members that produce it, in the
// order a brute-force map over the members' own answers gives.
func TestEvalUCQWithProvenancePastTheBitmap(t *testing.T) {
	atChunkSizes(t, func(t *testing.T) {
		var triples [][3]dict.ID
		u := query.UCQ{HeadNames: []string{"x"}}
		for k := dict.ID(2); k <= 5; k++ {
			for x := k; x <= 600; x += k {
				triples = append(triples, [3]dict.ID{x, 1000 + k, 1})
			}
			u.CQs = append(u.CQs, query.CQ{Head: []query.Arg{v("x")}, Atoms: []query.Atom{{S: v("x"), P: c(1000 + k), O: v("y")}}})
		}
		st, ss := tinyStore(triples)
		e := New(st, ss)
		rows, prov, err := e.ucqWhy(u)
		if err != nil {
			t.Fatal(err)
		}
		want := map[dict.ID][]int{}
		var order []dict.ID
		for ci, cq := range u.CQs {
			r, err := e.cq(u.HeadNames, cq)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < r.Len(); i++ {
				id := r.Row(i)[0]
				if want[id] == nil {
					order = append(order, id)
				}
				want[id] = append(want[id], ci)
			}
		}
		if !slices.Equal(flat(rows), order) || len(prov) != len(order) {
			t.Fatalf("rows %v, brute force %v", flat(rows), order)
		}
		for i, id := range order {
			if !slices.Equal(prov[i], want[id]) {
				t.Fatalf("row %d (%d): provenance %v, brute force %v", i, id, prov[i], want[id])
			}
		}
		s := NewSet(u.HeadNames)
		if s.Add(rows); s.bits == nil {
			t.Fatalf("a set of the union's %d rows under ID 600 kept its index", rows.Len())
		}
	})
}

func TestEvalJUCQParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var ts [][3]dict.ID
	for i := 0; i < 400; i++ {
		ts = append(ts, [3]dict.ID{dict.ID(1 + r.Intn(30)), dict.ID(200 + r.Intn(3)), dict.ID(1 + r.Intn(30))})
	}
	st, ss := tinyStore(ts)
	mkFrag := func(p dict.ID, a, b string) query.Fragment {
		return query.Fragment{UCQ: query.UCQ{HeadNames: []string{a, b}, CQs: []query.CQ{
			{Head: []query.Arg{v(a), v(b)}, Atoms: []query.Atom{{S: v(a), P: c(p), O: v(b)}}},
		}}}
	}
	j := query.JUCQ{
		HeadNames: []string{"x", "z"},
		Fragments: []query.Fragment{mkFrag(200, "x", "y"), mkFrag(201, "y", "z"), mkFrag(202, "x", "w")},
	}
	serial := New(st, ss)
	want, err := serial.jucq(j)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(newSplitStore(st, 4), ss).jucq(j)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("scattered JUCQ %d rows != serial %d rows", got.Len(), want.Len())
	}
}

// Planning a body allocates nothing: the cardinalities, the remaining-atom
// list and the closures cost.Pick calls live on evalBody's stack, so a
// one-atom body costs exactly its scan. A reformulation's union runs
// evalBody once per member, hundreds of times per query.
func TestPlanningStaysOnStack(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{{1, 10, 2}, {3, 10, 4}, {5, 11, 6}})
	e := New(st, ss)
	atoms := query.LiftAtoms(nil, []query.Atom{{S: v("x"), P: c(10), O: v("y")}})
	g := e.newGuard(context.Background())
	dead := []uint8{0}
	scan := testing.AllocsPerRun(100, func() {
		if _, err := e.scanAtom(&atoms[0], dead[0], nil, g, nil, -1); err != nil {
			t.Fatal(err)
		}
	})
	body := testing.AllocsPerRun(100, func() {
		if _, err := e.evalBody(atoms, dead, nil, nil, g, nil); err != nil {
			t.Fatal(err)
		}
	})
	if body != scan {
		t.Fatalf("a one-atom body allocates %v per run, its scan %v", body, scan)
	}
}

// With every row in one bucket of the flat hash tables, a hash join and a
// set give the rows they give with the rows spread — in the same order,
// since a chain lists its rows ascending and a set keeps first occurrences —
// and the brute-force answer: a bucket collision costs comparisons, never a
// wrong match. The set grows from empty as it goes, so its answers hold
// across every rehash. A scan streamed into the join as its probe side gives
// what the hash join of its materialized scan gives — the same columns, the
// same rows in the same order — on one store and on two and four shards.
func TestOneBucketJoinAndDedup(t *testing.T) {
	atChunkSizes(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(9))
		rel := func(vars ...string) *Relation {
			out := NewRelation(vars)
			for i := 0; i < 300; i++ {
				out.Append([]dict.ID{dict.ID(1 + r.Intn(12)), dict.ID(1 + r.Intn(12))})
			}
			return out
		}
		left, right, dups := rel("x", "y"), rel("y", "z"), rel("a", "b")
		// The scans of y 200 z, and of y 200 z with z in [150, 349], probe the
		// first 100 rows of left: each triple matches about eight of them.
		var triples [][3]dict.ID
		for i := 0; i < right.Len(); i++ {
			triples = append(triples, [3]dict.ID{right.Row(i)[0], 200, dict.ID(100 + i)})
		}
		st, _ := tinyStore(triples)
		scanned := query.LiftAtoms(nil, []query.Atom{{S: v("y"), P: c(200), O: v("z")}, {S: v("y"), P: c(200), O: v("z")}})
		scanned[1].O.Ranges = []storage.IDRange{{Lo: 150, Hi: 349}}
		build := NewRelation(left.Vars)
		for i := 0; i < 100; i++ {
			build.Append(left.Row(i))
		}
		run := func() (joined, distinct []dict.ID, streamed [][]dict.ID) {
			j, err := New(nil, nil).hashJoin(left, right, guard{}, nil, -1)
			if err != nil {
				t.Fatal(err)
			}
			d := NewSet(dups.Vars)
			d.Add(dups)
			once := d.Rows.Len()
			for i := 0; i < dups.Len(); i++ {
				if k := d.idx.insert(d.Rows, dups.Row(i)); k == -1 || !slices.Equal(d.Rows.Row(k), dups.Row(i)) {
					t.Fatalf("row %v found as %d", dups.Row(i), k)
				}
			}
			if d.Rows.Len() != once {
				t.Fatalf("offering the rows again added %d", d.Rows.Len()-once)
			}
			for _, src := range []Source{st, newSplitStore(st, 2), newSplitStore(st, 4)} {
				e := New(src, nil)
				for _, a := range scanned {
					scan, err := e.scanAtom(&a, 0, nil, guard{}, nil, -1)
					if err != nil {
						t.Fatal(err)
					}
					want, err := e.hashJoin(build, scan, guard{}, nil, -1)
					if err != nil {
						t.Fatal(err)
					}
					if !e.streams(build, a, 0, float64(scan.Len())) {
						t.Fatalf("%T: a scan of %d rows is not streamed into a join with %d", src, scan.Len(), build.Len())
					}
					// Alone, then twice in one union: the first member keeps the
					// scan as it streams, the second probes what was kept.
					m := &memo{}
					for k, mm := range []*memo{nil, m, m} {
						got, err := e.streamJoin(build, &a, 0, mm, guard{}, nil, -1)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got.Vars, want.Vars) || !slices.Equal(flat(got), flat(want)) {
							t.Fatalf("%T, %s, run %d: streamed join %v of %d rows, the materialized one %v of %d", src, a.Format(st.Dict()), k, got.Vars, got.Len(), want.Vars, want.Len())
						}
						streamed = append(streamed, flat(got))
					}
					if held := m.scan(a, 0, scan.Vars, [3]int{0, -1, 1}); held == nil || !slices.Equal(flat(held), flat(scan)) {
						t.Fatalf("%T, %s: the union's memo does not hold the streamed scan", src, a.Format(st.Dict()))
					}
				}
			}
			return flat(j), flat(d.Rows), streamed
		}
		spreadJoin, spreadDistinct, spreadStreamed := run()
		defer func(m uint64) { hashMix = m }(hashMix)
		hashMix = 0
		oneJoin, oneDistinct, oneStreamed := run()
		if !slices.Equal(oneJoin, spreadJoin) || !slices.Equal(oneDistinct, spreadDistinct) ||
			!slices.EqualFunc(oneStreamed, spreadStreamed, slices.Equal[[]dict.ID]) {
			t.Fatal("one bucket changed the join's or the dedup's rows or their order")
		}
		want := 0
		for i := 0; i < left.Len(); i++ {
			for k := 0; k < right.Len(); k++ {
				if left.Row(i)[1] == right.Row(k)[0] {
					want++
				}
			}
		}
		seen := map[[2]dict.ID]bool{}
		var first []dict.ID
		for i := 0; i < dups.Len(); i++ {
			if row := [2]dict.ID(dups.Row(i)); !seen[row] {
				seen[row] = true
				first = append(first, row[:]...)
			}
		}
		if len(oneJoin) != 3*want || !slices.Equal(oneDistinct, first) {
			t.Fatalf("one bucket: %d join rows, %d distinct; brute force %d and %d", len(oneJoin)/3, len(oneDistinct)/2, want, len(seen))
		}
	})
}

// Two members that share a join prefix but read different variables of it
// must not share its intermediate: the union's memo keys carry the dead
// positions. Here the first member leaves y unread and the second z, so their
// two-atom prefixes are relations over (x, z) and (x, y).
func TestMemoKeysCarryDeadPositions(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{
		{1, 10, 50}, {2, 10, 51},
		{1, 11, 60}, {1, 11, 61}, {2, 11, 62},
		{1, 12, 70}, {1, 12, 71}, {1, 12, 72}, {1, 12, 73}, {1, 12, 74}, {1, 12, 75},
		{50, 13, 80}, {50, 13, 81}, {51, 13, 82}, {52, 13, 83}, {53, 13, 84},
	})
	u := query.UCQ{HeadNames: []string{"a", "b"}, CQs: []query.CQ{
		{Head: []query.Arg{v("x"), v("z")}, Atoms: []query.Atom{
			{S: v("x"), P: c(10), O: v("y")}, {S: v("x"), P: c(11), O: v("z")}, {S: v("x"), P: c(12), O: v("u")}}},
		{Head: []query.Arg{v("x"), v("w")}, Atoms: []query.Atom{
			{S: v("x"), P: c(10), O: v("y")}, {S: v("x"), P: c(11), O: v("z")}, {S: v("y"), P: c(13), O: v("w")}}},
	}}
	e := New(st, ss)
	got, err := e.ucq(u)
	if err != nil {
		t.Fatal(err)
	}
	want := NewSet(u.HeadNames)
	for _, cq := range u.CQs {
		r, err := e.cq(u.HeadNames, cq)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(r)
	}
	if !got.Equal(want.Rows) || got.Len() != 5 {
		t.Fatalf("union of %d rows, its members alone %d (want 5)", got.Len(), want.Rows.Len())
	}
}

// A variable nothing reads is a wildcard. A probe that binds none is a
// semijoin reading one triple per probe row; an atom with none at all is a
// boolean test whose scan stops at its first triple. exec.rows_unioned
// counts the rows the body offers the answer set, duplicates included.
func TestDeadPositions(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{
		{1, 10, 2}, {3, 10, 4}, {5, 10, 99},
		{2, 11, 5}, {2, 11, 6}, {2, 11, 7}, {4, 11, 8}, {4, 11, 9},
		{20, 12, 21}, {22, 12, 23}, {24, 12, 25},
	})
	for _, tc := range []struct {
		name                   string
		head                   []query.Arg
		atoms                  []query.Atom
		rows, scanned, offered int
	}{
		// Scan x 10 y (3 triples), probe y 11 z for y = 2, 4, 99: all five
		// matches when z is read, the first of each otherwise.
		{"live object", []query.Arg{v("x"), v("z")}, []query.Atom{{S: v("x"), P: c(10), O: v("y")}, {S: v("y"), P: c(11), O: v("z")}}, 5, 3 + 5, 5},
		{"semijoin", []query.Arg{v("x")}, []query.Atom{{S: v("x"), P: c(10), O: v("y")}, {S: v("y"), P: c(11), O: v("z")}}, 2, 3 + 2, 2},
		// u 12 w has no live variable: one triple; then x 11 y, 5 triples
		// offering x = 2, 2, 2, 4, 4.
		{"boolean atom", []query.Arg{v("x")}, []query.Atom{{S: v("x"), P: c(11), O: v("y")}, {S: v("u"), P: c(12), O: v("w")}}, 2, 5 + 1, 5},
		// u 13 w matches nothing and goes first; x 11 y is still scanned.
		{"false boolean atom", []query.Arg{v("x")}, []query.Atom{{S: v("x"), P: c(11), O: v("y")}, {S: v("u"), P: c(13), O: v("w")}}, 0, 5, 0},
		{"boolean query", nil, []query.Atom{{S: v("u"), P: c(12), O: v("w")}}, 1, 1, 1},
	} {
		e := New(st, ss)
		e.Metrics = metrics.NewRegistry()
		q := query.CQ{Head: tc.head, Atoms: tc.atoms}
		got, err := e.cq(query.HeadVarNames(q), q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != tc.rows {
			t.Errorf("%s: %d answers, want %d", tc.name, got.Len(), tc.rows)
		}
		if n := e.Metrics.Counter("exec.rows_scanned").Value(); n != int64(tc.scanned) {
			t.Errorf("%s: rows_scanned = %d, want %d", tc.name, n, tc.scanned)
		}
		if n := e.Metrics.Counter("exec.rows_unioned").Value(); n != int64(tc.offered) {
			t.Errorf("%s: rows_unioned = %d, want %d", tc.name, n, tc.offered)
		}
		got2, err := New(newSplitStore(st, 3), ss).cq(query.HeadVarNames(q), q)
		if err != nil || !got2.Equal(got) {
			t.Errorf("%s: 3 shards answer %v (%v), one store %v", tc.name, got2, err, got)
		}
	}
}
