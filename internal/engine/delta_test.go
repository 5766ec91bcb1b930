package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/saturation"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// TestDeltaScheduleMatchesRebuild is the differential for everything a
// version takes over from the one before it. A random schema and data, then
// a random schedule of writes — fresh and redundant inserts, effective and
// void deletes, an insert undone before anybody read, batches whose triples
// share a (p,o) and an (s,p), deltas past the maxDrift fallback, changes of
// the shard count — some followed by a read, some not. At every read each
// shard of the store, the statistics and each shard's must equal, exactly,
// the ones built from the graph from scratch; at some of them every
// complete strategy must also equal Sat, and Sat a fresh saturation — so G∞
// is read sometimes off the kept closure and sometimes after it was dropped,
// at 1, 2 and 4 shards. There, too, the Sat store, D's source and Δ's store
// read together, must answer every scan and count as a store built from the
// flat G∞ does, its statistics must equal that store's collected ones, and
// Δ must share no triple with D.
func TestDeltaScheduleMatchesRebuild(t *testing.T) {
	seeds, steps := 4, 220
	if testing.Short() {
		seeds, steps = 2, 60
	}
	var applied, rebuilt, dropped, kept int64
	satAt := map[int]int{} // G∞ reads per shard count
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(18000 + seed)))
		sc, err := testutil.RandomScenario(rng)
		if err != nil {
			t.Fatal(err)
		}
		e := New(sc.Graph)
		e.Metrics = metrics.NewRegistry()
		fresh := 0
		triple := func() rdf.Triple {
			s := sc.Ents[rng.Intn(len(sc.Ents))]
			switch rng.Intn(4) {
			case 0:
				return rdf.NewTriple(s, rdf.Type, sc.Classes[rng.Intn(len(sc.Classes))])
			case 1:
				fresh++
				return rdf.NewTriple(s, sc.Props[rng.Intn(len(sc.Props))], rdf.NewLiteral(fmt.Sprintf("new%d", fresh)))
			}
			return rdf.NewTriple(s, sc.Props[rng.Intn(len(sc.Props))], sc.Ents[rng.Intn(len(sc.Ents))])
		}
		present := func() rdf.Triple {
			if data := e.g.DecodedData(); len(data) > 0 {
				return data[rng.Intn(len(data))]
			}
			return triple()
		}
		insert := func(ts ...rdf.Triple) {
			if err := e.InsertData(ts); err != nil {
				t.Fatal(err)
			}
		}
		remove := func(ts ...rdf.Triple) {
			if _, err := e.DeleteData(ts); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < steps; step++ {
			kind := rng.Intn(9)
			switch kind {
			case 0, 1:
				insert(triple())
			case 2:
				insert(present())
			case 3:
				remove(present())
			case 4:
				remove(rdf.NewTriple(sc.Ents[0], sc.Props[0], rdf.NewLiteral("never there")))
			case 5: // undone before anybody reads
				ts := []rdf.Triple{triple(), triple()}
				insert(ts...)
				remove(ts...)
			case 6: // one (p,o) under two subjects, one (s,p) over two objects
				a, b := sc.Ents[rng.Intn(len(sc.Ents))], sc.Ents[rng.Intn(len(sc.Ents))]
				p, o := sc.Props[rng.Intn(len(sc.Props))], rdf.NewLiteral(fmt.Sprintf("lit%d", rng.Intn(3)))
				ts := []rdf.Triple{rdf.NewTriple(a, p, o), rdf.NewTriple(b, p, o), rdf.NewTriple(a, p, sc.Ents[0])}
				if rng.Intn(2) == 0 {
					insert(ts...)
				} else {
					remove(ts...)
				}
			case 7: // past maxDrift, either way
				n := e.g.DataCount()/4 + 2
				var ts []rdf.Triple
				for i := 0; i < n; i++ {
					if rng.Intn(2) == 0 {
						ts = append(ts, triple())
					} else {
						ts = append(ts, present())
					}
				}
				if rng.Intn(2) == 0 {
					insert(ts...)
				} else {
					remove(ts...)
				}
			case 8:
				e.EnableSharding([]int{0, 2, 4}[rng.Intn(3)])
			}
			if rng.Intn(3) == 0 {
				continue // the next write finds this version unread
			}
			where := fmt.Sprintf("seed %d step %d (kind %d, %d shards)", seed, step, kind, e.shards)
			g := e.g
			sh, want := e.Store(), shard.Build(g.Dict(), g.D(), e.shards)
			if sh.NumShards() != want.NumShards() {
				t.Fatalf("%s: %d shards", where, sh.NumShards())
			}
			for i := 0; i < sh.NumShards(); i++ {
				sameStore(t, fmt.Sprintf("%s shard %d", where, i), sh.ShardStore(i), want.ShardStore(i), rng)
				if i%2 == step%2 { // collected on some shards, some of the time
					sameStatistics(t, fmt.Sprintf("%s shard %d", where, i), sh.ShardStats(i), stats.Collect(want.ShardStore(i)), g.AllTriples())
				}
			}
			sameStatistics(t, where, e.Stats(), stats.Collect(want), g.AllTriples())
			exactCards(t, where, e.Stats(), sh, g.AllTriples())
			if rng.Intn(2) == 0 {
				continue // G∞ goes unread on this version
			}
			if e.closure != nil {
				kept++
			}
			satAt[e.shards]++
			sat := e.Saturation()
			flat := saturation.Saturate(g).Triples()
			if got := sat.Triples(); !slices.Equal(got, flat) {
				t.Fatalf("%s: G∞ has %d triples, a fresh saturation %d", where, len(got), len(flat))
			}
			sat.Delta.Each(func(ts []dict.Triple) bool {
				for _, x := range ts {
					if g.D().Contains(x) {
						t.Fatalf("%s: Δ holds %v, which D holds", where, x)
					}
				}
				return true
			})
			flatStore := storage.Build(g.Dict(), flat)
			sameSource(t, where, e.SatStore().(*satSource), flatStore, [2][]dict.Triple{sat.Delta.Triples(), g.AllTriples()}, rng)
			sameStatistics(t, where+" (G∞)", e.SatStats(), stats.Collect(flatStore), flat)
			exactCards(t, where+" (G∞)", e.SatStats(), e.SatStore(), flat)
			for qi := 0; qi < 2; qi++ {
				q := sc.RandomQuery(rng)
				want, err := e.AnswerContext(context.Background(), q, Sat)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range []Strategy{RefUCQ, RefSCQ, RefGCov, RefRange, Dat} {
					got, err := e.AnswerContext(context.Background(), q, s)
					if err != nil {
						t.Fatalf("%s: %s: %v", where, s, err)
					}
					if !got.Rows.Equal(want.Rows) {
						t.Fatalf("%s: query %s: %s %d rows != sat %d rows", where,
							query.FormatCQ(g.Dict(), q), s, got.Rows.Len(), want.Rows.Len())
					}
				}
			}
		}
		c := e.Metrics.Snapshot().Counters
		applied += c["engine.derived.applied"]
		rebuilt += c["engine.derived.rebuilt"]
		dropped += c["engine.closure.dropped"]
	}
	// The schedule is only a test of what it reached.
	if applied == 0 || rebuilt < 2 || dropped == 0 || kept == 0 || satAt[1] == 0 || satAt[2] == 0 || satAt[4] == 0 {
		t.Fatalf("schedule reached: %d applied, %d rebuilt, %d closures dropped, %d Sat reads off a kept closure, G∞ read at 1/2/4 shards %d/%d/%d times",
			applied, rebuilt, dropped, kept, satAt[1], satAt[2], satAt[4])
	}
}

// sameStore compares two stores on their triples and on CountRange for every
// pattern shape over a few triples, present or not.
func sameStore(t *testing.T, where string, got, want *storage.Store, rng *rand.Rand) {
	t.Helper()
	if !slices.Equal(got.Triples(), want.Triples()) {
		t.Fatalf("%s: store has\n %v, built from scratch\n %v", where, got.Triples(), want.Triples())
	}
	for i := 0; i < 4 && want.Len() > 0; i++ {
		x := want.Triples()[rng.Intn(want.Len())]
		x.O += dict.ID(rng.Intn(2)) // sometimes a neighbour that may be absent
		for shape := 0; shape < 8; shape++ {
			var pat storage.Pattern
			if shape&1 != 0 {
				pat.S = x.S
			}
			if shape&2 != 0 {
				pat.P = x.P
			}
			if shape&4 != 0 {
				pat.O = x.O
			}
			var buf [3]storage.IDRange
			if g, w := got.CountRange(pat.Range(&buf)), want.CountRange(pat.Range(&buf)); g != w {
				t.Fatalf("%s: CountRange(%v) = %d, built from scratch %d", where, pat, g, w)
			}
		}
	}
}

// sameSource compares G∞'s source with a store of the same triples on every
// scan and count, for every pattern shape, plain and ranged, over triples
// drawn from each of parts in turn and neighbours that may be absent; and
// on a scan stopped at its first match.
func sameSource(t *testing.T, where string, got *satSource, want *storage.Store, parts [2][]dict.Triple, rng *rand.Rand) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d triples, want %d", where, got.Len(), want.Len())
	}
	collect := func(scan func(fn func(dict.Triple) bool)) []dict.Triple {
		var out []dict.Triple
		scan(func(x dict.Triple) bool {
			out = append(out, x)
			return true
		})
		slices.SortFunc(out, graph.CompareTriples)
		return out
	}
	first := func(scan func(fn func(dict.Triple) bool)) int {
		n := 0
		scan(func(dict.Triple) bool {
			n++
			return false
		})
		return n
	}
	around := func(id dict.ID) []storage.IDRange { return []storage.IDRange{{Lo: max(id, 2) - 1, Hi: id + 1}} }
	for i := 0; i < 8; i++ {
		xs := parts[i%2]
		if len(xs) == 0 {
			continue
		}
		x := xs[rng.Intn(len(xs))]
		x.O += dict.ID(rng.Intn(2)) // sometimes a neighbour that may be absent
		for shape := 0; shape < 8; shape++ {
			var pat storage.Pattern
			var rp storage.RangePattern
			if shape&1 != 0 {
				pat.S, rp.S = x.S, []storage.IDRange{storage.Exact(x.S)}
			}
			if shape&2 != 0 {
				pat.P, rp.P = x.P, []storage.IDRange{storage.Exact(x.P)}
			}
			if shape&4 != 0 {
				pat.O, rp.O = x.O, around(x.O)
			}
			var buf [3]storage.IDRange
			plain := pat.Range(&buf) // the plain pattern in range form
			wide := rp
			if wide.P != nil {
				wide.P = around(x.P)
			}
			for _, rp := range []storage.RangePattern{plain, rp, wide} {
				if g, w := got.CountRange(rp), want.CountRange(rp); g != w {
					t.Fatalf("%s: CountRange(%v) = %d, G∞'s store %d", where, rp, g, w)
				}
				eachRun := func(src exec.Source) func(func(dict.Triple) bool) {
					return func(fn func(dict.Triple) bool) {
						src.EachRun(rp, func(ts []dict.Triple) bool {
							for _, x := range ts {
								if !fn(x) {
									return false
								}
							}
							return true
						})
					}
				}
				if g, w := collect(eachRun(got)), collect(eachRun(want)); !slices.Equal(g, w) {
					t.Fatalf("%s: EachRun(%v) = %v, G∞'s store %v", where, rp, g, w)
				}
				if g, w := first(eachRun(got)), first(eachRun(want)); g != w {
					t.Fatalf("%s: EachRun(%v) stopped at the first match calls back %d times, G∞'s store %d", where, rp, g, w)
				}
			}
		}
	}
}

// exactCards checks the estimates the statistics answer from their own
// tables — no position bound, the property alone, for every property of
// triples and for none — against a count of the source they describe.
func exactCards(t *testing.T, where string, s *stats.Stats, src stats.Counter, triples []dict.Triple) {
	t.Helper()
	if g, w := s.PatternCard(storage.Pattern{}), float64(src.CountRange(storage.RangePattern{})); g != w {
		t.Fatalf("%s: PatternCard({}) = %v, the source counts %v", where, g, w)
	}
	for _, x := range append(slices.Clone(triples), dict.Triple{P: ^dict.ID(0)}) {
		pat := storage.Pattern{P: x.P}
		var buf [3]storage.IDRange
		if g, w := s.PatternCard(pat), float64(src.CountRange(pat.Range(&buf))); g != w {
			t.Fatalf("%s: PatternCard(%v) = %v, the source counts %v", where, pat, g, w)
		}
	}
}

// sameStatistics compares statistics field by field: N, the three global
// distinct counts, and the entry of every property of triples (and of none).
func sameStatistics(t *testing.T, where string, got, want *stats.Stats, triples []dict.Triple) {
	t.Helper()
	if got.N() != want.N() || got.DistinctSubjects() != want.DistinctSubjects() ||
		got.DistinctProperties() != want.DistinctProperties() || got.DistinctObjects() != want.DistinctObjects() {
		t.Fatalf("%s: statistics N/S/P/O %d/%d/%d/%d, collected from scratch %d/%d/%d/%d", where,
			got.N(), got.DistinctSubjects(), got.DistinctProperties(), got.DistinctObjects(),
			want.N(), want.DistinctSubjects(), want.DistinctProperties(), want.DistinctObjects())
	}
	for _, x := range append(slices.Clone(triples), dict.Triple{}) {
		g, gok := got.Property(x.P)
		w, wok := want.Property(x.P)
		if g != w || gok != wok {
			t.Fatalf("%s: property %d: %+v (%v), collected from scratch %+v (%v)", where, x.P, g, gok, w, wok)
		}
	}
}

// Cached plans cross a write: the query planned before an insert is a cache
// hit after it and returns the inserted rows; a schema change misses; so
// does, once, a data count that has drifted past maxDrift.
func TestPlanCacheCrossesWrites(t *testing.T) {
	e, g := mustEngine(t)
	books := func(name string, n int) []rdf.Triple {
		ts := make([]rdf.Triple, n)
		for i := range ts {
			ts[i] = rdf.NewTriple(ex(fmt.Sprintf("%s%d", name, i)), rdf.Type, ex("Book"))
		}
		return ts
	}
	const base = 1 + 40 // a write of one triple is well within maxDrift of this
	if err := e.InsertData(books("doiB", base-1)); err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, g, `q(x) :- x rdf:type ex:Publication`)
	answer := func(wantCached bool, wantRows int) {
		t.Helper()
		a, err := e.AnswerContext(context.Background(), q, RefGCov)
		if err != nil {
			t.Fatal(err)
		}
		if a.CachedPlan != wantCached || a.Rows.Len() != wantRows {
			t.Fatalf("cached %v with %d rows, want %v with %d", a.CachedPlan, a.Rows.Len(), wantCached, wantRows)
		}
	}
	answer(false, base)
	if err := e.InsertData(books("doiX", 1)); err != nil {
		t.Fatal(err)
	}
	answer(true, base+1)
	if _, err := e.DeleteData(books("doiX", 1)); err != nil {
		t.Fatal(err)
	}
	answer(true, base)

	many := books("doiD", g.DataCount()/8+1)
	if err := e.InsertData(many); err != nil {
		t.Fatal(err)
	}
	answer(false, base+len(many))
	answer(true, base+len(many))

	if err := e.UpdateSchema([]rdf.Triple{rdf.NewTriple(ex("Person"), rdf.SubClassOf, ex("Publication"))}); err != nil {
		t.Fatal(err)
	}
	q = mustQuery(t, e.Graph(), `q(x) :- x rdf:type ex:Publication`)
	answer(false, base+len(many)+1)
}

// Versions are not pinned: after K alternating inserts and reads, with a
// GCov plan searched on every version and the earlier ones hit again, no
// store but the current version's is reachable. A cached plan that kept the
// source it was searched on fails this, and so does a version that held on
// to its basis after building on it.
func TestVersionsAreNotPinned(t *testing.T) {
	e, g := mustEngine(t)
	e.Metrics = metrics.NewRegistry()
	const k = 12
	var grow []rdf.Triple
	for i := 0; i < 8*k; i++ { // k single-triple writes stay within maxDrift of this
		grow = append(grow, rdf.NewTriple(ex(fmt.Sprintf("doiG%d", i)), rdf.Type, ex("Book")))
	}
	if err := e.InsertData(grow); err != nil {
		t.Fatal(err)
	}
	var freed atomic.Int32
	for i := 0; i < k; i++ {
		if err := e.InsertData([]rdf.Triple{rdf.NewTriple(ex(fmt.Sprintf("doiP%d", i)), rdf.Type, ex("Book"))}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= i; j++ { // one new plan, i hits: the variable's name is part of the shape
			q := mustQuery(t, g, fmt.Sprintf(`q(x) :- x rdf:type ex:Publication, x ex:hasTitle y%d`, j))
			if _, err := e.AnswerContext(context.Background(), q, RefGCov); err != nil {
				t.Fatal(err)
			}
		}
		if i < k-1 {
			runtime.SetFinalizer(e.Store(), func(*shard.Store) { freed.Add(1) })
		}
	}
	c := e.Metrics.Snapshot().Counters
	if c["plancache.hit"] != k*(k-1)/2 || c["engine.derived.applied"] < k-1 {
		t.Fatalf("%d plan-cache hits and %d versions built on a delta over %d writes: nothing was carried, so the test shows nothing",
			c["plancache.hit"], c["engine.derived.applied"], k)
	}
	// A finalizer runs some time after the collection that found its object.
	for i := 0; i < 100 && freed.Load() < k-1; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if freed.Load() < k-1 {
		t.Fatalf("%d of the %d earlier versions' stores were freed", freed.Load(), k-1)
	}
	runtime.KeepAlive(e)
}
