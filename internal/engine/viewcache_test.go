package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/testutil"
	"repro/internal/viewcache"
)

// TestViewCacheAnswersMatchUncached: with the view cache enabled, cold and
// warm answers must equal an uncached engine's answers — the cache is an
// optimization, never a semantics change.
func TestViewCacheAnswersMatchUncached(t *testing.T) {
	cached, g := mustEngine(t)
	cached.EnableViewCache(viewcache.Config{MinCost: -1}) // admit everything
	plain := New(g)
	queries := []string{
		`q(x) :- x rdf:type ex:Publication`,
		`q(x, y) :- x ex:hasAuthor z, z ex:hasName y`,
		`q(x) :- x rdf:type ex:Book, x ex:hasTitle y`,
	}
	for _, text := range queries {
		q := mustQuery(t, g, text)
		for _, s := range []Strategy{RefSCQ, RefGCov} {
			want, err := plain.AnswerContext(context.Background(), q, s)
			if err != nil {
				t.Fatalf("%s %s uncached: %v", text, s, err)
			}
			for pass := 0; pass < 2; pass++ { // cold then warm
				got, err := cached.AnswerContext(context.Background(), q, s)
				if err != nil {
					t.Fatalf("%s %s cached pass %d: %v", text, s, pass, err)
				}
				if !got.Rows.Equal(want.Rows) {
					t.Fatalf("%s %s pass %d: cached %d rows != uncached %d rows",
						text, s, pass, got.Rows.Len(), want.Rows.Len())
				}
			}
		}
	}
	if cached.ViewCache().Len() == 0 {
		t.Fatal("view cache admitted nothing; the equivalence check exercised nothing")
	}
}

// TestViewCacheAnswersMatchUncachedRandom: property-style check over random
// scenarios and random update interleavings — immediately after every
// insert/delete, the cached engine must agree with a freshly built engine
// over the same data (a stale fragment would surface as a row mismatch).
func TestViewCacheAnswersMatchUncachedRandom(t *testing.T) {
	iters := 8
	if testing.Short() {
		iters = 3
	}
	for seed := 0; seed < iters; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(77000 + seed)))
			sc, err := testutil.RandomScenario(rng)
			if err != nil {
				t.Fatal(err)
			}
			e := New(sc.Graph)
			e.EnableViewCache(viewcache.Config{MinCost: -1})
			q := sc.RandomQuery(rng)
			decoded := sc.Graph.DecodedData()
			if len(decoded) == 0 {
				t.Skip("empty scenario")
			}
			check := func(step string) {
				fresh := New(e.Graph())
				for _, s := range []Strategy{RefSCQ, RefGCov} {
					a, err := e.AnswerContext(context.Background(), q, s)
					if err != nil {
						t.Fatalf("%s %s cached: %v", step, s, err)
					}
					b, err := fresh.AnswerContext(context.Background(), q, s)
					if err != nil {
						t.Fatalf("%s %s fresh: %v", step, s, err)
					}
					if !a.Rows.Equal(b.Rows) {
						t.Fatalf("%s %s: cached %d rows != fresh %d rows",
							step, s, a.Rows.Len(), b.Rows.Len())
					}
				}
			}
			check("initial")
			check("warm") // second pass over a warmed cache
			for step := 0; step < 5; step++ {
				tr := decoded[rng.Intn(len(decoded))]
				if rng.Intn(2) == 0 {
					if _, err := e.DeleteData([]rdf.Triple{tr}); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := e.InsertData([]rdf.Triple{tr}); err != nil {
						t.Fatal(err)
					}
				}
				check(fmt.Sprintf("step=%d", step))
			}
		})
	}
}

// TestViewCacheConcurrentUpdatesNoStaleReads interleaves InsertData /
// DeleteData with concurrent AnswerContext calls (run under -race). Writers
// publish each version through an atomic pointer and readers copy the one
// they load, with no lock between them — the engine's documented contract —
// so readers of several versions share the cache at once; the assertion is
// that each answer reflects exactly its version, i.e. the view cache never
// serves a fragment of another version, older or newer.
func TestViewCacheConcurrentUpdatesNoStaleReads(t *testing.T) {
	e, g := mustEngine(t)
	e.EnableViewCache(viewcache.Config{MinCost: -1})
	q := mustQuery(t, g, `q(x) :- x rdf:type ex:Publication`)
	ex := func(n string) rdf.Term { return rdf.NewIRI("http://example.org/" + n) }

	const (
		writers    = 2
		readers    = 6
		iterations = 15
	)
	// version is a published engine and the Publications it holds:
	// ex:doi1, always a Book, plus the extra ex:doiN inserted.
	type version struct {
		e    *Engine
		want int
	}
	var (
		mu        sync.Mutex // serializes the writers
		present   = map[int]bool{}
		published atomic.Pointer[version]
	)
	published.Store(&version{e, 1})
	errs := make(chan error, writers+readers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 100 + w
			for i := 0; i < iterations; i++ {
				tr := rdf.NewTriple(ex(fmt.Sprintf("doi%d", n)), rdf.Type, ex("Book"))
				mu.Lock()
				cur := published.Load()
				next, want := *cur.e, cur.want+1
				var err error
				if present[n] {
					_, err = next.DeleteData([]rdf.Triple{tr})
					want = cur.want - 1
				} else {
					err = next.InsertData([]rdf.Triple{tr})
				}
				if err == nil {
					present[n] = !present[n]
					published.Store(&version{&next, want})
				}
				mu.Unlock()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			strategies := []Strategy{RefSCQ, RefGCov}
			for i := 0; i < iterations; i++ {
				s := strategies[(r+i)%len(strategies)]
				v := published.Load()
				want := v.want
				eng := *v.e // per-request shallow copy, as httpapi does
				eng.Budget.Timeout = 30 * time.Second
				ans, err := eng.AnswerContext(context.Background(), q, s)
				if err != nil {
					errs <- err
					return
				}
				if ans.Rows.Len() != want {
					errs <- fmt.Errorf("%s: got %d Publications, want %d — stale fragment served",
						s, ans.Rows.Len(), want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
