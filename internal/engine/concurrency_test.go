package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/viewcache"
)

// Concurrent Answer calls through per-request shallow copies of one
// engine must be safe: the copies share the warmed reformulation caches,
// the plan cache and the metrics registry (the same sharing the HTTP
// endpoint relies on). Run under -race.
func TestConcurrentAnswerSharedCaches(t *testing.T) {
	e, g := mustEngine(t)
	e.Metrics = metrics.NewRegistry()
	q := mustQuery(t, g, "q(x,y) :- x ex:hasAuthor z, z ex:hasName y")

	// Warm lazily-built state once so the copies only read it.
	if _, err := e.AnswerContext(context.Background(), q, RefGCov); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				eng := *e // per-request shallow copy, as httpapi does
				eng.Budget.Timeout = 30 * time.Second
				strategies := []Strategy{Sat, RefUCQ, RefSCQ, RefGCov, RefRange}
				s := strategies[(i+j)%len(strategies)]
				ans, err := eng.AnswerContext(context.Background(), q, s)
				if err != nil {
					errs <- err
					return
				}
				if ans.Rows.Len() != 1 {
					errs <- errWrongRows(s, ans.Rows.Len())
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := e.Metrics.Snapshot()
	if snap.Counters["engine.queries"] == 0 {
		t.Fatal("shared metrics registry recorded no queries")
	}
}

type wrongRowsError struct {
	s Strategy
	n int
}

func (e wrongRowsError) Error() string {
	return "strategy " + string(e.s) + ": wrong row count"
}

func errWrongRows(s Strategy, n int) error { return wrongRowsError{s, n} }

// AnswerContext with an expired context surfaces a budget/cancellation
// error and records it in the registry.
func TestAnswerContextCanceled(t *testing.T) {
	e, g := mustEngine(t)
	e.Metrics = metrics.NewRegistry()
	q := mustQuery(t, g, "q(x) :- x rdf:type ex:Publication")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.AnswerContext(ctx, q, RefUCQ); err == nil {
		t.Fatal("want error from canceled context, got nil")
	}
	snap := e.Metrics.Snapshot()
	if snap.Counters["engine.canceled"] == 0 {
		t.Fatalf("engine.canceled not recorded: %+v", snap.Counters)
	}
	if snap.Counters["engine.errors"] == 0 {
		t.Fatalf("engine.errors not recorded: %+v", snap.Counters)
	}
}

// completeStrategies answers q with every complete strategy on eng and
// fails unless each returns want rows and all of them the same ones.
func completeStrategies(t *testing.T, where string, eng *Engine, q query.CQ, want int) {
	t.Helper()
	var first *Answer
	for _, s := range []Strategy{Sat, RefUCQ, RefSCQ, RefJUCQ, RefGCov, RefRange, Dat} {
		var ans *Answer
		var err error
		if s == RefJUCQ {
			ans, err = eng.AnswerWithCoverContext(context.Background(), q, query.Cover{{0}, {1}})
		} else {
			ans, err = eng.AnswerContext(context.Background(), q, s)
		}
		if err != nil {
			t.Fatalf("%s: %s: %v", where, s, err)
		}
		if first == nil {
			first = ans
		}
		if ans.Rows.Len() != want || !ans.Rows.Equal(first.Rows) {
			t.Fatalf("%s: %s answers %d rows, want the version's %d", where, s, ans.Rows.Len(), want)
		}
	}
}

// authored returns the write that adds one answer to authoredQuery.
func authored(name string) []rdf.Triple {
	return []rdf.Triple{rdf.NewTriple(ex(name), ex("writtenBy"), ex(name+"Author"))}
}

const authoredQuery = `q(x, y) :- x rdf:type ex:Publication, x ex:hasAuthor y`

// A copy taken before a write answers every complete strategy from its own
// version — whether it built its derived state before the write (warmed) or
// builds it after (unwarmed) — and the engine from the new one. With the view
// cache off nothing but the version decides. With it on, every fragment
// admitted, the copy and the engine share one cache, and whichever answers
// first fills it: each must still get its own version's rows, never a
// fragment the other evaluated.
func TestCopyAnswersFromItsVersion(t *testing.T) {
	for _, c := range []struct {
		views, engineFirst bool
	}{{false, false}, {true, false}, {true, true}} {
		for _, warm := range []bool{false, true} {
			name := fmt.Sprintf("views=%v/engineFirst=%v/warm=%v", c.views, c.engineFirst, warm)
			t.Run(name, func(t *testing.T) {
				e, g := mustEngine(t)
				if c.views {
					e.EnableViewCache(viewcache.Config{MinCost: -1})
				}
				q := mustQuery(t, g, authoredQuery)
				if warm {
					completeStrategies(t, "before the write", e, q, 1)
				}
				v1 := *e
				if err := e.InsertData(authored("doiW1")); err != nil {
					t.Fatal(err)
				}
				if c.engineFirst {
					completeStrategies(t, "engine", e, q, 2)
				}
				completeStrategies(t, "copy", &v1, q, 1)
				completeStrategies(t, "engine", e, q, 2)
			})
		}
	}
}

// The closure case: G∞ read, a write (the engine starts a counting closure),
// a copy, another write nobody read G∞ before. The copy's G∞ is read off the
// closure after that second write, and is still its own version's.
func TestCopyReadsItsVersionsClosure(t *testing.T) {
	e, g := mustEngine(t)
	q := mustQuery(t, g, authoredQuery)
	if _, err := e.AnswerContext(context.Background(), q, Sat); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertData(authored("doiW1")); err != nil {
		t.Fatal(err)
	}
	v1 := *e
	if err := e.InsertData(authored("doiW2")); err != nil {
		t.Fatal(err)
	}
	completeStrategies(t, "copy", &v1, q, 2)
	completeStrategies(t, "engine", e, q, 3)
}

// A reader that took its engine copy before an update finishes on the
// version it took, whatever the writer swaps in meanwhile: its answers — Sat
// and Dat included — and its store stay those of its version, although the
// plan it executes may have been cached by a reader of a later one. Run
// under -race.
func TestReaderKeepsItsVersionAcrossSwap(t *testing.T) {
	e, g := mustEngine(t)
	var grow []rdf.Triple
	for i := 0; i < 100; i++ { // so that the writes below carry plans and bases over
		grow = append(grow, rdf.NewTriple(ex(fmt.Sprintf("doiR%d", i)), rdf.Type, ex("Book")))
	}
	if err := e.InsertData(grow); err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, g, "q(x) :- x rdf:type ex:Publication")

	var (
		published atomic.Pointer[Engine] // the writer publishes each version here, as the Engine contract asks
		wg        sync.WaitGroup
		errs      = make(chan error, 8)
	)
	published.Store(e)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				eng := *published.Load()
				first, err := eng.AnswerContext(context.Background(), q, RefGCov) // builds what the version has not built yet
				if err != nil {
					errs <- err
					return
				}
				store := eng.Store()
				for i := 0; i < 10; i++ {
					ans, err := eng.AnswerContext(context.Background(), q, []Strategy{RefGCov, RefSCQ, Sat, Dat}[(r+i)%4])
					if err != nil {
						errs <- err
						return
					}
					if ans.Rows.Len() != first.Rows.Len() || eng.Store() != store {
						errs <- fmt.Errorf("reader %d: %d rows, then %d on the same copy", r, first.Rows.Len(), ans.Rows.Len())
						return
					}
				}
			}
		}(r)
	}
	for i := 0; i < 40; i++ {
		next := *published.Load()
		if err := next.InsertData([]rdf.Triple{rdf.NewTriple(ex(fmt.Sprintf("doiS%d", i)), rdf.Type, ex("Book"))}); err != nil {
			t.Fatal(err)
		}
		published.Store(&next)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
