package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/viewcache"
)

func ex(n string) rdf.Term { return rdf.NewIRI("http://example.org/" + n) }

func TestUpdateSchemaRejectsNonSchemaTriples(t *testing.T) {
	e, _ := mustEngine(t)
	data := rdf.NewTriple(ex("doi9"), rdf.Type, ex("Book"))
	if err := e.UpdateSchema([]rdf.Triple{data}); err == nil {
		t.Fatal("instance triple accepted by UpdateSchema")
	}
	if err := e.UpdateSchema([]rdf.Triple{{}}); err == nil {
		t.Fatal("ill-formed triple accepted by UpdateSchema")
	}
}

// TestUpdateSchemaInvalidatesViewCacheAndPlans is the stale-fragment
// regression test: answer a query with the view cache enabled, edit the
// TBox so the same textual query has more answers, re-answer — the second
// answer must reflect the new schema, for every strategy, including the
// interval-encoded ref-range (whose dictionary the update re-encodes).
func TestUpdateSchemaInvalidatesViewCacheAndPlans(t *testing.T) {
	e, g := mustEngine(t)
	e.EnableViewCache(viewcache.Config{MinCost: -1}) // admit everything
	text := `q(x) :- x rdf:type ex:Publication`
	q := mustQuery(t, g, text)

	strategies := []Strategy{RefSCQ, RefGCov, RefRange}
	before := map[Strategy]int{}
	for _, s := range strategies {
		for pass := 0; pass < 2; pass++ { // cold then warm: populate fragments
			a, err := e.AnswerContext(context.Background(), q, s)
			if err != nil {
				t.Fatalf("%s pass %d: %v", s, pass, err)
			}
			before[s] = a.Rows.Len()
		}
	}
	if e.ViewCache().Len() == 0 {
		t.Fatal("view cache admitted nothing; the invalidation check would be vacuous")
	}

	// TBox edit: every Person becomes a Publication. _:b1 is a Person via
	// range(writtenBy), so the query gains answers.
	add := []rdf.Triple{rdf.NewTriple(ex("Person"), rdf.SubClassOf, ex("Publication"))}
	if err := e.UpdateSchema(add); err != nil {
		t.Fatal(err)
	}

	// The update re-encoded the dictionary; re-parse the same textual query
	// against the rebuilt graph, as a client re-submitting it would.
	q2 := mustQuery(t, e.Graph(), text)
	fresh := New(e.Graph())
	for _, s := range strategies {
		want, err := fresh.AnswerContext(context.Background(), q2, s)
		if err != nil {
			t.Fatalf("%s fresh: %v", s, err)
		}
		got, err := e.AnswerContext(context.Background(), q2, s)
		if err != nil {
			t.Fatalf("%s after update: %v", s, err)
		}
		if !got.Rows.Equal(want.Rows) {
			t.Fatalf("%s: stale answer after schema update: %d rows, fresh engine has %d",
				s, got.Rows.Len(), want.Rows.Len())
		}
		if got.Rows.Len() <= before[s] {
			t.Fatalf("%s: schema edit not visible: %d rows before, %d after",
				s, before[s], got.Rows.Len())
		}
	}
}

// TestUpdateSchemaConcurrentNoStaleReads interleaves TBox updates and data
// inserts with concurrent queries (run under -race). Writers publish each
// version through an atomic pointer and readers copy the one they load, with
// no lock between them — the engine's documented contract; the assertion is
// that a reader, parsing with its version's dictionary, counts exactly the
// Publications of that version, i.e. no cache layer serves results of
// another version across a schema change.
//
// The readers also pin how derived state is shared: every engine copy taken
// between the same two writes must get the very same store, statistics, cost
// models and range reformulator — built once by whichever copy asked first,
// not once per copy — and the test ends with eight copies racing the first
// use of a version no one has touched yet.
func TestUpdateSchemaConcurrentNoStaleReads(t *testing.T) {
	e, _ := mustEngine(t)
	e.EnableViewCache(viewcache.Config{MinCost: -1})
	text := `q(x) :- x rdf:type ex:Publication`

	const iterations = 6
	// version is a published engine and the Publications it holds; every
	// write publishes one more, so the count names the version.
	type version struct {
		e    *Engine
		want int
	}
	var (
		mu        sync.Mutex // serializes the writers
		published atomic.Pointer[version]
	)
	published.Store(&version{e, 1}) // ex:doi1 is a Book, hence a Publication
	// write applies one write to a copy of the published engine and
	// publishes it.
	write := func(apply func(next *Engine) error) error {
		mu.Lock()
		defer mu.Unlock()
		cur := published.Load()
		next := *cur.e
		if err := apply(&next); err != nil {
			return err
		}
		published.Store(&version{&next, cur.want + 1})
		return nil
	}
	errs := make(chan error, 2+8+8) // each goroutine sends at most one
	var wg sync.WaitGroup

	// artefacts are what one engine copy sees of the derived state; shared
	// checks that every copy of one version (identified by the expected
	// count, which every write bumps) sees the same ones.
	type artefacts struct {
		store    *shard.Store
		stats    *stats.Stats
		model    *cost.Model
		satModel *cost.Model
		rangeRef *core.RangeReformulator
	}
	var (
		seenMu sync.Mutex
		seen   = map[int]artefacts{}
	)
	shared := func(eng *Engine, version int) error {
		got := artefacts{eng.Store(), eng.Stats(), eng.CostModel(), eng.SatCostModel(), eng.RangeReformulator()}
		seenMu.Lock()
		defer seenMu.Unlock()
		if first, ok := seen[version]; ok && first != got {
			return fmt.Errorf("version %d: one copy got %+v, another %+v — derived state rebuilt per copy", version, first, got)
		}
		seen[version] = got
		return nil
	}

	// Schema writer: grafts a new subclass of Publication and one instance.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iterations; i++ {
			err := write(func(next *Engine) error {
				if err := next.UpdateSchema([]rdf.Triple{
					rdf.NewTriple(ex(fmt.Sprintf("Novel%d", i)), rdf.SubClassOf, ex("Publication")),
				}); err != nil {
					return err
				}
				return next.InsertData([]rdf.Triple{
					rdf.NewTriple(ex(fmt.Sprintf("nov%d", i)), rdf.Type, ex(fmt.Sprintf("Novel%d", i))),
				})
			})
			if err != nil {
				errs <- err
				return
			}
		}
	}()

	// Data writer: plain Book inserts between schema rebuilds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iterations; i++ {
			err := write(func(next *Engine) error {
				return next.InsertData([]rdf.Triple{
					rdf.NewTriple(ex(fmt.Sprintf("doiW%d", i)), rdf.Type, ex("Book")),
				})
			})
			if err != nil {
				errs <- err
				return
			}
		}
	}()

	for r := 0; r < 8; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			strategies := []Strategy{RefSCQ, RefRange}
			for i := 0; i < iterations*2; i++ {
				s := strategies[(r+i)%len(strategies)]
				v := published.Load()
				want := v.want
				eng := *v.e // per-request shallow copy, as httpapi does
				eng.Budget.Timeout = 30 * time.Second
				// Schema updates re-encode the dictionary, so the query is
				// parsed with the version's own, as the HTTP layer does.
				q, err := query.ParseRuleWithPrefixes(eng.Graph().Dict(),
					map[string]string{"ex": "http://example.org/"}, text)
				var ans *Answer
				if err == nil {
					ans, err = eng.AnswerContext(context.Background(), q, s)
				}
				if err == nil {
					err = shared(&eng, want)
				}
				if err != nil {
					errs <- err
					return
				}
				if ans.Rows.Len() != want {
					errs <- fmt.Errorf("%s: got %d Publications, want %d — stale state served",
						s, ans.Rows.Len(), want)
					return
				}
			}
		}()
	}
	wg.Wait()

	// One more write, then eight copies released at once onto a version
	// with nothing built.
	e = published.Load().e
	if err := e.InsertData([]rdf.Triple{rdf.NewTriple(ex("doiLast"), rdf.Type, ex("Book"))}); err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	for r := 0; r < 8; r++ {
		eng := *e
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := shared(&eng, -1); err != nil {
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
