package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Every strategy must pass through a configured gate: a saturated gate
// with no queue sheds the query with ErrRejected, and the engine counts
// the shed.
func TestAdmissionShedsEveryStrategy(t *testing.T) {
	e, g := mustEngine(t)
	e.Metrics = metrics.NewRegistry()
	gate := admission.New(admission.Config{MaxConcurrency: 1, QueueDepth: 0})
	e.Admission = gate
	q := mustQuery(t, g, `q(x3) :- x1 ex:hasAuthor x2, x2 ex:hasName x3, x1 x4 "1949"`)

	blocker, err := gate.Acquire(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sheds := 0
	for _, s := range []Strategy{Sat, RefUCQ, RefSCQ, RefGCov, Dat} {
		_, err := e.AnswerContext(context.Background(), q, s)
		if !errors.Is(err, admission.ErrRejected) {
			t.Fatalf("%s: err = %v, want ErrRejected", s, err)
		}
		sheds++
	}
	blocker.Release()

	snap := e.Metrics.Snapshot()
	if got := snap.Counters["engine.shed"]; got != int64(sheds) {
		t.Fatalf("engine.shed = %d, want %d", got, sheds)
	}
	// Once the blocker releases, the same queries pass.
	for _, s := range []Strategy{Sat, RefUCQ, RefSCQ, RefGCov, Dat} {
		ans, err := e.AnswerContext(context.Background(), q, s)
		if err != nil {
			t.Fatalf("%s after release: %v", s, err)
		}
		if ans.Rows.Len() != 1 {
			t.Fatalf("%s: %d rows, want 1", s, ans.Rows.Len())
		}
		if ans.AdmissionWeight < 1 {
			t.Fatalf("%s: AdmissionWeight = %d, want >= 1", s, ans.AdmissionWeight)
		}
	}
}

// An admitted answer carries its queue wait, and the answer trace grows
// an "admission" child span recording the estimate and weight.
func TestAdmissionSpanAndAnswerStamp(t *testing.T) {
	e, g := mustEngine(t)
	e.Admission = admission.New(admission.Config{MaxConcurrency: 4})
	e.Tracer = trace.New(0)
	q := mustQuery(t, g, `q(x) :- x rdf:type ex:Publication`)
	ans, err := e.AnswerContext(context.Background(), q, RefGCov)
	if err != nil {
		t.Fatal(err)
	}
	if ans.AdmissionWeight != 1 {
		t.Fatalf("AdmissionWeight = %d, want 1 (cheap query)", ans.AdmissionWeight)
	}
	root := trace.ToJSON(e.Tracer.Root())
	asp := root.Find("admission")
	if asp == nil {
		t.Fatal("no admission span under the answer span")
	}
	if _, ok := asp.Attrs["est_cost"]; !ok {
		t.Fatalf("admission span missing est_cost: %+v", asp.Attrs)
	}
	if _, ok := asp.Attrs["weight"]; !ok {
		t.Fatalf("admission span missing weight: %+v", asp.Attrs)
	}
}

// Per-request engine copies share the gate by pointer, so the gate's
// budget bounds evaluations across all copies. Run under -race.
func TestAdmissionBoundsConcurrentCopies(t *testing.T) {
	e, g := mustEngine(t)
	e.Metrics = metrics.NewRegistry()
	gate := admission.New(admission.Config{
		MaxConcurrency: 2,
		QueueDepth:     64,
		QueueTimeout:   10 * time.Second,
		Metrics:        e.Metrics,
	})
	e.Admission = gate
	q := mustQuery(t, g, "q(x,y) :- x ex:hasAuthor z, z ex:hasName y")
	if _, err := e.AnswerContext(context.Background(), q, RefGCov); err != nil { // warm caches
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := *e // per-request shallow copy, as httpapi does
			ans, err := eng.AnswerContext(context.Background(), q, RefGCov)
			if err != nil {
				errs <- err
				return
			}
			if ans.Rows.Len() != 1 {
				errs <- errWrongRows(RefGCov, ans.Rows.Len())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if hw := gate.HighWater(); hw > 2 {
		t.Fatalf("in-flight weight high water %d exceeds budget 2", hw)
	}
	snap := e.Metrics.Snapshot()
	if got := snap.Counters["admission.admitted"]; got < 32 {
		t.Fatalf("admission.admitted = %d, want >= 32", got)
	}
}

// A query whose estimate exceeds the cost ceiling is shed before any
// evaluation work starts.
func TestAdmissionCostCeiling(t *testing.T) {
	e, g := mustEngine(t)
	e.Admission = admission.New(admission.Config{MaxConcurrency: 4, MaxCost: 1e-9})
	q := mustQuery(t, g, `q(x) :- x rdf:type ex:Publication`)
	_, err := e.AnswerContext(context.Background(), q, RefGCov)
	if !errors.Is(err, admission.ErrCostCeiling) {
		t.Fatalf("err = %v, want ErrCostCeiling", err)
	}
}
