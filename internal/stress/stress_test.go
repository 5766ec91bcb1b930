// Package stress drives the serving stack's shared mutable state — the
// journal writer (with rotation), the view cache (with invalidation),
// the admission gate (with shedding) and the metrics registry — from
// many goroutines at once. CI runs the whole tree under -race, so this
// test is the dynamic complement to the lockorder analyzer: the
// analyzer proves the hierarchy statically, the race detector checks
// the same structures under real interleavings.
package stress

import (
	"context"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/viewcache"
)

// fragment builds the fragment query  head(v) :- v <p> <cls>.
func fragment(v string, p, cls dict.ID) query.CQ {
	return query.NewCQ([]string{v}, []query.Atom{
		{S: query.Variable(v), P: query.Constant(p), O: query.Constant(cls)},
	})
}

func TestServingStackConcurrently(t *testing.T) {
	reg := metrics.NewRegistry()
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	w, err := journal.New(journal.Config{
		Path:        jpath,
		MaxBytes:    2 << 10, // rotate every couple of KiB
		MaxSegments: 3,
		QueueDepth:  64,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatalf("journal.New: %v", err)
	}
	cache := viewcache.New(viewcache.Config{MaxBytes: 1 << 20, MinCost: -1, Shards: 4, Metrics: reg})
	// One slot, no wait queue: every overlapping acquisition sheds, which
	// is exactly the contention this test wants to provoke.
	gate := admission.New(admission.Config{MaxConcurrency: 1, QueueDepth: -1, Metrics: reg})
	slo := metrics.NewSLOTracker(metrics.DefaultSLO, reg)

	// queryText is sized so a few dozen recorded entries overflow
	// MaxBytes and force rotations while the workers are still running.
	queryText := "q(x, y) :- x rdf:type ub:Student, x ub:advisor y  # " + strings.Repeat("pad ", 40)

	done := make(chan struct{})
	var aux sync.WaitGroup

	// Invalidator: generation bumps race lookups and in-flight evals.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-done:
				return
			default:
				cache.Invalidate()
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	// Publisher: burn-rate publishing and Prometheus rendering race
	// every concurrent counter/gauge/histogram writer.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-done:
				return
			default:
				slo.Publish(time.Now())
				if err := metrics.WritePrometheus(io.Discard, reg); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	const workers = 8
	const iters = 200
	var admitted, shed atomic.Int64
	ctx := context.Background()
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tk, err := gate.Acquire(ctx, 1)
				if err != nil {
					shed.Add(1)
					slo.Observe("stress", 1, false, time.Now())
					continue
				}
				admitted.Add(1)
				q := fragment("x", dict.ID(10+wkr), dict.ID(20+i%7))
				r, _, err := cache.GetOrEval(q, "", func() float64 { return 1000 }, nil,
					func() (*exec.Relation, error) {
						rel := exec.NewRelation([]string{"x"})
						for j := 0; j < 8; j++ {
							rel.Append([]dict.ID{dict.ID(j + 1)})
						}
						return rel, nil
					})
				if err != nil {
					t.Errorf("GetOrEval: %v", err)
					tk.Release()
					return
				}
				w.Record(journal.Entry{
					Time:     time.Now(),
					Query:    queryText,
					Sig:      "stress",
					Strategy: "stress",
					Outcome:  journal.OutcomeOK,
					Rows:     r.Len(),
				})
				slo.Observe("stress", 0.5, true, time.Now())
				time.Sleep(20 * time.Microsecond) // hold the slot so peers collide
				tk.Release()
			}
		}(wkr)
	}
	wg.Wait()
	close(done)
	aux.Wait()

	if admitted.Load() == 0 {
		t.Fatalf("gate admitted nothing across %d attempts", workers*iters)
	}
	if shed.Load() == 0 {
		t.Fatalf("gate shed nothing: %d workers never overlapped on one slot", workers)
	}

	// A serial tail of records (no queue pressure, so none drop)
	// guarantees the rotation threshold is crossed no matter how many
	// concurrent records the bounded queue dropped.
	for i := 0; i < 32; i++ {
		w.Record(journal.Entry{Time: time.Now(), Query: queryText, Sig: "tail", Strategy: "stress", Outcome: journal.OutcomeOK})
	}
	if err := w.Close(); err != nil {
		t.Fatalf("journal Close: %v", err)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("journal writer error: %v", err)
	}
	segs, err := filepath.Glob(jpath + ".*")
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	if len(segs) == 0 {
		t.Fatalf("journal never rotated despite MaxBytes=2KiB")
	}
	// Record after Close must be a silent drop, not a panic or a race.
	w.Record(journal.Entry{Time: time.Now(), Query: "late", Strategy: "stress", Outcome: journal.OutcomeOK})
}
