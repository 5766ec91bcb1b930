package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/lubm"
)

// The shape of a run. A run of --seconds s measures measuredRounds rounds of
// s/measuredRounds each, after one discarded warm-up round of the same
// length; set-up is repeated setupRuns times.
const (
	measuredRounds = 5
	setupRuns      = 3
)

// endToEnd lists the end-to-end metrics with their units, in reporting
// order. Every workload reports every one of them, and none can be 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"query_p50_ms", "ms"}, {"query_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"}, {"heap_live_mb", "MB"},
}

// config is what a run is given.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	// profile maps a workload's scale to its LUBM profile; tests shrink it.
	profile func(universities, departments int) lubm.Profile
	// roundPasses, when positive, ends every round after that many passes
	// over the script instead of by the clock; tests use it for exact
	// repeatability.
	roundPasses int
	// scratch is the directory data dirs and output files go under.
	scratch string
}

func (c config) limit(sc *script) limit {
	return limit{dur: time.Duration(c.seconds / measuredRounds * float64(time.Second)), ops: c.roundPasses * len(sc.order)}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many measurements are behind the value (run record
	// only; the result line carries value and unit).
	Samples int `json:"samples,omitempty"`
}

// outcome is everything a run found out.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	// diagnostics are unbounded extras for the run record: per-class
	// latencies, per-round values.
	diagnostics map[string]float64
	scriptSHA   string
	opsPerRound []int
	firstErr    error
}

// prepared is a workload set up and verified, ready to be driven.
type prepared struct {
	w      workload
	cfg    config
	sc     *script
	st     *stack
	setups []float64 // seconds at nominal machine speed, one per set-up run
	tr     *tracer   // traced runs only
}

func (p *prepared) close() {
	p.st.close()
	if p.tr != nil {
		p.tr.shadow.close()
	}
}

// prepare generates the inputs from the seed, sets the stack up (timing
// it), and verifies the script's answers.
func prepare(w workload, cfg config) (*prepared, error) {
	triples := generate(cfg.profile(w.universities, w.departments), cfg.seed)
	sc := w.build(newCatalog(triples), rand.New(rand.NewSource(cfg.seed)))
	p := &prepared{w: w, cfg: cfg, sc: sc}
	runs := setupRuns
	if cfg.traced {
		runs = 1 // set-up time is an end-to-end metric; the traced run reports none
	}
	ref := newReference()
	if cfg.roundPasses > 0 {
		ref.aroundFor = 0
	}
	for i := 0; i < runs; i++ {
		if p.st != nil {
			p.st.close()
			p.st = nil
		}
		settle()
		var err error
		took := ref.normalized(func() {
			p.st, err = boot(w, triples, filepath.Join(cfg.scratch, fmt.Sprintf("data-%d-%d", os.Getpid(), i)))
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setups = append(p.setups, took.Seconds())
	}
	if cfg.traced {
		tr, err := newTracer(w, triples, filepath.Join(cfg.scratch, fmt.Sprintf("data-%d-shadow", os.Getpid())), ref)
		if err != nil {
			p.st.close()
			return nil, err
		}
		p.tr = tr
	}
	if err := verify(p.st, sc, w); err != nil {
		p.close()
		return nil, fmt.Errorf("verification: %w", err)
	}
	return p, nil
}

// count adds a round to the outcome's op counts.
func (o *outcome) count(r *round) {
	o.attempted += r.ops()
	o.failed += r.failed
	o.opsPerRound = append(o.opsPerRound, r.ops())
	if o.firstErr == nil {
		o.firstErr = r.firstErr
	}
}

// measure is the untraced run: warm-up, the measured rounds, and the
// end-to-end metrics, each the median over the rounds. All times are on a
// machine of nominal speed (reference.go).
func measure(p *prepared) *outcome {
	out := &outcome{metrics: map[string]metric{}, diagnostics: map[string]float64{}, scriptSHA: p.sc.digest()}
	rn := newRunner(p.st, p.sc, p.w.block)
	lim := p.cfg.limit(p.sc)
	rn.run(lim) // warm-up: caches fill, lazy set-up finishes
	var (
		rounds                         []round
		rate, cpuPerOp, speed, rawRate []float64
		queries, updates               [][]float64
	)
	for i := 0; i < measuredRounds; i++ {
		settle()
		r := rn.run(lim)
		out.count(&r)
		rounds = append(rounds, r)
		if n := len(r.samples); n > 0 {
			rate = append(rate, float64(n)/r.wall.Seconds())
			cpuPerOp = append(cpuPerOp, float64(r.cpu)/float64(time.Millisecond)/float64(n))
			rawRate = append(rawRate, float64(n)/r.rawWall.Seconds())
			speed = append(speed, r.speed())
		}
		queries = append(queries, r.latencies(p.sc, true))
		updates = append(updates, r.latencies(p.sc, false))
	}
	rn.ref = nil // the reference buffers are the benchmark's, not the server's
	settle()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(p)

	p50, n := roundPercentile(queries, 0.50)
	p95, _ := roundPercentile(queries, 0.95)
	values := map[string]metric{
		"setup_s":       {Value: median(p.setups), Samples: len(p.setups)},
		"ops_per_s":     {Value: median(rate), Samples: len(rate)},
		"query_p50_ms":  {Value: p50, Samples: n},
		"query_p95_ms":  {Value: p95, Samples: n},
		"cpu_ms_per_op": {Value: median(cpuPerOp), Samples: len(cpuPerOp)},
		"heap_live_mb":  {Value: float64(ms.HeapAlloc) / (1 << 20), Samples: 1},
	}
	for _, m := range endToEnd {
		v := values[m.name]
		v.Unit = m.unit
		out.metrics[m.name] = v
	}

	if u, n := roundPercentile(updates, 0.50); n > 0 {
		out.diagnostics["update_p50_ms"] = u
	}
	classDiagnostics(out.diagnostics, p.sc, rounds)
	for i, r := range rate {
		out.diagnostics[fmt.Sprintf("round%d.ops_per_s", i+1)] = r
	}
	// What the machine did, and what the clock said before normalizing.
	out.diagnostics["machine_speed"] = median(speed)
	out.diagnostics["wall_clock.ops_per_s"] = median(rawRate)
	out.correct = out.failed == 0
	return out
}

// classDiagnostics adds class.<template>.<strategy>.p50_ms, pooled over the
// rounds, so that a shift in a mixed percentile can be traced to one class.
func classDiagnostics(dst map[string]float64, sc *script, rounds []round) {
	byClass := map[string][]float64{}
	for _, r := range rounds {
		for _, s := range r.samples {
			c := sc.ops[s.op].class
			byClass[c] = append(byClass[c], s.ms)
		}
	}
	for c, xs := range byClass {
		dst["class."+c+".p50_ms"] = median(xs)
	}
}
