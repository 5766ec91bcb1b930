package main

import (
	"math/rand"
	"regexp"
	"testing"

	"repro/internal/lubm"
)

// miniProfile keeps the tests fast: the LUBM unit-test profile, whatever
// scale the workload asks for.
func miniProfile(int, int) lubm.Profile { return lubm.Mini() }

func miniConfig(t *testing.T, seed int64, traced bool) config {
	return config{seed: seed, seconds: 1, traced: traced, profile: miniProfile, roundPasses: 1, scratch: t.TempDir()}
}

func names(ms []struct{ name, unit string }) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.name)
	}
	return out
}

// TestSpecMatchesCode: BENCHMARK.json names exactly the workloads and
// metrics the program reports, under names the driver accepts.
func TestSpecMatchesCode(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if sp.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", sp.RunSeconds, defaultSeconds)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	same := func(what string, spec, code []string) {
		t.Helper()
		for _, n := range spec {
			if !valid.MatchString(n) {
				t.Errorf("%s name %q is not a valid name", what, n)
			}
		}
		if len(spec) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d, the program %d", what, len(spec), len(code))
		}
		for i := range spec {
			if spec[i] != code[i] {
				t.Errorf("%s %d: BENCHMARK.json %q, the program %q", what, i, spec[i], code[i])
			}
		}
	}
	var ws, wcode, e2e, layers []string
	for _, w := range sp.Workloads {
		ws = append(ws, w.Name)
	}
	for _, w := range workloads {
		wcode = append(wcode, w.name)
	}
	units := map[string]string{}
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		layers = append(layers, m.Name)
		units[m.Name] = m.Unit
	}
	same("workload", ws, wcode)
	same("end-to-end metric", e2e, names(endToEnd))
	same("per-layer metric", layers, names(perLayer))
	for _, m := range append(append([]struct{ name, unit string }{}, endToEnd...), perLayer...) {
		if units[m.name] != m.unit {
			t.Errorf("%s: BENCHMARK.json unit %q, the program %q", m.name, units[m.name], m.unit)
		}
	}
}

// TestScriptFromSeed: the op script is a function of the seed alone.
func TestScriptFromSeed(t *testing.T) {
	build := func(w workload, seed int64) string {
		triples := generate(miniProfile(0, 0), seed)
		return w.build(newCatalog(triples), rand.New(rand.NewSource(seed))).digest()
	}
	for _, w := range workloads {
		a, b, c := build(w, 1), build(w, 1), build(w, 2)
		if a != b {
			t.Errorf("%s: seed 1 gave two scripts (%.12s, %.12s)", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same script", w.name)
		}
	}
}

// exactCounts repeat exactly from run to run of the same seed when rounds
// are a fixed number of ops: they count work, not time.
var exactCounts = []string{
	"core.reformulation_cqs", "exec.rows_scanned_per_op", "exec.rows_joined_per_op", "exec.rows_unioned_per_op",
	"durable.wal_bytes_per_user_byte", "durable.fsyncs_per_update", "durable.disk_bytes_per_triple",
}

// TestSameSeedSameCounts runs every workload twice, traced, on the same
// seed, and once untraced.
func TestSameSeedSameCounts(t *testing.T) {
	for _, w := range workloads {
		run := func(traced bool) *outcome {
			t.Helper()
			p, err := prepare(w, miniConfig(t, 7, traced))
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			defer p.close()
			if !traced {
				return measure(p)
			}
			out, err := measureTraced(p)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			return out
		}
		a, b := run(true), run(true)
		for _, out := range []*outcome{a, b} {
			if !out.correct || out.failed != 0 || out.attempted == 0 {
				t.Fatalf("%s traced: correct %v, %d of %d ops failed: %v", w.name, out.correct, out.failed, out.attempted, out.firstErr)
			}
		}
		if a.scriptSHA != b.scriptSHA || a.attempted != b.attempted {
			t.Errorf("%s: runs differ: script %.12s / %.12s, ops %d / %d", w.name, a.scriptSHA, b.scriptSHA, a.attempted, b.attempted)
		}
		for _, name := range exactCounts {
			if a.metrics[name].Value != b.metrics[name].Value {
				t.Errorf("%s: %s = %v, then %v", w.name, name, a.metrics[name].Value, b.metrics[name].Value)
			}
		}
		if len(a.metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics, want the %d per-layer ones", w.name, len(a.metrics), len(perLayer))
		}
		u := run(false)
		if !u.correct || u.failed != 0 {
			t.Fatalf("%s untraced: correct %v, %d of %d ops failed: %v", w.name, u.correct, u.failed, u.attempted, u.firstErr)
		}
		if len(u.metrics) != len(endToEnd) {
			t.Errorf("%s untraced: %d metrics, want the %d end-to-end ones", w.name, len(u.metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if u.metrics[m.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want it above 0", w.name, m.name, u.metrics[m.name].Value)
			}
		}
	}
}

// TestIQRMatchesPython pins iqr to statistics.quantiles(xs, n=4).
func TestIQRMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5, 1, 9, 3, 7, 2, 8, 10, 4, 6.5}, 5.5},
		{[]float64{1, 2, 4, 8}, 5.75},
	} {
		if got := iqr(c.xs); got != c.want {
			t.Errorf("iqr(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
