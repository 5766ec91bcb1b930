// Command benchmark (refperf) measures the serving stack of cmd/refserve
// in-process: it boots the stack as refserve wires it and drives
// httpapi.Server.ServeHTTP with an in-memory ResponseWriter.
//
//	go run ./benchmark -workload join_scan -seed 7 -seconds 15 -trace 0
//	go run ./benchmark                      # all workloads, untraced then traced
//	go run ./benchmark -selfcheck -runs 10  # noise gate against BENCHMARK.json
//
// With -workload it runs that workload in this process and prints, as the
// last line of standard output, one JSON object: correct, attempted, failed
// and the metrics — the end-to-end ones with -trace 0, the per-layer ones
// with -trace 1. Everything else goes to standard error and to
// .bench_build/refperf/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// scratchDir holds data directories while a run lasts, and the run records
// and traces it leaves. It is relative to the working directory, the root
// of the checkout.
const scratchDir = ".bench_build/refperf"

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 15

func main() {
	var (
		name      = flag.String("workload", "", "workload to run in this process (empty: every workload, each in a process of its own)")
		seed      = flag.Int64("seed", 42, "seed the generated data and the op script derive from")
		seconds   = flag.Float64("seconds", defaultSeconds, "measured time: five rounds of a fifth each")
		traced    = flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite -runs times and fail if two runs disagree by more than a metric's bound")
		runs      = flag.Int("runs", 2, "suite repetitions for -selfcheck (2 to 10)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) || *runs < 2 || *runs > 10 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *name != "":
		err = runOne(*name, *seed, *seconds, *traced == 1)
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds, *runs)
	default:
		err = runSuite(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "refperf:", err)
		os.Exit(1)
	}
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the run record kept next to the result line.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Traced      bool               `json:"traced"`
	Commit      string             `json:"commit"`
	GoVersion   string             `json:"go_version"`
	NProc       int                `json:"nproc"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	WallSeconds float64            `json:"wall_seconds"`
	OpsPerRound []int              `json:"ops_per_round"`
	ScriptSHA   string             `json:"script_sha256"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FirstError  string             `json:"first_error,omitempty"`
	Metrics     map[string]metric  `json:"metrics"`
	Diagnostics map[string]float64 `json:"diagnostics"`
}

// commit is the revision the binary was built from, when the build saw one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runOne runs one workload in this process.
func runOne(name string, seed int64, seconds float64, traced bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	// A fixed thread count keeps the server's GC and scatter parallelism
	// the same on a larger machine; the client itself needs one.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	p, err := prepare(w, config{seed: seed, seconds: seconds, traced: traced, profile: pinnedProfile, scratch: scratchDir})
	if err != nil {
		return err
	}
	defer p.close()
	var out *outcome
	if traced {
		if out, err = measureTraced(p); err != nil {
			return err
		}
	} else {
		out = measure(p)
	}

	rec := record{
		Workload: name, Seed: seed, Seconds: seconds, Traced: traced,
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		WallSeconds: time.Since(start).Seconds(), OpsPerRound: out.opsPerRound, ScriptSHA: out.scriptSHA,
		Correct: out.correct, Attempted: out.attempted, Failed: out.failed,
		Metrics: out.metrics, Diagnostics: out.diagnostics,
	}
	if out.firstErr != nil {
		rec.FirstError = out.firstErr.Error()
		fmt.Fprintln(os.Stderr, "refperf: first failure:", out.firstErr)
	}
	mode := 0
	if traced {
		mode = 1
	}
	if raw, err := json.MarshalIndent(rec, "", "  "); err == nil {
		path := filepath.Join(scratchDir, fmt.Sprintf("run-%s-trace%d.json", name, mode))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "refperf: run record not written:", err)
		}
	}
	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]resultValue{}}
	for k, m := range out.metrics {
		res.Metrics[k] = resultValue{m.Value, m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}
