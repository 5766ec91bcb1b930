package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"text/tabwriter"
)

// spec is BENCHMARK.json, read from the working directory.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// child runs one workload in a process of its own — its heap, GC pacing
// and caches start fresh — and returns the result line it printed.
func child(name string, seed int64, seconds float64, traced int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return &res, nil
}

// runSuite runs every workload untraced, then traced, and prints one table
// per mode: a row per metric, a column per workload.
func runSuite(seed int64, seconds float64) error {
	ok := true
	for traced, list := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		results := map[string]*result{}
		for _, w := range workloads {
			res, err := child(w.name, seed, seconds, traced)
			if err != nil {
				return err
			}
			results[w.name] = res
			ok = ok && res.Correct
		}
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprint(tw, "metric\tunit\t")
		for _, w := range workloads {
			fmt.Fprint(tw, w.name, "\t")
		}
		fmt.Fprintln(tw)
		for _, m := range list {
			fmt.Fprint(tw, m.name, "\t", m.unit, "\t")
			for _, w := range workloads {
				fmt.Fprintf(tw, "%.4g\t", results[w.name].Metrics[m.name].Value)
			}
			fmt.Fprintln(tw)
		}
		fmt.Fprint(tw, "failed/attempted\t\t")
		for _, w := range workloads {
			fmt.Fprintf(tw, "%d/%d\t", results[w.name].Failed, results[w.name].Attempted)
		}
		fmt.Fprintln(tw)
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Println()
	}
	if !ok {
		return fmt.Errorf("a workload produced wrong answers or failed ops")
	}
	return nil
}

// iqr is the distance between the first and the third quartile as Python's
// statistics.quantiles(xs, n=4) computes them — the driver's measure of
// spread. It needs at least two values.
func iqr(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	quartile := func(i int) float64 {
		j, delta := i*(len(s)+1)/4, i*(len(s)+1)%4
		j = max(1, min(j, len(s)-1))
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return quartile(3) - quartile(1)
}

// runSelfcheck is the noise gate: the untraced suite, runs times over, must
// agree with itself. For every end-to-end metric on every workload it
// prints min, median, max and the spread as a share of the median — the
// interquartile range, as the driver takes it, from four runs on, the whole
// range below — and it fails when a spread exceeds the metric's bound in
// BENCHMARK.json.
func runSelfcheck(seed int64, seconds float64, runs int) error {
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	values := map[string][]float64{} // "workload metric" -> one value per run
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			res, err := child(w.name, seed, seconds, 0)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: run %d: wrong answers or failed ops (%d of %d)", w.name, i+1, res.Failed, res.Attempted)
			}
			for _, m := range sp.EndToEnd {
				key := w.name + " " + m.Name
				values[key] = append(values[key], res.Metrics[m.Name].Value)
			}
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmin\tmedian\tmax\tspread\tbound\t\t")
	noisy := 0
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			xs := values[w.name+" "+m.Name]
			lo, mid, hi := percentile(xs, 0), median(xs), percentile(xs, 1)
			spread := ratio(hi-lo, mid)
			if runs >= 4 {
				spread = ratio(iqr(xs), mid)
			}
			verdict := "ok"
			if spread > m.Bound {
				verdict = "NOISY"
				noisy++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.1f%%\t%.0f%%\t%s\t\n",
				w.name, m.Name, lo, mid, hi, 100*spread, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if noisy > 0 {
		return fmt.Errorf("%d metric × workload pairs spread wider than their bound over %d runs", noisy, runs)
	}
	return nil
}
