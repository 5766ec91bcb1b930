// Package bench is the experiment harness: for every table, figure and
// quantitative claim of the paper it regenerates the corresponding rows
// (see DESIGN.md §5 for the experiment index E1–E6). Each experiment
// returns a structured result plus a formatted table, and is exercised both
// by cmd/refbench and by the repository's testing.B benchmarks.
package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/trace"
)

// Config parameterizes the experiments.
type Config struct {
	// Profile is the LUBM generation profile (default lubm.Default()).
	Profile lubm.Profile
	// Seed drives all generators.
	Seed int64
	// Timeout bounds each strategy evaluation; strategies that exceed it
	// are reported as infeasible, mirroring the paper's "could not be
	// evaluated" outcomes (0 = 30s).
	Timeout time.Duration
	// IncludeUCQ includes the full UCQ strategy in E1/E3 (slow).
	IncludeUCQ bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Profile.Universities == 0 {
		c.Profile = lubm.Default()
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// Table is a simple aligned text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row (values stringified).
func (t *Table) Add(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case time.Duration:
			row[i] = formatDuration(x)
		case float64:
			row[i] = fmt.Sprintf("%.0f", x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}

func formatDuration(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", float64(d)/float64(time.Second))
	}
}

// Run is one strategy execution: what was answered, how long each phase
// took, and whether it was feasible at all. Experiments embed Run in their
// JSON-serializable results (refbench -json writes them to BENCH_*.json).
type Run struct {
	Strategy engine.Strategy `json:"strategy"`
	CQs      int             `json:"cqs,omitempty"`
	Rows     int             `json:"rows"`
	Prep     time.Duration   `json:"prepNanos"`
	Eval     time.Duration   `json:"evalNanos"`
	// EvalRuns are the evaluation times of a repeated run (E1), whose Eval
	// is their median.
	EvalRuns []time.Duration `json:"evalRunsNanos,omitempty"`
	// Phases breaks the latency down by lifecycle phase (reformulate,
	// plan, eval), in milliseconds, summed from the span trace — so
	// reports show where time went, not just the end-to-end number.
	Phases map[string]float64 `json:"phasesMillis,omitempty"`
	Err    error              `json:"-"`
	Error  string             `json:"error,omitempty"`
}

// runPhases are the span names summed into Run.Phases.
var runPhases = []string{"reformulate", "plan", "eval"}

// runStrategy answers q with strategy s under the timeout, reporting
// infeasibility instead of failing. Each run gets a fresh tracer so the
// per-phase breakdown covers exactly this execution.
func runStrategy(e *engine.Engine, q queryHolder, s engine.Strategy, timeout time.Duration) Run {
	e.Budget = exec.Budget{Timeout: timeout}
	tr := trace.New(0)
	e.Tracer = tr
	defer func() {
		e.Budget = exec.Budget{}
		e.Tracer = nil
	}()
	var (
		ans *engine.Answer
		err error
	)
	//reflint:ctxbg experiment driver: nothing upstream cancels it, the timeout bounds each evaluation
	ctx := context.Background()
	if s == engine.RefJUCQ {
		ans, err = e.AnswerWithCoverContext(ctx, q.cq, q.cover)
	} else {
		ans, err = e.AnswerContext(ctx, q.cq, s)
	}
	if err != nil {
		return Run{Strategy: s, Err: err, Error: err.Error(), Phases: phaseBreakdown(tr)}
	}
	return Run{
		Strategy: s,
		CQs:      ans.ReformulationCQs,
		Rows:     ans.Rows.Len(),
		Prep:     ans.PrepTime,
		Eval:     ans.EvalTime,
		Phases:   phaseBreakdown(tr),
	}
}

func phaseBreakdown(tr *trace.Tracer) map[string]float64 {
	root := trace.ToJSON(tr.Root())
	if root == nil {
		return nil
	}
	phases := make(map[string]float64, len(runPhases))
	for _, name := range runPhases {
		if ms := root.PhaseMillis(name); ms > 0 {
			phases[name] = ms
		}
	}
	if len(phases) == 0 {
		return nil
	}
	return phases
}

// FormatPhases renders a Run's phase breakdown as a compact
// "reformulate 1.2ms · plan 0.3ms · eval 8.9ms" string ("" when absent).
func FormatPhases(p map[string]float64) string {
	var parts []string
	for _, name := range runPhases {
		if ms, ok := p[name]; ok {
			parts = append(parts, fmt.Sprintf("%s %s", name,
				formatDuration(time.Duration(ms*float64(time.Millisecond)))))
		}
	}
	return strings.Join(parts, " · ")
}

type queryHolder struct {
	cq    query.CQ
	cover query.Cover
}

// graphFromTriples builds a graph, kept here so experiment files stay free
// of direct graph-package imports.
func graphFromTriples(ts []rdf.Triple) (*graph.Graph, error) {
	return graph.FromTriples(ts)
}
