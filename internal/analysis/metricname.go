package analysis

import (
	"go/ast"
	"go/constant"
	"regexp"
)

// Metricname guards the contract between metric registration sites and
// the Prometheus exposition in internal/metrics/prom.go: registry names
// are snake.dotted compile-time constants, so the set of time series is
// bounded and the dotted→family mapping stays total. A name built with
// fmt.Sprintf (or any other runtime value) can mint unbounded families —
// the classic cardinality explosion — and silently miss the label rules.
//
// Accepted name arguments at Registry.Counter/Gauge/FloatGauge/Histogram
// calls:
//
//   - a constant string matching
//     ^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$  (at least two segments);
//   - a constant string starting with one of the label-rule prefixes
//     below — the remainder is a label value, so path-like suffixes such
//     as "http.requests./query" are fine;
//   - `<label-rule prefix constant> + expr` — the dynamic suffix becomes
//     a label value drawn from a bounded set (strategy names, routes).
//
// Anything else needs `//reflint:metricname <reason>`. The prefix list
// mirrors promLabelRules in internal/metrics/prom.go; keep the two in
// sync when adding a rule.
var Metricname = &Analyzer{
	Name: "metricname",
	Doc:  "metric registration sites use constant snake.dotted names (label-rule prefixes may take a bounded dynamic suffix)",
	Run:  runMetricname,
}

// metricLabelPrefixes mirrors promLabelRules in internal/metrics/prom.go.
var metricLabelPrefixes = []string{
	"engine.queries.",
	"engine.latency_ms.",
	"http.requests.",
	"http.latency_ms.",
	"http.legacy_requests.",
	"viewcache.",
	"plancache.",
	"admission.",
	"journal.",
	"wal.",
	"recovery.",
	"slo.good.",
	"slo.bad.",
	"slo.burn_rate_5m.",
	"slo.burn_rate_1h.",
	"qerror.",
	"shard.",
	"shard.rows.",
}

var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$`)

func runMetricname(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Counter", "Gauge", "Histogram", "FloatGauge":
			default:
				return true
			}
			tv, ok := pass.Info.Types[sel.X]
			if !ok || namedTypeName(tv.Type) != "Registry" {
				return true
			}
			checkMetricName(pass, f, call, call.Args[0])
			return true
		})
	}
	return nil
}

func hasLabelPrefix(name string) bool {
	for _, p := range metricLabelPrefixes {
		if len(name) > len(p) && name[:len(p)] == p {
			return true
		}
	}
	return false
}

func checkMetricName(pass *Pass, f *ast.File, call *ast.CallExpr, arg ast.Expr) {
	fn := enclosingFunc(f, call.Pos())
	report := func(format string, args ...any) {
		if pass.suppressed("metricname", call.Pos(), fn) {
			return
		}
		pass.Reportf(arg.Pos(), format, args...)
	}
	if tv, ok := pass.Info.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		name := constant.StringVal(tv.Value)
		if hasLabelPrefix(name) || metricNameRE.MatchString(name) {
			return
		}
		report("metric name %q is not snake.dotted (want e.g. \"exec.rows_scanned\"; see prom.go's name mapping) — rename it or annotate //reflint:metricname <reason>", name)
		return
	}
	// Non-constant: allow exactly `<label-rule prefix> + expr`.
	if bin, ok := arg.(*ast.BinaryExpr); ok {
		if tv, ok := pass.Info.Types[bin.X]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			prefix := constant.StringVal(tv.Value)
			for _, p := range metricLabelPrefixes {
				if prefix == p {
					return
				}
			}
			report("metric name prefix %q is not a registered label rule (see promLabelRules in internal/metrics/prom.go): the dynamic suffix would mint a new unlabeled family per value", prefix)
			return
		}
	}
	report("metric name is not a compile-time constant: dynamic names (fmt.Sprintf, variables) can mint unbounded Prometheus families — use a snake.dotted literal, a label-rule prefix + bounded suffix, or annotate //reflint:metricname <reason>")
}
