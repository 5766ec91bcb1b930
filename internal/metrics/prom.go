package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file renders a Registry in the Prometheus text exposition format
// (version 0.0.4): counters gain the conventional _total suffix,
// histograms emit cumulative _bucket{le=...} series plus _sum and _count,
// and the per-strategy / per-path name suffixes the engine and HTTP layer
// use ("engine.queries.ref-gcov", "http.latency_ms./query") become proper
// labels ({strategy="ref-gcov"}, {path="/query"}).

// promLabelRules maps dotted-name prefixes to the label the remainder of
// the name encodes.
var promLabelRules = []struct{ prefix, label string }{
	{"engine.queries.", "strategy"},
	{"engine.latency_ms.", "strategy"},
	{"http.requests.", "path"},
	{"http.latency_ms.", "path"},
	{"http.legacy_requests.", "path"},
	{"viewcache.", "event"},
	{"plancache.", "event"},
	{"admission.", "event"},
	{"journal.", "event"},
	{"wal.", "event"},
	{"recovery.", "event"},
	{"slo.good.", "strategy"},
	{"slo.bad.", "strategy"},
	{"slo.burn_rate_5m.", "strategy"},
	{"slo.burn_rate_1h.", "strategy"},
	{"qerror.", "op"},
	{"shard.rows.", "shard"},
	{"shard.", "event"},
}

// promName splits a dotted registry name into a sanitized metric family
// name and an optional {label="value"} selector.
func promName(dotted string) (name, labels string) {
	for _, rule := range promLabelRules {
		if strings.HasPrefix(dotted, rule.prefix) && len(dotted) > len(rule.prefix) {
			base := strings.TrimSuffix(rule.prefix, ".")
			val := dotted[len(rule.prefix):]
			return sanitizeMetricName(base), "{" + rule.label + "=\"" + escapeLabelValue(val) + "\"}"
		}
	}
	return sanitizeMetricName(dotted), ""
}

// sanitizeMetricName maps an arbitrary dotted name onto the Prometheus
// metric-name alphabet [a-zA-Z_:][a-zA-Z0-9_:]*; every run of invalid
// characters collapses into a single underscore.
func sanitizeMetricName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	lastUnderscore := false
	for i, r := range s {
		valid := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !valid {
			if !lastUnderscore {
				b.WriteByte('_')
				lastUnderscore = true
			}
			continue
		}
		b.WriteRune(r)
		lastUnderscore = r == '_'
	}
	out := b.String()
	if out == "" {
		return "_"
	}
	return out
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// withLE inserts the le label into an existing (possibly empty) selector.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

func formatPromFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

type promSeries struct {
	labels string
	value  string
	hist   *HistogramSnapshot
}

type promFamily struct {
	name   string
	typ    string
	series []promSeries
}

// WritePrometheus renders every instrument of the registry in Prometheus
// text format. The snapshot is taken once up front, so the output is a
// consistent point-in-time view.
func WritePrometheus(w io.Writer, r *Registry) error {
	snap := r.Snapshot()
	fams := map[string]*promFamily{}
	add := func(dotted, typ string, s promSeries) {
		name, labels := promName(dotted)
		if typ == "counter" {
			name += "_total"
		}
		s.labels = labels
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name, typ: typ}
			fams[name] = f
		}
		f.series = append(f.series, s)
	}
	for n, v := range snap.Counters {
		add(n, "counter", promSeries{value: strconv.FormatInt(v, 10)})
	}
	for n, v := range snap.Gauges {
		add(n, "gauge", promSeries{value: strconv.FormatInt(v, 10)})
	}
	for n, v := range snap.FloatGauges {
		add(n, "gauge", promSeries{value: formatPromFloat(v)})
	}
	for n := range snap.Histograms {
		h := snap.Histograms[n]
		add(n, "histogram", promSeries{hist: &h})
	}
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			if f.typ != "histogram" {
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, s.value); err != nil {
					return err
				}
				continue
			}
			if err := writePromHistogram(w, f.name, s.labels, s.hist); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name, labels string, h *HistogramSnapshot) error {
	cum := int64(0)
	for i, bound := range h.Bounds {
		if i < len(h.BucketCounts) {
			cum += h.BucketCounts[i]
		}
		le := formatPromFloat(bound)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labels, le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labels, "+Inf"), h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatPromFloat(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count)
	return err
}
