package main

import (
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/httpapi"
	"repro/internal/metrics"
	"repro/internal/rdf"
	"repro/internal/trace"
)

// perLayer lists every per-layer metric with its unit, in reporting order.
// A metric a workload has no use for (durable.* without a data dir,
// viewcache.* with the cache off) is reported as 0.
var perLayer = []struct{ name, unit string }{
	{"httpapi.self_ms", "ms"}, {"httpapi.resp_bytes_per_op", "B"}, {"httpapi.update_p50_ms", "ms"},
	{"query.parse_us", "us"},
	{"core.reformulate_us", "us"}, {"core.gcov_us", "us"}, {"core.reformulation_cqs", "count"},
	{"engine.answer_ms", "ms"}, {"engine.plancache_hit_ratio", "ratio"},
	{"engine.update_apply_ms", "ms"}, {"engine.rebuild_ms", "ms"},
	{"viewcache.hit_ratio", "ratio"}, {"viewcache.bypass_per_op", "count"},
	{"viewcache.evictions", "count"}, {"viewcache.bytes", "B"},
	{"exec.eval_ms", "ms"}, {"exec.rows_scanned_per_op", "count"}, {"exec.rows_joined_per_op", "count"},
	{"exec.rows_unioned_per_op", "count"}, {"exec.rows_examined_per_result", "ratio"},
	{"storage.build_ms", "ms"}, {"storage.scan_ns_per_row", "ns"}, {"storage.range_scan_ns_per_row", "ns"},
	{"stats.collect_ms", "ms"}, {"graph.from_triples_ms", "ms"},
	{"saturation.saturate_ms", "ms"}, {"saturation.maintain_ms", "ms"},
	{"durable.stage_ack_ms", "ms"}, {"durable.fsyncs_per_update", "count"},
	{"durable.wal_bytes_per_user_byte", "ratio"}, {"durable.checkpoint_ms", "ms"},
	{"durable.snapshot_bytes_per_triple", "B"}, {"durable.snapshot_load_ms", "ms"},
	{"durable.replay_ms_per_record", "ms"}, {"durable.recovery_s", "s"},
	{"durable.disk_bytes_per_triple", "B"},
	{"runtime.alloc_bytes_per_op", "B"}, {"runtime.allocs_per_op", "count"}, {"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead_pct", "%"},
}

// recoveryTail is how many script blocks run between the checkpoint and the
// copy of the data directory that recovery starts from: the WAL tail to
// replay is then always twice that many records.
const recoveryTail = 6

func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measureTraced is the traced run: a warm-up, one untraced round whose
// counters give the per-op counts, one traced round whose spans give the
// per-layer times, and on a durable workload checkpoint and recovery.
func measureTraced(p *prepared) (*outcome, error) {
	out := &outcome{metrics: map[string]metric{}, diagnostics: map[string]float64{}, scriptSHA: p.sc.digest()}
	v := p.tr.setupParts() // every per-layer value, by metric name
	rn := newRunner(p.st, p.sc, p.w.block)
	lim := p.cfg.limit(p.sc)
	// Warm both stacks: the shadow's caches must be as full as the live
	// ones when the traced round starts.
	p.tr.start()
	rn.after = p.tr.decompose
	rn.run(lim)
	rn.after = nil

	// The counting round.
	settle()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, gc0, wal0 := p.st.reg.Snapshot().Counters, gcCPUSeconds(), dirBytes(p.st.dir, ".seg")
	cqs0 := p.st.reg.Histogram("engine.reformulation_cqs").Snapshot()
	r := rn.run(lim)
	runtime.ReadMemStats(&m1)
	snap := p.st.reg.Snapshot()
	gc1, wal1 := gcCPUSeconds(), dirBytes(p.st.dir, ".seg")
	cqs1 := p.st.reg.Histogram("engine.reformulation_cqs").Snapshot()
	out.count(&r)
	delta := func(name string) float64 { return float64(snap.Counters[name] - c0[name]) }
	ops := float64(len(r.samples))
	var results, userBytes, updates float64
	for _, s := range r.samples {
		if o := &p.sc.ops[s.op]; o.isQuery() {
			results += float64(o.want)
		} else {
			updates++
			userBytes += float64(len(rdf.FormatTriples(o.triples)))
		}
	}
	v["httpapi.resp_bytes_per_op"] = ratio(float64(r.respBytes), float64(r.ops()))
	v["httpapi.update_p50_ms"] = median(r.latencies(p.sc, false))
	v["core.reformulation_cqs"] = ratio(cqs1.Sum-cqs0.Sum, float64(cqs1.Count-cqs0.Count))
	v["engine.plancache_hit_ratio"] = ratio(delta("plancache.hit"), delta("plancache.hit")+delta("plancache.miss"))
	v["viewcache.hit_ratio"] = ratio(delta("viewcache.hit"), delta("viewcache.hit")+delta("viewcache.miss"))
	v["viewcache.bypass_per_op"] = ratio(delta("viewcache.bypass"), ops)
	v["viewcache.evictions"] = delta("viewcache.evict")
	v["viewcache.bytes"] = float64(snap.Gauges["viewcache.bytes"])
	v["exec.rows_scanned_per_op"] = ratio(delta("exec.rows_scanned"), ops)
	v["exec.rows_joined_per_op"] = ratio(delta("exec.rows_joined"), ops)
	v["exec.rows_unioned_per_op"] = ratio(delta("exec.rows_unioned"), ops)
	v["exec.rows_examined_per_result"] = ratio(delta("exec.rows_scanned")+delta("exec.rows_joined"), results)
	v["durable.fsyncs_per_update"] = ratio(delta("wal.fsyncs"), updates)
	v["durable.wal_bytes_per_user_byte"] = ratio(float64(wal1-wal0), userBytes)
	v["runtime.alloc_bytes_per_op"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), ops)
	v["runtime.allocs_per_op"] = ratio(float64(m1.Mallocs-m0.Mallocs), ops)
	v["runtime.gc_cpu_fraction"] = ratio(gc1-gc0, ratio(r.cpu.Seconds(), r.speed())) // both wall-clock
	untracedRate := ratio(ops, r.wall.Seconds())

	// The traced round: twice as long, since the shadow serves every op
	// again, part by part.
	settle()
	p.tr.start()
	rn.after = p.tr.decompose
	tr := rn.run(limit{dur: 2 * lim.dur, ops: lim.ops})
	rn.after = nil
	out.count(&tr)
	v["trace.overhead_pct"] = 100 * (1 - ratio(ratio(float64(len(tr.samples)), tr.wall.Seconds()), untracedRate))
	// Spans are wall-clock; the traced round's speed puts their sums on the
	// nominal machine.
	total, children, count := p.tr.totals()
	per := func(name, root string, unit time.Duration) float64 {
		return ratio(float64(total[name])*tr.speed()/float64(unit), float64(count[root]))
	}
	v["httpapi.self_ms"] = ratio(float64(total["httpapi.serve"]-children["httpapi.serve"])*tr.speed()/float64(time.Millisecond), float64(count["httpapi.serve"]))
	v["query.parse_us"] = per("query.parse", "httpapi.serve", time.Microsecond)
	v["core.reformulate_us"] = per("core.reformulate", "httpapi.serve", time.Microsecond)
	v["core.gcov_us"] = per("core.gcov", "httpapi.serve", time.Microsecond)
	v["engine.answer_ms"] = per("engine.answer", "httpapi.serve", time.Millisecond)
	v["engine.rebuild_ms"] = per("engine.rebuild", "httpapi.serve", time.Millisecond)
	v["exec.eval_ms"] = per("exec.eval", "httpapi.serve", time.Millisecond)
	v["engine.update_apply_ms"] = per("engine.update_apply", "httpapi.update", time.Millisecond)
	v["saturation.maintain_ms"] = per("saturation.maintain", "httpapi.update", time.Millisecond)
	v["durable.stage_ack_ms"] = per("durable.stage_ack", "httpapi.update", time.Millisecond)
	for layer, share := range p.tr.layerShares() {
		out.diagnostics["share."+layer] = share
	}
	classDiagnostics(out.diagnostics, p.sc, []round{r})
	out.diagnostics["machine_speed"] = tr.speed()

	out.correct = out.failed == 0
	if p.w.durable {
		same, err := durablePhase(p, rn, out, v)
		if err != nil {
			return nil, err
		}
		out.correct = out.correct && same
	}
	if err := p.tr.write(p.cfg.scratch, p.cfg.seed); err != nil {
		fmt.Fprintln(os.Stderr, "refperf: trace not written:", err)
	}
	for _, m := range perLayer {
		out.metrics[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return out, nil
}

// dirBytes sums the sizes of the files in dir with the given suffix; 0 for
// a missing directory (workloads without a data dir).
func dirBytes(dir, suffix string) int64 {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), suffix) {
			n += info.Size()
		}
	}
	return n
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, d.Name()), raw, 0o644)
	})
}

// durablePhase measures checkpoint and crash-equivalent recovery on the
// live stack: checkpoint, a fixed WAL tail, then — without closing the
// manager — byte copies of the data directory, each recovered as refserve
// recovers at boot until the first query is answered. It reports whether
// the last recovered server answers the whole script as the live one does.
func durablePhase(p *prepared, rn *runner, out *outcome, v map[string]float64) (bool, error) {
	rec := newRecorder()
	cp := op{class: "checkpoint", path: "/v1/admin/checkpoint"}
	var err error
	took := p.tr.ref.normalized(func() { _, _, err = send(p.st.srv, rec, &cp) })
	if err != nil || rec.status != http.StatusOK {
		return false, fmt.Errorf("checkpoint: status %d: %v", rec.status, err)
	}
	v["durable.checkpoint_ms"] = float64(took) / float64(time.Millisecond)
	triples := float64(p.st.g.DataCount())
	v["durable.snapshot_bytes_per_triple"] = ratio(float64(dirBytes(p.st.dir, ".col")), triples)
	tail := rn.run(limit{ops: recoveryTail * p.w.block})
	out.count(&tail)
	v["durable.disk_bytes_per_triple"] = ratio(float64(dirBytes(p.st.dir, ".col")+dirBytes(p.st.dir, ".seg")), triples)

	live, err := answers(p.st.srv, p.sc)
	if err != nil {
		return false, err
	}
	var first *op
	for i := range p.sc.ops {
		if p.sc.ops[i].isQuery() {
			first = &p.sc.ops[i]
			break
		}
	}
	var total, load, replay []float64
	var last *httpapi.Server
	for i := 0; i < setupRuns; i++ {
		dir := filepath.Join(p.cfg.scratch, fmt.Sprintf("data-%d-recover-%d", os.Getpid(), i))
		if err := copyDir(p.st.dir, dir); err != nil {
			return false, err
		}
		defer os.RemoveAll(dir)
		settle()
		var rc recovery
		speed := p.tr.ref.around(func() { rc, err = recoverFrom(p.w, dir, first) })
		if err != nil {
			return false, err
		}
		defer rc.mgr.Close()
		ms := func(d time.Duration) float64 { return float64(d) * speed / float64(time.Millisecond) }
		total = append(total, ms(rc.total)/1000)
		load = append(load, ms(rc.load))
		replay = append(replay, ratio(ms(rc.replay), float64(rc.records)))
		last = rc.srv
	}
	v["durable.recovery_s"] = median(total)
	v["durable.snapshot_load_ms"] = median(load)
	v["durable.replay_ms_per_record"] = median(replay)
	recovered, err := answers(last, p.sc)
	if err != nil {
		return false, err
	}
	same := reflect.DeepEqual(live, recovered)
	if !same && out.firstErr == nil {
		out.firstErr = fmt.Errorf("recovered server answers differ from the live server's")
	}
	return same, nil
}

// recovery is one restart from a data directory and how long its steps
// took by the wall clock.
type recovery struct {
	mgr                 *durable.Manager
	srv                 *httpapi.Server
	load, replay, total time.Duration
	records             int
}

// recoverFrom restarts from dir as refserve does at boot — open, load the
// snapshot, replay the WAL tail, build the server — and answers one query.
func recoverFrom(w workload, dir string, first *op) (recovery, error) {
	var rc recovery
	t0 := time.Now()
	mgr, err := durable.Open(dir, durable.Options{SyncMode: durable.SyncAlways})
	if err != nil {
		return rc, err
	}
	rc.mgr = mgr
	g, err := mgr.LoadGraph(trace.New(0))
	if err != nil {
		mgr.Close()
		return rc, err
	}
	rc.load = time.Since(t0)
	eng := engine.New(g)
	t1 := time.Now()
	rs, err := mgr.Replay(eng, trace.New(0))
	if err != nil {
		mgr.Close()
		return rc, err
	}
	rc.replay, rc.records = time.Since(t1), rs.Records
	rc.srv = newServer(w, eng.Graph(), metrics.NewRegistry(), mgr)
	if _, err := ask(rc.srv, newRecorder(), first.text, first.strategy); err != nil {
		mgr.Close()
		return rc, err
	}
	rc.total = time.Since(t0)
	return rc, nil
}
