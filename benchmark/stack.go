package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/metrics"
	"repro/internal/rdf"
	"repro/internal/trace"
	"repro/internal/viewcache"
)

// stack is the serving stack of one refserve process, minus the listener.
type stack struct {
	srv *httpapi.Server
	g   *graph.Graph
	reg *metrics.Registry
	mgr *durable.Manager // nil unless the workload is durable
	dir string
	// fromTriples is how long graph.FromTriples took during boot.
	fromTriples time.Duration
}

// boot wires a server the way cmd/refserve does with its default flags
// (view cache and data dir per workload; admission, journal and slow-query
// log off; the JSON query log formatted and thrown away). dir is used only
// by durable workloads and must be empty or absent.
func boot(w workload, triples []rdf.Triple, dir string) (*stack, error) {
	st := &stack{reg: metrics.NewRegistry()}
	t0 := time.Now()
	g, err := graph.FromTriples(triples)
	if err != nil {
		return nil, err
	}
	st.fromTriples = time.Since(t0)
	if w.durable {
		// A fresh data directory: open, recover nothing, seed, checkpoint.
		mgr, err := durable.Open(dir, durable.Options{SyncMode: durable.SyncAlways, Metrics: st.reg})
		if err != nil {
			return nil, err
		}
		st.mgr, st.dir = mgr, dir
		g0, err := mgr.LoadGraph(trace.New(0))
		if err != nil {
			st.close()
			return nil, err
		}
		if _, err := mgr.Replay(engine.New(g0), trace.New(0)); err != nil {
			st.close()
			return nil, err
		}
		if err := mgr.Checkpoint(g); err != nil {
			st.close()
			return nil, err
		}
	}
	st.g = g
	st.srv = newServer(w, g, st.reg, st.mgr)
	return st, nil
}

// newServer builds and configures the server over a loaded graph; recovery
// reuses it.
func newServer(w workload, g *graph.Graph, reg *metrics.Registry, mgr *durable.Manager) *httpapi.Server {
	srv := httpapi.NewWithOptions(g, prefixes, reg, httpapi.Options{})
	srv.Timeout = 30 * time.Second
	if w.viewCache {
		srv.Engine().EnableViewCache(viewcache.Config{MaxBytes: 64 << 20})
	}
	srv.SlowQueryThreshold = -1
	srv.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	srv.SetSLO(metrics.DefaultSLO)
	if mgr != nil {
		srv.EnableDurability(mgr)
	}
	return srv
}

// close releases the WAL and removes the data directory.
func (st *stack) close() {
	if st.mgr != nil {
		st.mgr.Close() // the directory is deleted next; nothing to lose
		os.RemoveAll(st.dir)
	}
}

// recorder is the in-memory http.ResponseWriter a client reuses for every
// request.
type recorder struct {
	hdr    http.Header
	buf    bytes.Buffer
	status int
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}} }

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(p []byte) (int, error) { return r.buf.Write(p) }

func (r *recorder) reset() {
	clear(r.hdr)
	r.buf.Reset()
	r.status = http.StatusOK
}

// send serves one scripted request in-process and returns when ServeHTTP
// started and how long it took. The response stays in rec until the next
// send.
func send(srv *httpapi.Server, rec *recorder, o *op) (time.Time, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
	if err != nil {
		return time.Time{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	rec.reset()
	start := time.Now()
	srv.ServeHTTP(rec, req)
	return start, time.Since(start), nil
}

// intField reads a top-level integer field of the server's two-space
// indented JSON without decoding the rows. Strings escape their newlines,
// so the pattern can only match the field itself.
func intField(body []byte, field string) (int, bool) {
	pat := "\n  \"" + field + "\": "
	i := bytes.LastIndex(body, []byte(pat))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(pat):]
	end := bytes.IndexAny(rest, ",\n")
	if end < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(string(rest[:end]))
	return n, err == nil
}

// check reports why the response in rec is not the one o must get, or nil.
func check(rec *recorder, o *op) error {
	if rec.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", o.class, rec.status, rec.buf.Bytes())
	}
	got, ok := intField(rec.buf.Bytes(), o.field)
	if !ok {
		return fmt.Errorf("%s: no %q in response", o.class, o.field)
	}
	if got != o.want {
		return fmt.Errorf("%s: %s = %d, want %d", o.class, o.field, got, o.want)
	}
	return nil
}
