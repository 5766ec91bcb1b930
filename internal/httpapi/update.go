package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/ntriples"
	"repro/internal/rdf"
)

// This file holds the write surface and its durability wiring:
//
//	POST /v1/update            apply InsertData/DeleteData/UpdateSchema
//	POST /v1/admin/checkpoint  snapshot + WAL truncate, on demand
//
// plus the Boot handler that owns the listening socket before recovery
// completes (so /readyz honestly answers 503 while the snapshot loads
// and the WAL replays — never "ready" over a half-loaded graph).
//
// Concurrency: readers take no lock. An update copies the published engine,
// applies its batch to the copy and publishes it (Server.eng); a request that
// loaded the previous version finishes on it. Server.writeMu serializes the
// writers: updates, and checkpoints, whose WAL cut must match their graph.
//
// Durability ordering: an update applies in memory first, then stages its
// WAL record, both under writeMu — so WAL order always equals apply order.
// The handler waits for the group-commit fsync *after* releasing it:
// concurrent updates stage into the same batch and amortize one fsync. A
// crash before the fsync loses only updates that were never acknowledged.

// UpdateRequest is the /v1/update input. Each field is an N-Triples
// document; present fields apply in a fixed order: schemaAdd, delete,
// insert.
type UpdateRequest struct {
	// SchemaAdd holds RDFS constraint triples to add to the TBox
	// (subClassOf, subPropertyOf, domain, range). Triggers interval
	// re-encoding and saturation rebuild.
	SchemaAdd string `json:"schemaAdd,omitempty"`
	// Delete holds data triples to remove (exact match, ignored when
	// absent from the graph).
	Delete string `json:"delete,omitempty"`
	// Insert holds data triples to add.
	Insert string `json:"insert,omitempty"`
}

// UpdateResponse is the /v1/update output.
type UpdateResponse struct {
	// SchemaAdded, Deleted, Inserted count the triples in each applied
	// batch (Deleted counts triples actually removed).
	SchemaAdded int `json:"schemaAdded"`
	Deleted     int `json:"deleted"`
	Inserted    int `json:"inserted"`
	// Durable reports whether the update was fsynced to the WAL before
	// this response (true under -wal-sync=always with a data dir).
	Durable     bool    `json:"durable"`
	RequestID   string  `json:"requestId,omitempty"`
	TotalMillis float64 `json:"totalMillis"`
}

// EnableDurability attaches the durable manager: every applied update is
// WAL-logged before acknowledgment, and the server auto-checkpoints when
// the manager's threshold trips. Call before serving (after recovery).
func (s *Server) EnableDurability(mgr *durable.Manager) {
	s.durable = mgr
}

// handleUpdate applies one update batch. See the file comment for the
// locking and durability ordering.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.Counter("http.requests." + r.URL.Path).Inc()
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			fmt.Sprintf("method %s not allowed", r.Method))
		return
	}
	var req UpdateRequest
	if err := decodeJSONBody(w, r, maxUpdateBody, &req); err != nil {
		s.writeBodyError(w, err)
		return
	}
	type op struct {
		kind durable.Op
		ts   []rdf.Triple
	}
	var ops []op
	parse := func(kind durable.Op, doc, what string) bool {
		if doc == "" {
			return true
		}
		ts, err := ntriples.ParseString(doc)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, CodeParseError,
				fmt.Sprintf("%s: %v", what, err))
			return false
		}
		if len(ts) > 0 {
			ops = append(ops, op{kind: kind, ts: ts})
		}
		return true
	}
	if !parse(durable.OpSchema, req.SchemaAdd, "schemaAdd") ||
		!parse(durable.OpDelete, req.Delete, "delete") ||
		!parse(durable.OpInsert, req.Insert, "insert") {
		return
	}
	if len(ops) == 0 {
		s.writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			"empty update: provide schemaAdd, delete or insert")
		return
	}

	resp := UpdateResponse{RequestID: requestID(r)}
	var (
		acks []<-chan error
		err  error
	)
	s.writeMu.Lock()
	next := *s.eng.Load()
	for _, o := range ops {
		switch o.kind {
		case durable.OpSchema:
			err = next.UpdateSchema(o.ts)
			if err == nil {
				resp.SchemaAdded += len(o.ts)
			}
		case durable.OpDelete:
			var n int
			n, err = next.DeleteData(o.ts)
			resp.Deleted += n
		case durable.OpInsert:
			err = next.InsertData(o.ts)
			if err == nil {
				resp.Inserted += len(o.ts)
			}
		}
		if err != nil {
			break
		}
		if s.durable != nil {
			acks = append(acks, s.durable.Stage(durable.Record{Op: o.kind, Triples: o.ts}))
		}
	}
	// Published on failure too: earlier operations are applied and staged.
	s.eng.Store(&next)
	s.writeMu.Unlock()
	if err != nil {
		s.metrics.Counter("http.update_errors").Inc()
		s.writeError(w, http.StatusUnprocessableEntity, CodeUpdateError, err.Error())
		return
	}
	for _, ack := range acks {
		if err := <-ack; err != nil {
			// The in-memory state has the update but the log does not:
			// tell the client the write is NOT durable so it can retry
			// idempotently.
			s.metrics.Counter("http.update_errors").Inc()
			s.writeError(w, http.StatusInternalServerError, CodeStorageError, err.Error())
			return
		}
	}
	resp.Durable = s.durable != nil
	resp.TotalMillis = millisSince(start)
	s.metrics.Counter("http.updates").Inc()
	if s.durable != nil && s.durable.ShouldCheckpoint() {
		s.checkpointWG.Add(1)
		go func() {
			defer s.checkpointWG.Done()
			s.runCheckpoint("auto")
		}()
	}
	s.writeOK(w, resp)
}

// handleCheckpoint serves POST /v1/admin/checkpoint.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter("http.requests." + r.URL.Path).Inc()
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			fmt.Sprintf("method %s not allowed", r.Method))
		return
	}
	if s.durable == nil {
		s.writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			"durability is disabled (start with -data-dir)")
		return
	}
	if err := s.runCheckpoint("admin"); err != nil {
		if err == durable.ErrCheckpointBusy {
			s.writeError(w, http.StatusConflict, CodeInvalidRequest, err.Error())
			return
		}
		s.writeError(w, http.StatusInternalServerError, CodeStorageError, err.Error())
		return
	}
	s.writeOK(w, map[string]string{"status": "checkpointed"})
}

// runCheckpoint snapshots the published graph under writeMu: updates pause
// for the duration, queries proceed.
func (s *Server) runCheckpoint(reason string) error {
	s.writeMu.Lock()
	err := s.durable.Checkpoint(s.eng.Load().Graph())
	s.writeMu.Unlock()
	if err != nil && err != durable.ErrCheckpointBusy {
		s.metrics.Counter("http.checkpoint_errors").Inc()
		if s.Logger != nil {
			s.Logger.Error("checkpoint failed", "reason", reason, "error", err.Error())
		}
	}
	return err
}

// WaitCheckpoints blocks until in-flight auto-checkpoints finish; called
// during shutdown so the process never exits mid-snapshot (the write is
// atomic regardless — this only avoids wasted work and late log lines).
func (s *Server) WaitCheckpoints() { s.checkpointWG.Wait() }

// The longest request bodies read, in bytes: a query, and an update
// batch (refload's default batch of 1 000 triples is about 0.1 MB).
var (
	maxQueryBody  int64 = 1 << 20
	maxUpdateBody int64 = 32 << 20
)

// decodeJSONBody decodes a JSON request body of at most limit bytes
// strictly (unknown fields are errors). A longer body is an error wrapping
// *http.MaxBytesError, and is not read past its limit.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad JSON body: %w", err)
	}
	return nil
}

// --- boot gate ---------------------------------------------------------------

// Boot owns the listening socket before the server exists: refserve
// binds and serves a Boot immediately, runs recovery (N-Triples parse or
// snapshot load + WAL replay), then calls Ready with the real server.
// Until then /healthz answers 200 (the process is alive) while /readyz —
// and every other route — answers 503 with code "loading", so load
// balancers keep traffic away until the graph is complete. The swap is
// atomic: no request ever sees a half-initialized server.
type Boot struct {
	stub  *Server
	ready atomic.Pointer[Server]
}

// NewBoot returns a boot gate ready to serve.
func NewBoot() *Boot {
	return &Boot{stub: &Server{metrics: metrics.NewRegistry()}}
}

// Ready atomically swaps in the fully recovered server; subsequent
// requests route to it.
func (b *Boot) Ready(s *Server) { b.ready.Store(s) }

// Server returns the swapped-in server, nil before Ready.
func (b *Boot) Server() *Server { return b.ready.Load() }

// ServeHTTP implements http.Handler.
func (b *Boot) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s := b.ready.Load(); s != nil {
		s.ServeHTTP(w, r)
		return
	}
	switch r.URL.Path {
	case "/healthz", "/v1/healthz":
		b.stub.writeOK(w, map[string]string{"status": "ok"})
	default:
		b.stub.writeError(w, http.StatusServiceUnavailable, CodeLoading,
			"loading: recovery in progress")
	}
}
