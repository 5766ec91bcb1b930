// Package httpapi is golden-test input for the errclass analyzer. It
// mirrors the real HTTP surface: writeError / writeAnswerError are the
// mappers allowed to construct envelopes and emit error statuses, and
// outcomeFor is the only place journal outcomes may be referenced.
package httpapi

import (
	"net/http"

	"repro/internal/analysis/testdata/src/errclass/journal"
)

type v1Error struct{ Code, Message string }

type v1ErrorBody struct{ Err v1Error }

type okPayload struct{ Rows int }

type server struct{}

func writeJSON(w http.ResponseWriter, status int, v any) {}

// writeError is the mapper: envelope construction here is the point.
func (s *server) writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, v1ErrorBody{Err: v1Error{Code: code, Message: msg}})
}

func (s *server) writeAnswerError(w http.ResponseWriter, status int, msg string) {
	s.writeError(w, status, "answer", msg)
}

func classify(err error) (int, string) {
	return http.StatusInternalServerError, "internal"
}

// outcomeFor is the single classification-to-journal mapping point.
func outcomeFor(code string) journal.Outcome {
	if code == "ok" {
		return journal.OutcomeOK
	}
	return journal.OutcomeError
}

// --- violations --------------------------------------------------------------

func (s *server) handleLegacy(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "boom", http.StatusInternalServerError) // want "http.Error bypasses the /v1 error envelope"
}

func (s *server) handleHandRolled(w http.ResponseWriter, r *http.Request) {
	resp := v1Error{Message: "bad"}           // want "v1Error literal outside writeError/writeAnswerError"
	writeJSON(w, http.StatusBadRequest, resp) // want "writeJSON with error status 400 outside writeError/writeAnswerError"
}

func (s *server) handleV1HandRolled(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, v1ErrorBody{Err: v1Error{Code: "x", Message: "y"}}) // want "v1ErrorBody literal outside" // want "v1Error literal outside"
}

func (s *server) handleOutcome(w http.ResponseWriter, r *http.Request) {
	_ = journal.OutcomeShed // want "journal.OutcomeShed referenced outside outcomeFor"
	s.writeError(w, http.StatusServiceUnavailable, "overloaded", "shed")
}

// --- clean -------------------------------------------------------------------

func (s *server) handleOK(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, okPayload{Rows: 3})
}

// handleVarStatus: a non-constant status means classification already
// happened upstream — not this analyzer's business.
func (s *server) handleVarStatus(w http.ResponseWriter, status int) {
	writeJSON(w, status, okPayload{})
}

// --- suppression -------------------------------------------------------------

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	//reflint:errclass plaintext health probe for the load balancer, deliberately outside the JSON error model
	http.Error(w, "draining", http.StatusServiceUnavailable)
}
