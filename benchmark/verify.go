package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/httpapi"
)

// coldSample is how many lookup_cold texts are answered under both
// strategies; the others get their cardinality from sat alone.
const coldSample = 200

// answer is the part of a /v1/query response verification looks at. The
// server returns rows sorted, so equal answers have equal digests.
type answer struct {
	total  int
	digest string
}

// ask answers one query text outside the measurement.
func ask(srv *httpapi.Server, rec *recorder, text, strategy string) (answer, error) {
	o := textOp("verify", text, strategy, 0)
	if _, _, err := send(srv, rec, &o); err != nil {
		return answer{}, err
	}
	if rec.status != http.StatusOK {
		return answer{}, fmt.Errorf("%s [%s]: status %d: %.200s", text, strategy, rec.status, rec.buf.Bytes())
	}
	var resp struct {
		Total int        `json:"total"`
		Rows  [][]string `json:"rows"`
	}
	if err := json.Unmarshal(rec.buf.Bytes(), &resp); err != nil {
		return answer{}, fmt.Errorf("%s [%s]: %w", text, strategy, err)
	}
	h := sha256.New()
	for _, row := range resp.Rows {
		fmt.Fprintln(h, row)
	}
	return answer{total: resp.Total, digest: hex.EncodeToString(h.Sum(nil))}, nil
}

// verify answers every distinct query text under sat and pins each op's
// expected cardinality to it, and answers the texts (a sample of them on
// lookup_cold) under the op's own strategy too: the sorted rows must agree.
// On a workload with updates it then plays one block, comparing the two
// strategies in every state the block passes through.
func verify(st *stack, sc *script, w workload) error {
	rec := newRecorder()
	truth := map[string]answer{}
	compared := map[string]bool{}
	texts := 0
	for i := range sc.ops {
		o := &sc.ops[i]
		if !o.isQuery() {
			continue
		}
		ref, ok := truth[o.text]
		if !ok {
			var err error
			if ref, err = ask(st.srv, rec, o.text, "sat"); err != nil {
				return err
			}
			truth[o.text] = ref
			texts++
		}
		o.want = ref.total + o.delta
		key := o.strategy + " " + o.text
		if o.strategy == "sat" || compared[key] || (w.name == "lookup_cold" && texts > coldSample) {
			continue
		}
		compared[key] = true
		got, err := ask(st.srv, rec, o.text, o.strategy)
		if err != nil {
			return err
		}
		if got != ref {
			return fmt.Errorf("%s: %s answers %d rows (%.12s), sat %d rows (%.12s)",
				o.text, o.class, got.total, got.digest, ref.total, ref.digest)
		}
	}
	if !w.durable {
		return nil
	}
	for i := 0; i < w.block; i++ {
		o := &sc.ops[sc.order[i]]
		if !o.isQuery() {
			if _, _, err := send(st.srv, rec, o); err != nil {
				return err
			}
			if err := check(rec, o); err != nil {
				return err
			}
			continue
		}
		got, err := ask(st.srv, rec, o.text, o.strategy)
		if err != nil {
			return err
		}
		ref, err := ask(st.srv, rec, o.text, "sat")
		if err != nil {
			return err
		}
		if got != ref || got.total != o.want {
			return fmt.Errorf("%s after an update: %s answers %d rows, sat %d, want %d",
				o.text, o.class, got.total, ref.total, o.want)
		}
	}
	return nil
}

// answers maps every distinct query text of the script to the server's
// answer under the op's strategy.
func answers(srv *httpapi.Server, sc *script) (map[string]answer, error) {
	rec := newRecorder()
	out := map[string]answer{}
	for i := range sc.ops {
		o := &sc.ops[i]
		if !o.isQuery() {
			continue
		}
		if _, ok := out[o.text]; ok {
			continue
		}
		a, err := ask(srv, rec, o.text, o.strategy)
		if err != nil {
			return nil, err
		}
		out[o.text] = a
	}
	return out, nil
}
