package httpapi

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/rdf"
)

// body is an answer's response being written in one pass: each cell's term
// is decoded from the dictionary straight into the buffer and escaped
// there, and nothing is re-indented afterwards. The top-level layout is
// writeJSON's (`\n  "field": `, which benchmark/stack.go's intField and the
// CI smoke tests read); rows are compact, one per line.
type body struct {
	b, scratch []byte // scratch: a term's N-Triples form, or a string to escape
}

// str appends s as a JSON string.
func (w *body) str(s string) {
	w.scratch = append(w.scratch[:0], s...)
	w.b = appendJSONString(w.b, w.scratch)
}

// term appends t's N-Triples form as a JSON string. The form is written
// straight into the buffer and re-written escaped only when it holds a byte
// that is not printable ASCII or is a quote or a backslash.
func (w *body) term(t rdf.Term) {
	w.b = append(w.b, '"')
	at := len(w.b)
	w.b = t.AppendTo(w.b)
	for _, c := range w.b[at:] {
		if c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' {
			w.scratch = append(w.scratch[:0], w.b[at:]...)
			w.b = appendJSONString(w.b[:at-1], w.scratch)
			return
		}
	}
	w.b = append(w.b, '"')
}

// strs appends ss as a one-line JSON array of strings.
func (w *body) strs(ss []string) {
	w.b = append(w.b, '[')
	for i, s := range ss {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.str(s)
	}
	w.b = append(w.b, ']')
}

// rows appends the first n rows of rel, one per line, each between open and
// close with its cells comma-separated, cell(column, id) writing each.
func (w *body) rows(rel *exec.Relation, n int, open, close byte, cell func(int, dict.ID)) {
	for i := 0; i < n; i++ {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.b = append(append(w.b, "\n    "...), open)
		for j, id := range rel.Row(i) {
			if j > 0 {
				w.b = append(w.b, ',')
			}
			cell(j, id)
		}
		w.b = append(w.b, close)
	}
	if n > 0 {
		w.b = append(w.b, "\n  "...)
	}
}

// field appends a top-level field holding v as writeJSON's encoder renders
// it.
func (w *body) field(name string, v any) error {
	m, err := json.MarshalIndent(v, "  ", "  ")
	w.b = append(append(append(append(w.b, ",\n  \""...), name...), "\": "...), m...)
	return err
}

// send writes the body with status 200.
func (w *body) send(rw http.ResponseWriter, contentType string) {
	rw.Header().Set("Content-Type", contentType)
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write(w.b)
}

// writeQueryResponse writes resp as writeJSON would — the same fields in the
// same order, explain and meta byte for byte — except for the rows: not
// resp.Rows but the first n rows of rel (nil: none), compact, decoded
// through d. The request started at start, and serializing it at serStart
// (zero: nothing was serialized): meta's totalMillis and serializeMillis
// are stamped once the rows are in. An estimate no JSON number holds writes
// nothing, as writeJSON does.
func writeQueryResponse(rw http.ResponseWriter, resp *QueryResponse, d *dict.Dict, rel *exec.Relation, n int, start, serStart time.Time) {
	w := &body{b: make([]byte, 0, 1024+64*n*len(resp.Columns))}
	w.b = append(w.b, "{\n  \"columns\": "...)
	w.strs(resp.Columns)
	w.b = append(w.b, ",\n  \"rows\": ["...)
	w.rows(rel, n, '[', ']', func(_ int, id dict.ID) { w.term(d.Decode(id)) })
	w.b = strconv.AppendInt(append(w.b, "],\n  \"total\": "...), int64(resp.Total), 10)
	if resp.Truncated {
		w.b = append(w.b, ",\n  \"truncated\": true"...)
	}
	if resp.RequestID != "" {
		w.b = append(w.b, ",\n  \"requestId\": "...)
		w.str(resp.RequestID)
	}
	if resp.Explain != nil && w.field("explain", resp.Explain) != nil {
		return
	}
	if !serStart.IsZero() {
		resp.Meta.SerializeMillis = millisSince(serStart)
	}
	resp.Meta.TotalMillis = millisSince(start)
	if w.field("meta", resp.Meta) != nil {
		return
	}
	w.b = append(w.b, "\n}\n"...)
	w.send(rw, "application/json")
}

// writeSPARQLJSON writes the first n rows of rel as a W3C SPARQL 1.1 JSON
// results document (SPARQLResults), one binding per line. Unbound is
// impossible here (BGP answers are total), so every variable appears in
// every binding.
func writeSPARQLJSON(rw http.ResponseWriter, d *dict.Dict, rel *exec.Relation, n int) {
	w := &body{b: make([]byte, 0, 256+96*n*len(rel.Vars))}
	w.b = append(w.b, "{\n  \"head\": {\"vars\": "...)
	w.strs(rel.Vars)
	w.b = append(w.b, "},\n  \"results\": {\"bindings\": ["...)
	w.rows(rel, n, '{', '}', func(j int, id dict.ID) {
		t := d.Decode(id)
		w.str(rel.Vars[j])
		switch t.Kind {
		case rdf.IRI:
			w.b = append(w.b, `:{"type":"uri","value":`...)
		case rdf.Blank:
			w.b = append(w.b, `:{"type":"bnode","value":`...)
		default:
			w.b = append(w.b, `:{"type":"literal","value":`...)
		}
		w.str(t.Value)
		if t.Lang != "" {
			w.b = append(w.b, `,"xml:lang":`...)
			w.str(t.Lang)
		}
		if t.Datatype != "" {
			w.b = append(w.b, `,"datatype":`...)
			w.str(t.Datatype)
		}
		w.b = append(w.b, '}')
	})
	w.b = append(w.b, "]}\n}\n"...)
	w.send(rw, sparqlResultsMIME)
}

// appendJSONString appends s as a JSON string that encoding/json decodes to
// what it decodes from its own encoding of s: quotes, backslashes and
// control characters escaped, each byte of invalid UTF-8 replaced by
// U+FFFD. Bytes that need no escape are copied a run at a time.
func appendJSONString(b, s []byte) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0 // s[start:i] is copied as it is
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			if r, size := utf8.DecodeRune(s[i:]); r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
		} else if c >= 0x20 && c != '"' && c != '\\' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		i++
		start = i
		switch {
		case c >= utf8.RuneSelf:
			b = append(b, `\ufffd`...)
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, `\n`...)
		case c == '\r':
			b = append(b, `\r`...)
		case c == '\t':
			b = append(b, `\t`...)
		default: // another control character
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
