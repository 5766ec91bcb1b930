package httpapi

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/rdf"
)

// body is an answer's response being written in one pass: the cells are
// decoded under one hold of the dictionary's read lock for the whole
// response and written straight into the buffer, and nothing is re-indented
// afterwards. The top-level layout is writeJSON's (`\n  "field": `, which
// benchmark/stack.go's intField and the CI smoke tests read); rows are
// compact, one per line.
type body struct {
	b, scratch []byte // scratch: a literal's N-Triples form, to escape
}

// str appends s as a JSON string.
func (w *body) str(s string) { w.b = appendJSONString(w.b, s) }

// cell appends t's N-Triples form as a JSON string. A term whose Value the
// dictionary found clean (dict.View.Decode) is one copy of its bytes
// between its delimiters: an IRI's or a blank node's form escapes nothing
// in JSON, and a plain literal's only its own two quotes.
func (w *body) cell(t rdf.Term, clean bool) {
	switch {
	case !clean:
		w.term(t)
	case t.Kind == rdf.IRI:
		w.b = append(append(append(w.b, `"<`...), t.Value...), `>"`...)
	case t.Kind == rdf.Blank:
		w.b = append(append(append(w.b, `"_:`...), t.Value...), '"')
	default:
		w.b = append(append(append(w.b, `"\"`...), t.Value...), `\""`...)
	}
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
// close with its cells comma-separated, cell(column, term, clean) writing
// each from d's view (dict.View.Decode): d's read lock is taken once.
func (w *body) rows(d *dict.Dict, rel *exec.Relation, n int, open, close byte, cell func(int, rdf.Term, bool)) {
	if n == 0 {
		return
	}
	v := d.View()
	defer v.Release()
	for i := 0; i < n; i++ {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.b = append(append(w.b, "\n    "...), open)
		for j, id := range rel.Row(i) {
			if j > 0 {
				w.b = append(w.b, ',')
			}
			t, clean := v.Decode(id)
			cell(j, t, clean)
		}
		w.b = append(w.b, close)
	}
	w.b = append(w.b, "\n  "...)
}

// field appends a top-level field holding v as writeJSON renders it;
// nothing for a nil v.
func (w *body) field(name string, v *ExplainJSON) error {
	if v == nil {
		return nil
	}
	m, err := json.MarshalIndent(v, "  ", "  ")
	w.b = append(append(append(append(w.b, ",\n  \""...), name...), "\": "...), m...)
	return err
}

// meta appends the top-level field meta holding m byte for byte as
// writeJSON renders it, field by field in MetaJSON's order with its
// omitempty rules. A float field holding NaN or an infinity, which the
// encoder refuses, appends nothing and returns the encoder's error.
func (w *body) meta(m *MetaJSON) error {
	floats := [...]float64{m.ParseMillis, m.PrepMillis, m.EvalMillis, m.SerializeMillis, m.TotalMillis, m.EstimatedCost, m.QueueWaitMillis}
	for _, f := range floats {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			_, err := json.Marshal(f)
			return err
		}
	}
	w.b = appendEncoderString(append(w.b, ",\n  \"meta\": {\n    \"strategy\": "...), m.Strategy)
	if m.Cover != "" {
		w.b = appendEncoderString(w.key("cover"), m.Cover)
	}
	w.b = strconv.AppendInt(w.key("reformulationCQs"), int64(m.ReformulationCQs), 10)
	for i, name := range [...]string{"parseMillis", "prepMillis", "evalMillis", "serializeMillis", "totalMillis"} {
		w.b = appendEncoderFloat(w.key(name), floats[i])
	}
	if m.CachedPlan {
		w.b = append(w.key("cachedPlan"), "true"...)
	}
	if m.EstimatedCost != 0 {
		w.b = appendEncoderFloat(w.key("estimatedCost"), m.EstimatedCost)
	}
	if m.CachedFragments != 0 {
		w.b = strconv.AppendInt(w.key("cachedFragments"), int64(m.CachedFragments), 10)
	}
	if m.QueueWaitMillis != 0 {
		w.b = appendEncoderFloat(w.key("queueWaitMillis"), m.QueueWaitMillis)
	}
	if m.AdmissionWeight != 0 {
		w.b = strconv.AppendInt(w.key("admissionWeight"), int64(m.AdmissionWeight), 10)
	}
	w.b = append(w.b, "\n  }"...)
	return nil
}

// key appends the key of a field of meta after its first, and returns the
// buffer.
func (w *body) key(name string) []byte {
	return append(append(append(w.b, ",\n    \""...), name...), "\": "...)
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
// are stamped once the rows are in. An explain or a meta the encoder
// refuses (a NaN or infinite number) answers 500 with the error envelope
// instead, as writeOK does.
func (s *Server) writeQueryResponse(rw http.ResponseWriter, resp *QueryResponse, d *dict.Dict, rel *exec.Relation, n int, start, serStart time.Time) {
	w := &body{b: make([]byte, 0, 1024+64*n*len(resp.Columns))}
	w.b = append(w.b, "{\n  \"columns\": "...)
	w.strs(resp.Columns)
	w.b = append(w.b, ",\n  \"rows\": ["...)
	w.rows(d, rel, n, '[', ']', func(_ int, t rdf.Term, clean bool) { w.cell(t, clean) })
	w.b = strconv.AppendInt(append(w.b, "],\n  \"total\": "...), int64(resp.Total), 10)
	if resp.Truncated {
		w.b = append(w.b, ",\n  \"truncated\": true"...)
	}
	if resp.RequestID != "" {
		w.b = append(w.b, ",\n  \"requestId\": "...)
		w.str(resp.RequestID)
	}
	err := w.field("explain", resp.Explain)
	if err == nil {
		if !serStart.IsZero() {
			resp.Meta.SerializeMillis = millisSince(serStart)
		}
		resp.Meta.TotalMillis = millisSince(start)
		err = w.meta(&resp.Meta)
	}
	if err != nil {
		s.writeError(rw, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	w.b = append(w.b, "\n}\n"...)
	w.send(rw, "application/json")
}

// writeSPARQLJSON writes the first n rows of rel as a W3C SPARQL 1.1 JSON
// results document (SPARQLResults), one binding per line. Unbound is
// impossible here (BGP answers are total), so every variable appears in
// every binding. A value the dictionary found clean is copied as it is.
func writeSPARQLJSON(rw http.ResponseWriter, d *dict.Dict, rel *exec.Relation, n int) {
	w := &body{b: make([]byte, 0, 256+96*n*len(rel.Vars))}
	w.b = append(w.b, "{\n  \"head\": {\"vars\": "...)
	w.strs(rel.Vars)
	w.b = append(w.b, "},\n  \"results\": {\"bindings\": ["...)
	w.rows(d, rel, n, '{', '}', func(j int, t rdf.Term, clean bool) {
		w.str(rel.Vars[j])
		switch t.Kind {
		case rdf.IRI:
			w.b = append(w.b, `:{"type":"uri","value":`...)
		case rdf.Blank:
			w.b = append(w.b, `:{"type":"bnode","value":`...)
		default:
			w.b = append(w.b, `:{"type":"literal","value":`...)
		}
		if clean {
			w.b = append(append(append(w.b, '"'), t.Value...), '"')
		} else {
			w.str(t.Value)
		}
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

// appendEncoderString appends s as encoding/json writes a string, which
// also escapes <, >, & and U+2028 and U+2029 for HTML: a string with no
// byte to escape is copied, any other is left to the encoder.
func appendEncoderString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			m, _ := json.Marshal(s) // a string always marshals
			return append(b, m...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendEncoderFloat appends f, a finite number, as encoding/json writes a
// float64: like strconv's shortest 'f' form, but 'e' below 1e-6 and from
// 1e21, with a one-digit negative exponent not padded to two.
func appendEncoderFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSONString appends s as a JSON string that encoding/json decodes to
// what it decodes from its own encoding of s: quotes, backslashes and
// control characters escaped, each byte of invalid UTF-8 replaced by
// U+FFFD. Bytes that need no escape are copied a run at a time.
func appendJSONString[S string | []byte](b []byte, s S) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0 // s[start:i] is copied as it is
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			// At most utf8.UTFMax bytes are converted, so a []byte's copy
			// stays on the stack.
			if r, size := utf8.DecodeRuneInString(string(s[i:min(len(s), i+utf8.UTFMax)])); r != utf8.RuneError || size != 1 {
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
