// Package ntriples parses and serializes RDF triples in N-Triples syntax,
// plus a pragmatic subset of Turtle (@prefix directives, prefixed names, the
// "a" keyword, ";" and "," abbreviations, integer/boolean shorthand
// literals). The demo scenarios (LUBM, INSEE-like, IGN-like, DBLP-like) are
// materialized to and loaded from this format.
package ntriples

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/rdf"
)

// SyntaxError reports a parse failure with line/column position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("ntriples: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// Parser reads triples from a stream.
type Parser struct {
	r        *bufio.Reader
	line     int
	col      int
	prefixes map[string]string
	base     string
	// peeked rune support
	peeked   rune
	havePeek bool
	eof      bool
	// iri is parseIRIRef's scratch, reused from one IRI to the next.
	iri []byte
}

// NewParser returns a parser over r with the well-known rdf/rdfs/xsd
// prefixes pre-declared, reading it through a 64 KiB buffer.
func NewParser(r io.Reader) *Parser { return newParser(r, 1<<16) }

// newParser is NewParser with a read buffer of size bytes (bufio's minimum
// at least).
func newParser(r io.Reader, size int) *Parser {
	p := &Parser{
		r:        bufio.NewReaderSize(r, size),
		line:     1,
		col:      0,
		prefixes: make(map[string]string, 8),
	}
	for k, v := range rdf.WellKnownPrefixes {
		p.prefixes[k] = v
	}
	return p
}

// ParseString parses all triples from a string. Its read buffer is sized by
// the string, up to NewParser's: an update body of a few kilobytes does not
// pay for a 64 KiB one.
func ParseString(s string) ([]rdf.Triple, error) {
	return parseAll(newParser(strings.NewReader(s), min(len(s), 1<<16)))
}

// ParseAll parses every triple in the stream.
func ParseAll(r io.Reader) ([]rdf.Triple, error) { return parseAll(NewParser(r)) }

func parseAll(p *Parser) ([]rdf.Triple, error) {
	var out []rdf.Triple
	for {
		t, err := p.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t...)
	}
}

// Next returns the triples produced by the next statement (a Turtle
// statement with ";"/"," abbreviations can yield several). It returns
// io.EOF when the stream is exhausted.
func (p *Parser) Next() ([]rdf.Triple, error) {
	for {
		if err := p.skipWS(); err != nil {
			return nil, err
		}
		r, err := p.peek()
		if err != nil {
			return nil, err
		}
		if r == '@' {
			if err := p.parseDirective(); err != nil {
				return nil, err
			}
			continue
		}
		return p.parseStatement()
	}
}

func (p *Parser) parseDirective() error {
	word, err := p.readWord()
	if err != nil {
		return err
	}
	switch word {
	case "@prefix":
		if err := p.skipWS(); err != nil {
			return p.errf("unterminated @prefix")
		}
		pfx, err := p.readUntil(':')
		if err != nil {
			return p.errf("@prefix: missing ':'")
		}
		if err := p.skipWS(); err != nil {
			return p.errf("@prefix: missing IRI")
		}
		iri, err := p.parseIRIRef()
		if err != nil {
			return err
		}
		p.prefixes[pfx] = iri.Value
		return p.expectDot()
	case "@base":
		if err := p.skipWS(); err != nil {
			return p.errf("@base: missing IRI")
		}
		iri, err := p.parseIRIRef()
		if err != nil {
			return err
		}
		p.base = iri.Value
		return p.expectDot()
	default:
		return p.errf("unknown directive %q", word)
	}
}

func (p *Parser) parseStatement() ([]rdf.Triple, error) {
	subj, err := p.parseTerm(posSubject)
	if err != nil {
		return nil, err
	}
	var out []rdf.Triple
	for {
		if err := p.skipWS(); err != nil {
			return nil, p.errf("unterminated statement")
		}
		pred, err := p.parseTerm(posPredicate)
		if err != nil {
			return nil, err
		}
		for {
			if err := p.skipWS(); err != nil {
				return nil, p.errf("unterminated statement")
			}
			obj, err := p.parseTerm(posObject)
			if err != nil {
				return nil, err
			}
			t := rdf.Triple{S: subj, P: pred, O: obj}
			if !t.WellFormed() {
				return nil, p.errf("ill-formed triple %s", t)
			}
			out = append(out, t)
			if err := p.skipWS(); err != nil {
				return nil, p.errf("unterminated statement")
			}
			r, err := p.peek()
			if err != nil {
				return nil, p.errf("unterminated statement")
			}
			if r == ',' {
				p.read()
				continue
			}
			break
		}
		r, err := p.peek()
		if err != nil {
			return nil, p.errf("unterminated statement")
		}
		switch r {
		case ';':
			p.read()
			// Allow a trailing ";" before "." as Turtle does.
			if err := p.skipWS(); err != nil {
				return nil, p.errf("unterminated statement")
			}
			if r2, err := p.peek(); err == nil && r2 == '.' {
				p.read()
				return out, nil
			}
			continue
		case '.':
			p.read()
			return out, nil
		default:
			return nil, p.errf("expected '.', ';' or ',' after object, got %q", string(r))
		}
	}
}

type termPos int

const (
	posSubject termPos = iota
	posPredicate
	posObject
)

func (p *Parser) parseTerm(pos termPos) (rdf.Term, error) {
	r, err := p.peek()
	if err != nil {
		return rdf.Term{}, p.errf("expected term, got end of input")
	}
	switch {
	case r == '<':
		return p.parseIRIRef()
	case r == '_':
		if pos == posPredicate {
			return rdf.Term{}, p.errf("blank node not allowed as predicate")
		}
		return p.parseBlank()
	case r == '"':
		if pos != posObject {
			return rdf.Term{}, p.errf("literal only allowed as object")
		}
		return p.parseLiteral()
	case r == 'a':
		// Could be the "a" keyword or a prefixed name starting with a.
		word, err := p.readName()
		if err != nil {
			return rdf.Term{}, err
		}
		if word == "a" && pos == posPredicate {
			return rdf.Type, nil
		}
		return p.expandPrefixed(word)
	case unicode.IsDigit(r) || r == '-' || r == '+':
		if pos != posObject {
			return rdf.Term{}, p.errf("numeric literal only allowed as object")
		}
		word, err := p.readName()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTypedLiteral(word, rdf.XSDInteger), nil
	default:
		word, err := p.readName()
		if err != nil {
			return rdf.Term{}, err
		}
		if word == "true" || word == "false" {
			if pos != posObject {
				return rdf.Term{}, p.errf("boolean literal only allowed as object")
			}
			return rdf.NewTypedLiteral(word, rdf.XSDNS+"boolean"), nil
		}
		return p.expandPrefixed(word)
	}
}

func (p *Parser) expandPrefixed(word string) (rdf.Term, error) {
	i := strings.IndexByte(word, ':')
	if i < 0 {
		return rdf.Term{}, p.errf("expected prefixed name, got %q", word)
	}
	ns, ok := p.prefixes[word[:i]]
	if !ok {
		return rdf.Term{}, p.errf("undeclared prefix %q", word[:i])
	}
	return rdf.NewIRI(ns + word[i+1:]), nil
}

func (p *Parser) parseIRIRef() (rdf.Term, error) {
	r, _ := p.read()
	if r != '<' {
		return rdf.Term{}, p.errf("expected '<'")
	}
	p.iri = p.iri[:0]
	// An IRI of printable ASCII whose '>' is already buffered is taken up
	// to the '>' at once, as the loop below would take it rune by rune.
	buf, _ := p.r.Peek(p.r.Buffered())
	if i := bytes.IndexByte(buf, '>'); i > 0 && printableASCII(buf[:i]) {
		p.iri = append(p.iri, buf[:i]...)
		_, _ = p.r.Discard(i)
		p.col += i
	}
	for {
		r, err := p.read()
		if err != nil {
			return rdf.Term{}, p.errf("unterminated IRI")
		}
		if r == '>' {
			iri := string(p.iri)
			if iri == "" {
				return rdf.Term{}, p.errf("empty IRI")
			}
			if p.base != "" && !strings.Contains(iri, ":") {
				iri = p.base + iri
			}
			return rdf.NewIRI(iri), nil
		}
		if r == ' ' || r == '\n' {
			return rdf.Term{}, p.errf("whitespace inside IRI")
		}
		p.iri = utf8.AppendRune(p.iri, r)
	}
}

// printableASCII reports whether every byte of b is ASCII above the space.
func printableASCII(b []byte) bool {
	for _, c := range b {
		if c <= ' ' || c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

func (p *Parser) parseBlank() (rdf.Term, error) {
	r, _ := p.read()
	if r != '_' {
		return rdf.Term{}, p.errf("expected '_'")
	}
	r, err := p.read()
	if err != nil || r != ':' {
		return rdf.Term{}, p.errf("expected ':' after '_'")
	}
	label, err := p.readName()
	if err != nil || label == "" {
		return rdf.Term{}, p.errf("empty blank node label")
	}
	return rdf.NewBlank(label), nil
}

func (p *Parser) parseLiteral() (rdf.Term, error) {
	r, _ := p.read()
	if r != '"' {
		return rdf.Term{}, p.errf("expected '\"'")
	}
	var sb strings.Builder
	for {
		r, err := p.read()
		if err != nil {
			return rdf.Term{}, p.errf("unterminated literal")
		}
		if r == '"' {
			break
		}
		if r == '\\' {
			e, err := p.read()
			if err != nil {
				return rdf.Term{}, p.errf("unterminated escape")
			}
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 'r':
				sb.WriteByte('\r')
			case 't':
				sb.WriteByte('\t')
			case '"':
				sb.WriteByte('"')
			case '\\':
				sb.WriteByte('\\')
			case 'u', 'U':
				n := 4
				if e == 'U' {
					n = 8
				}
				var code rune
				for i := 0; i < n; i++ {
					h, err := p.read()
					if err != nil {
						return rdf.Term{}, p.errf("unterminated \\%c escape", e)
					}
					d, ok := hexVal(h)
					if !ok {
						return rdf.Term{}, p.errf("invalid hex digit %q in \\%c escape", string(h), e)
					}
					code = code<<4 | rune(d)
				}
				sb.WriteRune(code)
			default:
				return rdf.Term{}, p.errf("invalid escape \\%c", e)
			}
			continue
		}
		sb.WriteRune(r)
	}
	lex := sb.String()
	// Optional language tag or datatype.
	r, err := p.peek()
	if err == nil && r == '@' {
		p.read()
		lang, err := p.readName()
		if err != nil || lang == "" {
			return rdf.Term{}, p.errf("empty language tag")
		}
		return rdf.NewLangLiteral(lex, lang), nil
	}
	if err == nil && r == '^' {
		p.read()
		r2, err := p.read()
		if err != nil || r2 != '^' {
			return rdf.Term{}, p.errf("expected '^^'")
		}
		r3, err := p.peek()
		if err != nil {
			return rdf.Term{}, p.errf("expected datatype after '^^'")
		}
		if r3 == '<' {
			dt, err := p.parseIRIRef()
			if err != nil {
				return rdf.Term{}, err
			}
			return rdf.NewTypedLiteral(lex, dt.Value), nil
		}
		word, err := p.readName()
		if err != nil {
			return rdf.Term{}, err
		}
		dt, err := p.expandPrefixed(word)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTypedLiteral(lex, dt.Value), nil
	}
	return rdf.NewLiteral(lex), nil
}

// --- low-level scanning -------------------------------------------------

func (p *Parser) read() (rune, error) {
	if p.havePeek {
		p.havePeek = false
		return p.peeked, nil
	}
	if p.eof {
		return 0, io.EOF
	}
	r, _, err := p.r.ReadRune()
	if err != nil {
		p.eof = true
		return 0, io.EOF
	}
	if r == '\n' {
		p.line++
		p.col = 0
	} else {
		p.col++
	}
	return r, nil
}

func (p *Parser) peek() (rune, error) {
	if p.havePeek {
		return p.peeked, nil
	}
	r, err := p.read()
	if err != nil {
		return 0, err
	}
	p.peeked = r
	p.havePeek = true
	return r, nil
}

// skipWS consumes whitespace and #-comments; returns io.EOF at end.
func (p *Parser) skipWS() error {
	for {
		r, err := p.peek()
		if err != nil {
			return err
		}
		switch {
		case r == '#':
			for {
				r, err := p.read()
				if err != nil {
					return err
				}
				if r == '\n' {
					break
				}
			}
		case unicode.IsSpace(r):
			p.read()
		default:
			return nil
		}
	}
}

// readName reads a run of name characters (letters, digits, ':', '_', '-',
// '.', '/', '#' are allowed inside prefixed names' local parts in our
// subset; a trailing '.' is treated as the statement terminator).
func (p *Parser) readName() (string, error) {
	var sb strings.Builder
	for {
		r, err := p.peek()
		if err != nil {
			break
		}
		if unicode.IsLetter(r) || unicode.IsDigit(r) || strings.ContainsRune(":_-+", r) {
			sb.WriteRune(r)
			p.read()
			continue
		}
		if r == '.' {
			// '.' ends the statement unless followed by a name char
			// (e.g. decimal-looking local names); our subset treats a
			// '.' followed by whitespace/EOF as terminator.
			break
		}
		break
	}
	if sb.Len() == 0 {
		r, _ := p.peek()
		return "", p.errf("expected name, got %q", string(r))
	}
	return sb.String(), nil
}

// readWord reads up to the next whitespace.
func (p *Parser) readWord() (string, error) {
	var sb strings.Builder
	for {
		r, err := p.peek()
		if err != nil || unicode.IsSpace(r) {
			break
		}
		sb.WriteRune(r)
		p.read()
	}
	return sb.String(), nil
}

// readUntil reads runes until (and consuming) the separator.
func (p *Parser) readUntil(sep rune) (string, error) {
	var sb strings.Builder
	for {
		r, err := p.read()
		if err != nil {
			return "", err
		}
		if r == sep {
			return sb.String(), nil
		}
		if unicode.IsSpace(r) {
			return "", p.errf("unexpected whitespace before %q", string(sep))
		}
		sb.WriteRune(r)
	}
}

func (p *Parser) expectDot() error {
	if err := p.skipWS(); err != nil {
		return p.errf("expected '.'")
	}
	r, err := p.read()
	if err != nil || r != '.' {
		return p.errf("expected '.'")
	}
	return nil
}

func (p *Parser) errf(format string, args ...any) error {
	return &SyntaxError{Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

func hexVal(r rune) (int, bool) {
	switch {
	case r >= '0' && r <= '9':
		return int(r - '0'), true
	case r >= 'a' && r <= 'f':
		return int(r-'a') + 10, true
	case r >= 'A' && r <= 'F':
		return int(r-'A') + 10, true
	}
	return 0, false
}

// Write serializes triples in N-Triples syntax to w, one per line.
func Write(w io.Writer, ts []rdf.Triple) error {
	sw := NewWriter(w)
	for _, t := range ts {
		if err := sw.WriteTriple(t); err != nil {
			return err
		}
	}
	return sw.Flush()
}

// Writer streams triples one at a time in N-Triples syntax, so callers
// serializing a large graph (e.g. the HTTP /dump route) never materialize
// a decoded []rdf.Triple copy. Callers must Flush when done and must stop
// on the first error (the underlying writer is gone).
type Writer struct {
	bw *bufio.Writer
}

// NewWriter returns a streaming N-Triples writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// WriteTriple serializes one triple followed by a newline.
func (w *Writer) WriteTriple(t rdf.Triple) error {
	if _, err := w.bw.WriteString(t.String()); err != nil {
		return err
	}
	return w.bw.WriteByte('\n')
}

// Flush writes any buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }
