package ntriples

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"repro/internal/rdf"
)

func TestParseNTriplesBasic(t *testing.T) {
	in := `<http://s> <http://p> <http://o> .
<http://s> <http://p> "lit" .
<http://s> <http://p> "lit"@en .
<http://s> <http://p> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b0 <http://p> _:b1 .
# a comment
<http://s> <http://p> "esc\"aped\n" .`
	ts, err := ParseString(in)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(ts) != 6 {
		t.Fatalf("want 6 triples, got %d", len(ts))
	}
	if ts[2].O != rdf.NewLangLiteral("lit", "en") {
		t.Errorf("lang literal parsed as %v", ts[2].O)
	}
	if ts[3].O != rdf.NewTypedLiteral("1", rdf.XSDInteger) {
		t.Errorf("typed literal parsed as %v", ts[3].O)
	}
	if ts[4].S != rdf.NewBlank("b0") || ts[4].O != rdf.NewBlank("b1") {
		t.Errorf("blank nodes parsed as %v", ts[4])
	}
	if ts[5].O != rdf.NewLiteral("esc\"aped\n") {
		t.Errorf("escapes parsed as %v", ts[5].O)
	}
}

func TestParseTurtleSubset(t *testing.T) {
	in := `@prefix ex: <http://example.org/> .
ex:s a ex:Class ;
     ex:p ex:o1 , ex:o2 ;
     ex:q "v" .
ex:t rdfs:subClassOf ex:u .
ex:n ex:count 42 .
ex:b ex:flag true .`
	ts, err := ParseString(in)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(ts) != 7 {
		t.Fatalf("want 7 triples, got %d:\n%s", len(ts), rdf.FormatTriples(ts))
	}
	if ts[0].P != rdf.Type {
		t.Errorf(`"a" should expand to rdf:type, got %v`, ts[0].P)
	}
	if ts[1].O != rdf.NewIRI("http://example.org/o1") || ts[2].O != rdf.NewIRI("http://example.org/o2") {
		t.Error("comma abbreviation wrong")
	}
	if ts[4].P != rdf.SubClassOf {
		t.Errorf("well-known rdfs prefix should be pre-declared, got %v", ts[4].P)
	}
	if ts[5].O != rdf.NewTypedLiteral("42", rdf.XSDInteger) {
		t.Errorf("integer shorthand parsed as %v", ts[5].O)
	}
	if ts[6].O.Value != "true" {
		t.Errorf("boolean shorthand parsed as %v", ts[6].O)
	}
}

func TestParseUnicodeEscapes(t *testing.T) {
	ts, err := ParseString(`<http://s> <http://p> "é\U0001F600" .`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if ts[0].O.Value != "é😀" {
		t.Fatalf("unicode escapes parsed as %q", ts[0].O.Value)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"unterminated-iri", `<http://s <http://p> <http://o> .`},
		{"missing-dot", `<http://s> <http://p> <http://o>`},
		{"literal-subject", `"lit" <http://p> <http://o> .`},
		{"blank-predicate", `<http://s> _:b <http://o> .`},
		{"undeclared-prefix", `foo:s <http://p> <http://o> .`},
		{"bad-escape", `<http://s> <http://p> "a\q" .`},
		{"empty-iri", `<> <http://p> <http://o> .`},
		{"bad-directive", `@nonsense <http://x> .`},
		{"literal-predicate", `<http://s> "p" <http://o> .`},
		{"unterminated-literal", `<http://s> <http://p> "abc`},
		{"lone-caret", `<http://s> <http://p> "v"^<x> .`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseString(c.in)
			if err == nil {
				t.Fatalf("parse of %q should fail", c.in)
			}
			var se *SyntaxError
			if !asSyntaxError(err, &se) {
				t.Fatalf("want *SyntaxError, got %T: %v", err, err)
			}
			if se.Line < 1 {
				t.Fatalf("error without position: %v", se)
			}
		})
	}
}

func asSyntaxError(err error, out **SyntaxError) bool {
	se, ok := err.(*SyntaxError)
	if ok {
		*out = se
	}
	return ok
}

func TestParseEmptyAndComments(t *testing.T) {
	for _, in := range []string{"", "   \n\t ", "# only a comment\n", "# c1\n#c2"} {
		ts, err := ParseString(in)
		if err != nil {
			t.Fatalf("parse %q: %v", in, err)
		}
		if len(ts) != 0 {
			t.Fatalf("parse %q: want 0 triples, got %d", in, len(ts))
		}
	}
}

// Property: Write then ParseAll is the identity on well-formed triples.
func TestWriteParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ts := randomTriples(r)
		var buf bytes.Buffer
		if err := Write(&buf, ts); err != nil {
			return false
		}
		back, err := ParseAll(&buf)
		if err != nil {
			return false
		}
		if len(ts) != len(back) {
			return false
		}
		for i := range ts {
			if ts[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func randomTriples(r *rand.Rand) []rdf.Triple {
	n := r.Intn(12)
	out := make([]rdf.Triple, 0, n)
	subj := func() rdf.Term {
		if r.Intn(4) == 0 {
			return rdf.NewBlank(fmt.Sprintf("b%d", r.Intn(5)))
		}
		return rdf.NewIRI(fmt.Sprintf("http://s/%d", r.Intn(6)))
	}
	obj := func() rdf.Term {
		switch r.Intn(5) {
		case 0:
			return rdf.NewBlank(fmt.Sprintf("b%d", r.Intn(5)))
		case 1:
			return rdf.NewLiteral(randomLit(r))
		case 2:
			return rdf.NewLangLiteral(randomLit(r), "en")
		case 3:
			return rdf.NewTypedLiteral(randomLit(r), rdf.XSDString)
		default:
			return rdf.NewIRI(fmt.Sprintf("http://o/%d", r.Intn(6)))
		}
	}
	for i := 0; i < n; i++ {
		out = append(out, rdf.NewTriple(subj(), rdf.NewIRI(fmt.Sprintf("http://p/%d", r.Intn(4))), obj()))
	}
	return out
}

func randomLit(r *rand.Rand) string {
	chars := []string{"a", "β", `"`, `\`, "\n", "\t", " ", "z"}
	var sb strings.Builder
	for i := r.Intn(6); i > 0; i-- {
		sb.WriteString(chars[r.Intn(len(chars))])
	}
	return sb.String()
}

func TestParserStreaming(t *testing.T) {
	p := NewParser(strings.NewReader("<http://a> <http://b> <http://c> .\n<http://d> <http://e> <http://f> ."))
	first, err := p.Next()
	if err != nil || len(first) != 1 {
		t.Fatalf("first: %v %v", first, err)
	}
	second, err := p.Next()
	if err != nil || len(second) != 1 {
		t.Fatalf("second: %v %v", second, err)
	}
	if _, err := p.Next(); err == nil {
		t.Fatal("want EOF after second statement")
	}
}

func TestBaseDirective(t *testing.T) {
	ts, err := ParseString("@base <http://base/> .\n<rel> <http://p> <other> .")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if ts[0].S.Value != "http://base/rel" {
		t.Fatalf("base not applied: %v", ts[0].S)
	}
	if ts[0].O.Value != "http://base/other" {
		t.Fatalf("base not applied to object: %v", ts[0].O)
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := ParseString(`<http://s> <http://p>`)
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("want *SyntaxError, got %T", err)
	}
	msg := se.Error()
	if !strings.Contains(msg, "line 1") {
		t.Fatalf("message: %s", msg)
	}
}

// ParseString reads through a buffer sized by its input: parsing a short
// document allocates far less than a 64 KiB stream buffer.
func TestParseStringBufferFitsInput(t *testing.T) {
	doc := "<http://example.org/a> <http://example.org/p> <http://example.org/o> .\n"
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ParseString(doc); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 16<<10 {
		t.Fatalf("parsing a %d-byte document allocates %d bytes", len(doc), per)
	}
}

// An IRI taken from the read buffer at once parses to what the rune-by-rune
// loop makes of it, errors and their positions included: each document is
// parsed from a string (the whole document buffered) and one byte per read
// (never a whole IRI buffered).
func TestBufferedIRIsParseAsRuneByRune(t *testing.T) {
	docs := []string{
		"<http://a/s> <http://a/p> <http://a/o> .\n<http://a/s> <http://a/q> \"x\" .\n",
		"<http://a/é> <http://a/p> <http://a/o€> .\n",
		"<http://a/s> <http://a/p> <http://a/o> .\n<http://a/s p> <http://a/p> <http://a/o> .\n",
		"<http://a/s> <http://a/p> <http://a/o\n> .\n",
		"<http://a/s\t> <http://a/p> <http://a/o\x01> .\n",
		"<> <http://a/p> <http://a/o> .\n",
		"<http://a/s> <http://a/p> <http://a/o",
		"<http://a/s> <http://a/p> <http://a/o> <http://a/x> .\n",
		"@base <http://b/> .\n<s> <p> <http://a/o> .\n",
		"<http://a/\xff> <http://a/p> <http://a/o> .\n",
	}
	for _, doc := range docs {
		whole, werr := ParseString(doc)
		bytewise, berr := parseAll(NewParser(iotest.OneByteReader(strings.NewReader(doc))))
		if fmt.Sprint(werr) != fmt.Sprint(berr) || !slices.Equal(whole, bytewise) {
			t.Errorf("%q:\nbuffered %v, %v\nbytewise %v, %v", doc, whole, werr, bytewise, berr)
		}
	}
}
