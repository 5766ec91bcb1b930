package rdf

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	cases := []struct {
		term Term
		kind Kind
	}{
		{NewIRI("http://x"), IRI},
		{NewLiteral("abc"), Literal},
		{NewLangLiteral("abc", "en"), Literal},
		{NewTypedLiteral("1", XSDInteger), Literal},
		{NewBlank("b0"), Blank},
	}
	for _, c := range cases {
		if c.term.Kind != c.kind {
			t.Errorf("%v: want kind %v, got %v", c.term, c.kind, c.term.Kind)
		}
		if !c.term.Valid() {
			t.Errorf("%v should be valid", c.term)
		}
	}
}

func TestTermValidity(t *testing.T) {
	invalid := []Term{
		{},                                       // empty IRI
		{Kind: IRI},                              // empty IRI value
		{Kind: Blank},                            // empty label
		{Kind: IRI, Value: "x", Lang: "en"},      // IRI with lang
		{Kind: Blank, Value: "b", Datatype: "x"}, // blank with datatype
		{Kind: Literal, Value: "v", Datatype: "d", Lang: "en"}, // both
		{Kind: Kind(9), Value: "v"},                            // unknown kind
	}
	for _, term := range invalid {
		if term.Valid() {
			t.Errorf("%#v should be invalid", term)
		}
	}
	if !NewLiteral("").Valid() {
		t.Error("empty literal is a valid term")
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://x/y"), "<http://x/y>"},
		{NewLiteral("hi"), `"hi"`},
		{NewLangLiteral("hi", "en"), `"hi"@en`},
		{NewTypedLiteral("1", XSDInteger), `"1"^^<` + XSDInteger + ">"},
		{NewBlank("b1"), "_:b1"},
		{NewLiteral("a\"b\\c\nd"), `"a\"b\\c\nd"`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestCompareTotalOrder(t *testing.T) {
	terms := []Term{
		NewIRI("a"), NewIRI("b"),
		NewLiteral("a"), NewLangLiteral("a", "en"), NewTypedLiteral("a", "dt"),
		NewBlank("a"), NewBlank("b"),
	}
	for i, a := range terms {
		if a.Compare(a) != 0 {
			t.Errorf("%v not equal to itself", a)
		}
		for j, b := range terms {
			c1, c2 := a.Compare(b), b.Compare(a)
			if c1 != -c2 {
				t.Errorf("compare(%v,%v)=%d but reverse=%d", a, b, c1, c2)
			}
			if (i == j) != (c1 == 0) {
				t.Errorf("compare(%v,%v)=%d, want equality iff same", a, b, c1)
			}
		}
	}
}

func TestTripleWellFormed(t *testing.T) {
	iri := NewIRI("http://x")
	lit := NewLiteral("v")
	blank := NewBlank("b")
	cases := []struct {
		tr   Triple
		want bool
	}{
		{NewTriple(iri, iri, iri), true},
		{NewTriple(iri, iri, lit), true},
		{NewTriple(blank, iri, blank), true},
		{NewTriple(lit, iri, iri), false},   // literal subject
		{NewTriple(iri, lit, iri), false},   // literal predicate
		{NewTriple(iri, blank, iri), false}, // blank predicate
		{NewTriple(Term{}, iri, iri), false},
	}
	for _, c := range cases {
		if got := c.tr.WellFormed(); got != c.want {
			t.Errorf("WellFormed(%v) = %v, want %v", c.tr, got, c.want)
		}
	}
}

func TestDedupTriples(t *testing.T) {
	a := NewTriple(NewIRI("s"), NewIRI("p"), NewIRI("o"))
	b := NewTriple(NewIRI("s"), NewIRI("p"), NewLiteral("o"))
	got := DedupTriples([]Triple{a, b, a, a, b})
	if len(got) != 2 {
		t.Fatalf("want 2 distinct triples, got %d", len(got))
	}
	if got[0].Compare(got[1]) >= 0 {
		t.Fatal("result not sorted")
	}
}

func TestVal(t *testing.T) {
	s, p := NewIRI("s"), NewIRI("p")
	o1, o2 := NewLiteral("x"), NewBlank("b")
	vals := Val([]Triple{NewTriple(s, p, o1), NewTriple(s, p, o2)})
	if len(vals) != 4 {
		t.Fatalf("want 4 values, got %d: %v", len(vals), vals)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i-1].Compare(vals[i]) >= 0 {
			t.Fatal("Val not sorted")
		}
	}
}

func TestIsSchemaTriple(t *testing.T) {
	s := NewIRI("s")
	if !IsSchemaTriple(NewTriple(s, SubClassOf, NewIRI("c"))) {
		t.Error("subClassOf should be a schema triple")
	}
	if IsSchemaTriple(NewTriple(s, Type, NewIRI("c"))) {
		t.Error("rdf:type alone is not a schema triple")
	}
	if IsSchemaTriple(NewTriple(s, NewIRI("p"), NewIRI("o"))) {
		t.Error("plain property is not a schema triple")
	}
}

func TestFormatTriples(t *testing.T) {
	tr := NewTriple(NewIRI("s"), NewIRI("p"), NewLiteral("o"))
	out := FormatTriples([]Triple{tr, tr})
	if strings.Count(out, "\n") != 2 {
		t.Fatalf("want 2 lines, got %q", out)
	}
	if !strings.Contains(out, `<s> <p> "o" .`) {
		t.Fatalf("unexpected rendering: %q", out)
	}
}

func TestKindString(t *testing.T) {
	if IRI.String() != "IRI" || Literal.String() != "Literal" || Blank.String() != "Blank" {
		t.Fatal("kind names wrong")
	}
	if !strings.Contains(Kind(7).String(), "7") {
		t.Fatal("unknown kind should include number")
	}
}

func TestSortTriplesDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var ts []Triple
		for i := 0; i < 10; i++ {
			ts = append(ts, NewTriple(
				NewIRI(string(rune('a'+r.Intn(3)))),
				NewIRI(string(rune('p'+r.Intn(2)))),
				NewLiteral(string(rune('x'+r.Intn(3))))))
		}
		a := append([]Triple(nil), ts...)
		b := append([]Triple(nil), ts...)
		rand.New(rand.NewSource(seed+1)).Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		SortTriples(a)
		SortTriples(b)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindPredicates(t *testing.T) {
	if !NewIRI("x").IsIRI() || NewIRI("x").IsLiteral() || NewIRI("x").IsBlank() {
		t.Fatal("IRI predicates wrong")
	}
	if !NewLiteral("v").IsLiteral() || !NewBlank("b").IsBlank() {
		t.Fatal("literal/blank predicates wrong")
	}
}
