package query

import (
	"reflect"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// Lift and Bind are inverses; what is lifted is exactly a subject, or an
// object under a constant property other than rdf:type, every occurrence
// its own slot; binding copies, so the shape can be bound again.
func TestLiftBind(t *testing.T) {
	d := dict.New()
	q, err := ParseRuleWithPrefixes(d, map[string]string{"ex": "http://ex#"},
		`q(x, p) :- ex:a rdf:type ex:C, x ex:knows ex:a, ex:a p ex:b, x rdfs:subClassOf ex:C, x ex:knows y`)
	if err != nil {
		t.Fatal(err)
	}
	shape, params := Lift(q, d.EncodeIRI(rdf.TypeIRI))
	a, c := q.Atoms[0].S.ID, q.Atoms[0].O.ID
	if want := []dict.ID{a, a, a, c}; !reflect.DeepEqual(params, want) {
		t.Fatalf("params %v, want %v", params, want)
	}
	if got := FormatCQ(d, shape); got != "q(x, p) :- $1 <"+rdf.TypeIRI+"> <http://ex#C>, x <http://ex#knows> $2, "+
		"$3 p <http://ex#b>, x <"+rdf.SubClassOfIRI+"> $4, x <http://ex#knows> y" {
		t.Fatalf("shape %s", got)
	}
	if back := shape.Bind(params); !reflect.DeepEqual(back.Atoms, q.Atoms) {
		t.Fatalf("bound back: %s", FormatCQ(d, back))
	}

	// A fragment's members bind into one allocation they do not overrun,
	// and leave the shape as it was; so do the members of a fragment without
	// merged ones, which are its UCQ's.
	u := UCQ{HeadNames: []string{"x"}, CQs: []CQ{
		{Head: shape.Head, Atoms: shape.Atoms[:2]},
		{Head: shape.Head, Atoms: shape.Atoms[2:]},
	}}
	b1 := Fragment{UCQ: u, Members: u.Lift()}.Bind(params).Members
	b2 := Fragment{UCQ: u}.Bind([]dict.ID{c, c, c, a}).Members
	if b1[0].Atoms[1].O.Arg.ID != a || b2[0].Atoms[1].O.Arg.ID != c || b1[1].Atoms[1].O.Arg.ID != c {
		t.Fatalf("bound unions: %v and %v", b1, b2)
	}
	b1[0].Atoms = append(b1[0].Atoms, RangeAtom{})
	if !reflect.DeepEqual(b1[1], CQ{Head: q.Head, Atoms: q.Atoms[2:]}.Lift()) {
		t.Fatal("appending to one bound member overwrote the next")
	}
	if slot, ok := u.CQs[0].Atoms[1].O.Slot(); !ok || slot != 1 {
		t.Fatal("binding wrote to the shape")
	}
}
