package datalog

import (
	"context"

	"repro/internal/dict"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/rdf"
)

// TriplePred is the predicate holding all RDF triples in the encoding.
const TriplePred = "triple"

// AnswerPred is the predicate the encoded query's answers accumulate in.
const AnswerPred = "answer"

// EncodeGraph builds the Datalog program for a graph: one triple/3 fact per
// triple of AllTriples (data and closed-schema triples), plus the RDFS
// entailment rules encoded over triple/3 with the built-in vocabulary as
// constants — the demo's "simple encoding of the RDF data, constraints and
// queries into Datalog programs". The schema arrives closed and strict, so no
// ⊑sc/⊑sp transitivity rule: it could add only a cycle's c ⊑ c (DESIGN §4).
func EncodeGraph(g *graph.Graph) *Program {
	d := g.Dict()
	typeID := d.EncodeIRI(rdf.TypeIRI)
	scID := d.EncodeIRI(rdf.SubClassOfIRI)
	spID := d.EncodeIRI(rdf.SubPropertyOfIRI)
	domID := d.EncodeIRI(rdf.DomainIRI)
	rngID := d.EncodeIRI(rdf.RangeIRI)

	all := g.AllTriples()
	p := &Program{Facts: make([]Fact, 0, len(all))}
	for _, t := range all {
		p.Facts = append(p.Facts, Fact{Pred: TriplePred, Args: []dict.ID{t.S, t.P, t.O}})
	}

	v := query.Variable
	c := query.Constant
	triple := func(s, pr, o query.Arg) Atom { return Atom{Pred: TriplePred, Args: []query.Arg{s, pr, o}} }

	p.Rules = append(p.Rules,
		// rdfs9: type propagation through subClassOf.
		Rule{Head: triple(v("S"), c(typeID), v("C2")),
			Body: []Atom{triple(v("S"), c(typeID), v("C1")), triple(v("C1"), c(scID), v("C2"))}},
		// rdfs7: triple propagation through subPropertyOf.
		Rule{Head: triple(v("S"), v("P2"), v("O")),
			Body: []Atom{triple(v("S"), v("P1"), v("O")), triple(v("P1"), c(spID), v("P2"))}},
		// rdfs2: domain typing.
		Rule{Head: triple(v("S"), c(typeID), v("C")),
			Body: []Atom{triple(v("S"), v("P"), v("O")), triple(v("P"), c(domID), v("C"))}},
		// rdfs3: range typing.
		Rule{Head: triple(v("O"), c(typeID), v("C")),
			Body: []Atom{triple(v("S"), v("P"), v("O")), triple(v("P"), c(rngID), v("C"))}},
		// Downward domain/range inheritance through subPropertyOf.
		Rule{Head: triple(v("P1"), c(domID), v("C")),
			Body: []Atom{triple(v("P1"), c(spID), v("P2")), triple(v("P2"), c(domID), v("C"))}},
		Rule{Head: triple(v("P1"), c(rngID), v("C")),
			Body: []Atom{triple(v("P1"), c(spID), v("P2")), triple(v("P2"), c(rngID), v("C"))}},
	)
	return p
}

// AddQuery appends the query rule answer(head) :- triple(...), … to the
// program. Constant head arguments (from reformulation bindings) are
// supported but unusual here: Dat encodes the *original* query.
func AddQuery(p *Program, q query.CQ) error {
	if err := q.Validate(); err != nil {
		return err
	}
	body := make([]Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		body[i] = Atom{Pred: TriplePred, Args: []query.Arg{a.S, a.P, a.O}}
	}
	p.Rules = append(p.Rules, Rule{
		Head: Atom{Pred: AnswerPred, Args: append([]query.Arg(nil), q.Head...)},
		Body: body,
	})
	return nil
}

// AnswerContext runs the full Dat pipeline for a query over a graph and
// returns the sorted answer tuples. The engine's fixpoint stops between
// semi-naive rounds when ctx is canceled.
func AnswerContext(ctx context.Context, g *graph.Graph, q query.CQ) ([][]dict.ID, error) {
	p := EncodeGraph(g)
	if err := AddQuery(p, q); err != nil {
		return nil, err
	}
	e, err := RunContext(ctx, p)
	if err != nil {
		return nil, err
	}
	return e.Tuples(AnswerPred), nil
}
