package rdf

import (
	"fmt"
	"sort"
	"strings"
)

// Triple is one RDF statement: subject s has property p with value o.
type Triple struct {
	S, P, O Term
}

// NewTriple builds a triple from three terms.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// WellFormed reports whether the triple respects the W3C grammar: the
// subject is an IRI or blank node, the property is an IRI, and the object is
// any term; all three must be individually valid.
func (t Triple) WellFormed() bool {
	if !t.S.Valid() || !t.P.Valid() || !t.O.Valid() {
		return false
	}
	if t.S.Kind == Literal {
		return false
	}
	return t.P.Kind == IRI
}

// String renders the triple in N-Triples syntax (without trailing newline).
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s .", t.S, t.P, t.O)
}

// Compare orders triples lexicographically by (S, P, O).
func (t Triple) Compare(u Triple) int {
	if c := t.S.Compare(u.S); c != 0 {
		return c
	}
	if c := t.P.Compare(u.P); c != 0 {
		return c
	}
	return t.O.Compare(u.O)
}

// SortTriples orders a slice of triples deterministically, in place.
func SortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

// DedupTriples sorts ts and removes duplicates, returning the shortened
// slice (set semantics: an RDF graph is a *set* of triples).
func DedupTriples(ts []Triple) []Triple {
	if len(ts) < 2 {
		return ts
	}
	SortTriples(ts)
	out := ts[:1]
	for _, t := range ts[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// Val returns Val(G): the set of values (IRIs, blank nodes and literals)
// occurring in the given triples, in deterministic order.
func Val(ts []Triple) []Term {
	seen := make(map[Term]bool, len(ts))
	for _, t := range ts {
		seen[t.S], seen[t.P], seen[t.O] = true, true, true
	}
	out := make([]Term, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// FormatTriples renders triples one per line in N-Triples syntax.
func FormatTriples(ts []Triple) string {
	var sb strings.Builder
	for _, t := range ts {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
