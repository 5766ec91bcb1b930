// Package rdf defines the RDF data model used throughout the repository:
// terms (IRIs, literals, blank nodes), triples, and the well-known RDF and
// RDFS vocabulary. It corresponds to the "RDF Graphs" preliminaries of the
// paper (§3): a graph is a set of well-formed triples s p o whose values are
// drawn from IRIs (U), blank nodes (B) and literals (L).
package rdf

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Kind discriminates the three families of RDF values.
type Kind uint8

const (
	// IRI is an internationalized resource identifier (the W3C spec's URI
	// generalisation); subjects, properties and objects may be IRIs.
	IRI Kind = iota
	// Literal is a (possibly typed or language-tagged) constant; literals
	// may only appear in object position of well-formed triples.
	Literal
	// Blank is a blank node, a form of incomplete information standing for
	// an unknown IRI or literal; blank nodes may appear as subject or
	// object.
	Blank
)

// String returns the kind name, for diagnostics.
func (k Kind) String() string {
	switch k {
	case IRI:
		return "IRI"
	case Literal:
		return "Literal"
	case Blank:
		return "Blank"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Term is one RDF value. The zero Term is not valid; construct terms with
// NewIRI, NewLiteral, NewLangLiteral, NewTypedLiteral or NewBlank.
type Term struct {
	// Kind tells whether the term is an IRI, a literal or a blank node.
	Kind Kind
	// Value holds the IRI string, the literal's lexical form, or the blank
	// node label (without the "_:" prefix).
	Value string
	// Datatype is the datatype IRI for typed literals, empty otherwise.
	Datatype string
	// Lang is the language tag for language-tagged literals, empty
	// otherwise.
	Lang string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain (untyped, untagged) literal term.
func NewLiteral(lexical string) Term { return Term{Kind: Literal, Value: lexical} }

// NewLangLiteral returns a language-tagged literal term.
func NewLangLiteral(lexical, lang string) Term {
	return Term{Kind: Literal, Value: lexical, Lang: lang}
}

// NewTypedLiteral returns a datatyped literal term.
func NewTypedLiteral(lexical, datatype string) Term {
	return Term{Kind: Literal, Value: lexical, Datatype: datatype}
}

// NewBlank returns a blank node term with the given label (no "_:" prefix).
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// Valid reports whether the term is well-formed: non-empty IRI or blank
// label, and no simultaneous datatype and language tag.
func (t Term) Valid() bool {
	switch t.Kind {
	case IRI, Blank:
		return t.Value != "" && t.Datatype == "" && t.Lang == ""
	case Literal:
		return !(t.Datatype != "" && t.Lang != "")
	default:
		return false
	}
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	var buf [64]byte
	return string(t.AppendTo(buf[:0]))
}

// AppendTo appends the term's N-Triples form (String) to b.
func (t Term) AppendTo(b []byte) []byte {
	switch t.Kind {
	case IRI:
		return append(append(append(b, '<'), t.Value...), '>')
	case Blank:
		return append(append(b, "_:"...), t.Value...)
	case Literal:
		b = append(appendLiteral(append(b, '"'), t.Value), '"')
		switch {
		case t.Lang != "":
			b = append(append(b, '@'), t.Lang...)
		case t.Datatype != "":
			b = append(append(append(b, "^^<"...), t.Datatype...), '>')
		}
		return b
	default:
		return fmt.Appendf(b, "?!invalid-term(%d)", uint8(t.Kind))
	}
}

// Compare orders terms first by kind, then by value, datatype and language;
// it returns -1, 0 or +1. The order is arbitrary but total, and is used to
// produce deterministic output.
func (t Term) Compare(u Term) int {
	if t.Kind != u.Kind {
		if t.Kind < u.Kind {
			return -1
		}
		return 1
	}
	if c := strings.Compare(t.Value, u.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Datatype, u.Datatype); c != 0 {
		return c
	}
	return strings.Compare(t.Lang, u.Lang)
}

// appendLiteral appends a literal's lexical form with N-Triples' escapes.
func appendLiteral(b []byte, s string) []byte {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return append(b, s...)
	}
	for _, r := range s {
		switch r {
		case '"':
			b = append(b, `\"`...)
		case '\\':
			b = append(b, `\\`...)
		case '\n':
			b = append(b, `\n`...)
		case '\r':
			b = append(b, `\r`...)
		case '\t':
			b = append(b, `\t`...)
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return b
}
