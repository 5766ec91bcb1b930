// Package dict implements dictionary encoding of RDF terms: each distinct
// term is assigned a dense integer ID, so that the triple store, the
// executor and the statistics modules operate on fixed-size integers rather
// than strings — the standard device of RDBMS-backed RDF stores the paper's
// strategies are evaluated on.
package dict

import (
	"fmt"
	"sync"

	"repro/internal/rdf"
)

// ID is a dictionary-encoded term identifier. IDs are dense, start at 1,
// and are stable for the lifetime of the dictionary. 0 is reserved as the
// invalid/absent ID.
type ID uint32

// None is the invalid ID; no term ever encodes to it.
const None ID = 0

// Dict maps RDF terms to dense IDs and back. It is safe for concurrent use.
// Its index holds no copy of a term's bytes: an IRI, a plain literal or a
// blank node is keyed by its Value — the string values holds — in the map of
// its kind; only a term with a datatype or a language is keyed whole.
type Dict struct {
	mu     sync.RWMutex
	byKind [rdf.Blank + 1]map[string]ID
	tagged map[rdf.Term]ID
	// The term with ID i+1 is values[i] of kind kinds[i], or, when kinds[i]
	// is wholeKind, whole[i+1]: a term is 17 bytes here, not an rdf.Term's 56.
	values []string
	kinds  []rdf.Kind
	whole  map[ID]rdf.Term
	frozen bool

	// intervals maps a class/property ID to the contiguous ID interval of
	// its hierarchy subtree under the current encoding; see interval.go.
	intervals map[ID]Interval
}

// wholeKind marks, in kinds, a term kept whole: one with a datatype or a
// language.
const wholeKind rdf.Kind = 255

// New returns an empty dictionary.
func New() *Dict {
	return &Dict{byKind: [rdf.Blank + 1]map[string]ID{{}, {}, {}}, tagged: map[rdf.Term]ID{}, whole: map[ID]rdf.Term{}}
}

// byValue returns the map that keys t by its Value, nil when t is keyed whole.
func (d *Dict) byValue(t rdf.Term) map[string]ID {
	if t.Kind > rdf.Blank || t.Datatype != "" || t.Lang != "" {
		return nil
	}
	return d.byKind[t.Kind]
}

// Encode returns the ID for the term, assigning a fresh one if the term is
// new. It panics if the dictionary has been frozen and the term is unknown
// (programming error: freezing promises no further growth).
func (d *Dict) Encode(t rdf.Term) ID {
	if id, ok := d.Lookup(t); ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.lookup(t); ok {
		return id
	}
	if d.frozen {
		panic(fmt.Sprintf("dict: encode of unknown term %s on frozen dictionary", t))
	}
	id := ID(len(d.values) + 1)
	if m := d.byValue(t); m != nil {
		m[t.Value] = id
		d.values, d.kinds = append(d.values, t.Value), append(d.kinds, t.Kind)
	} else {
		d.tagged[t], d.whole[id] = id, t
		d.values, d.kinds = append(d.values, ""), append(d.kinds, wholeKind)
	}
	return id
}

// Lookup returns the ID for the term and whether it is present, without
// assigning new IDs.
func (d *Dict) Lookup(t rdf.Term) (ID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.lookup(t)
}

// lookup is Lookup for a caller holding mu.
func (d *Dict) lookup(t rdf.Term) (id ID, ok bool) {
	if m := d.byValue(t); m != nil {
		id, ok = m[t.Value]
	} else {
		id, ok = d.tagged[t]
	}
	return id, ok
}

// Decode returns the term for the ID. It panics on an unknown or invalid ID
// (IDs are only ever produced by Encode, so an unknown ID is a programming
// error, not an input error).
func (d *Dict) Decode(id ID) rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id == None || int(id) > len(d.values) {
		panic(fmt.Sprintf("dict: decode of unknown id %d (size %d)", id, len(d.values)))
	}
	if k := d.kinds[id-1]; k != wholeKind {
		return rdf.Term{Kind: k, Value: d.values[id-1]}
	}
	return d.whole[id]
}

// Len returns the number of distinct terms in the dictionary.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.values)
}

// Freeze marks the dictionary read-only: any Encode of an unknown term
// panics. Used to catch accidental dictionary growth during query
// evaluation.
func (d *Dict) Freeze() {
	d.mu.Lock()
	d.frozen = true
	d.mu.Unlock()
}

// EncodeIRI is shorthand for Encode(rdf.NewIRI(iri)).
func (d *Dict) EncodeIRI(iri string) ID { return d.Encode(rdf.NewIRI(iri)) }

// LookupIRI is shorthand for Lookup(rdf.NewIRI(iri)).
func (d *Dict) LookupIRI(iri string) (ID, bool) { return d.Lookup(rdf.NewIRI(iri)) }

// Triple is a dictionary-encoded triple.
type Triple struct {
	S, P, O ID
}

// EncodeTriple encodes all three positions of a triple.
func (d *Dict) EncodeTriple(t rdf.Triple) Triple {
	return Triple{S: d.Encode(t.S), P: d.Encode(t.P), O: d.Encode(t.O)}
}

// DecodeTriple decodes an encoded triple back to terms.
func (d *Dict) DecodeTriple(t Triple) rdf.Triple {
	return rdf.Triple{S: d.Decode(t.S), P: d.Decode(t.P), O: d.Decode(t.O)}
}
