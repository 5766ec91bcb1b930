// Package dict implements dictionary encoding of RDF terms: each distinct
// term is assigned a dense integer ID, so that the triple store, the
// executor and the statistics modules operate on fixed-size integers rather
// than strings — the standard device of RDBMS-backed RDF stores the paper's
// strategies are evaluated on.
package dict

import (
	"fmt"
	"hash/maphash"
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
// Its index holds no copy of a term's bytes, nor of its string header: an
// IRI, a plain literal or a blank node is found by its kind and Value — the
// string values holds — through index, a table of IDs alone; only a term
// with a datatype or a language is keyed whole.
type Dict struct {
	mu sync.RWMutex
	// index is an open-addressing hash table of the IDs of the terms keyed
	// by value, a power of two long and at most 3/4 full: a term is found
	// by probing from its hash's slot to the first empty one. A slot is an
	// ID, four bytes; the term's string is in values alone.
	index   []ID
	indexed int // the IDs in index
	seed    maphash.Seed
	tagged  map[rdf.Term]ID
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
	return &Dict{seed: maphash.MakeSeed(), tagged: map[rdf.Term]ID{}, whole: map[ID]rdf.Term{}}
}

// byValue reports whether t is keyed by its kind and Value, not whole.
func byValue(t rdf.Term) bool {
	return t.Kind <= rdf.Blank && t.Datatype == "" && t.Lang == ""
}

// slot returns the index slot the probe for a term of kind k and value v
// starts at; index must not be empty.
func (d *Dict) slot(k rdf.Kind, v string) int {
	return int((maphash.String(d.seed, v) + uint64(k)*0x9e3779b97f4a7c15) & uint64(len(d.index)-1))
}

// find returns the ID of the term of kind k and value v keyed by value.
func (d *Dict) find(k rdf.Kind, v string) (ID, bool) {
	if d.indexed == 0 {
		return None, false
	}
	for i := d.slot(k, v); ; i = (i + 1) & (len(d.index) - 1) {
		id := d.index[i]
		if id == None {
			return None, false
		}
		if d.kinds[id-1] == k && d.values[id-1] == v {
			return id, true
		}
	}
}

// place puts id, a term keyed by value, in index, growing it past 3/4
// full.
func (d *Dict) place(id ID) {
	if 4*(d.indexed+1) > 3*len(d.index) {
		old := d.index
		d.index = make([]ID, max(16, 2*len(old)))
		for _, id := range old {
			if id != None {
				d.insert(id)
			}
		}
	}
	d.insert(id)
	d.indexed++
}

// insert puts id in the first empty slot of its probe run.
func (d *Dict) insert(id ID) {
	i := d.slot(d.kinds[id-1], d.values[id-1])
	for d.index[i] != None {
		i = (i + 1) & (len(d.index) - 1)
	}
	d.index[i] = id
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
	if byValue(t) {
		d.values, d.kinds = append(d.values, t.Value), append(d.kinds, t.Kind)
		d.place(id)
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
	if byValue(t) {
		return d.find(t.Kind, t.Value)
	}
	id, ok = d.tagged[t]
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
