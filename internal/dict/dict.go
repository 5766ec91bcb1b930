// Package dict implements dictionary encoding of RDF terms: each distinct
// term is assigned a dense integer ID, so that the triple store, the
// executor and the statistics modules operate on fixed-size integers rather
// than strings — the standard device of RDBMS-backed RDF stores the paper's
// strategies are evaluated on.
//
// The bytes of every IRI, plain literal and blank node are kept once, in an
// append-only arena of fixed-size chunks that holds no pointers — HDT keeps
// its dictionary as one byte sequence the same way. An ID maps to a packed
// span of the arena, and Decode hands out a view of those bytes, not a
// copy: a term's bytes are never written again once placed.
package dict

import (
	"fmt"
	"hash/maphash"
	"sync"
	"unsafe"

	"repro/internal/rdf"
)

// ID is a dictionary-encoded term identifier. IDs are dense, start at 1,
// and are stable for the lifetime of the dictionary. 0 is reserved as the
// invalid/absent ID.
type ID uint32

// None is the invalid ID; no term ever encodes to it.
const None ID = 0

// Dict maps RDF terms to dense IDs and back. It is safe for concurrent use.
// An IRI, a plain literal or a blank node is held as its kind and a span of
// the arena, 9 bytes besides its own, not an rdf.Term's 56: the arena holds
// each such term's Value once, and the index, a table of IDs alone, finds a
// term by comparing against the arena. Only a term with a datatype or a
// language is kept whole, as an rdf.Term.
type Dict struct {
	mu sync.RWMutex
	// index is an open-addressing hash table of the IDs of the terms keyed
	// by value, a power of two long and at most 3/4 full: a term is found
	// by probing from its hash's slot to the first empty one. A slot is an
	// ID, four bytes; the term's bytes are in the arena alone.
	index   []ID
	indexed int // the IDs in index
	seed    maphash.Seed
	tagged  map[rdf.Term]ID
	// The term with ID i+1 is of kind kinds[i] with the Value spans[i]
	// locates in chunks, or, when kinds[i] is wholeKind, whole[i+1].
	// chunks, the arena, is never empty; a chunk is appended to within its
	// capacity and never reallocated, so no placed byte moves or changes.
	chunks [][]byte
	chunk  int // a chunk's capacity: chunkSize, smaller in tests
	spans  []uint64
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

// chunkSize is the capacity of an arena chunk. A chunk that cannot take
// the next Value keeps its tail unused, so chunks far longer than a Value
// waste little of the arena.
const chunkSize = 1 << 16

// A span packs where a Value lies in the arena. From the low bit: its
// length (lenBits), its offset in its chunk (offBits), its chunk, and in
// the top bit the clean bit, set when the Value needs no JSON escaping
// (jsonClean). A Value longer than a chunk has a chunk of its own, which it
// fills; its length field reads lenMask, which no length up to a chunk's
// does. The 30 bits of chunk index outnumber the chunks memory can hold.
const (
	lenBits   = 17
	offBits   = 16 // chunkSize ≤ 1<<offBits
	lenMask   = 1<<lenBits - 1
	offMask   = 1<<offBits - 1
	chunkMask = 1<<(63-lenBits-offBits) - 1
	cleanBit  = 1 << 63
)

// New returns an empty dictionary.
func New() *Dict { return newSized(chunkSize) }

// newSized returns an empty dictionary whose arena chunks hold size bytes
// (at most chunkSize).
func newSized(size int) *Dict {
	return &Dict{
		seed:   maphash.MakeSeed(),
		tagged: map[rdf.Term]ID{},
		whole:  map[ID]rdf.Term{},
		chunks: [][]byte{make([]byte, 0, size)},
		chunk:  size,
	}
}

// byValue reports whether t is keyed by its kind and Value, not whole.
func byValue(t rdf.Term) bool {
	return t.Kind <= rdf.Blank && t.Datatype == "" && t.Lang == ""
}

// jsonClean reports whether v can be written inside a JSON string as it
// is: it has no byte below 0x20, none from 0x80, no '"' and no '\'.
func jsonClean(v string) bool {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// store copies v to the end of the arena and returns its span.
func (d *Dict) store(v string) uint64 {
	var s uint64
	if jsonClean(v) {
		s = cleanBit
	}
	if v == "" {
		return s // offset 0 of chunk 0, which always exists
	}
	last := len(d.chunks) - 1
	c := d.chunks[last]
	switch {
	case len(v) > d.chunk:
		// A chunk of its own, exactly full: the next Value starts another.
		d.chunks = append(d.chunks, make([]byte, len(v)))
		copy(d.chunks[last+1], v)
		return s | uint64(last+1)<<(lenBits+offBits) | lenMask
	case len(v) > cap(c)-len(c):
		last, c = last+1, make([]byte, 0, d.chunk)
		d.chunks = append(d.chunks, c)
	}
	d.chunks[last] = append(c, v...)
	return s | uint64(last)<<(lenBits+offBits) | uint64(len(c))<<lenBits | uint64(len(v))
}

// value returns the Value span s locates, as a view of the arena.
func (d *Dict) value(s uint64) string {
	c := d.chunks[s>>(lenBits+offBits)&chunkMask]
	if n := s & lenMask; n != lenMask {
		off := s >> lenBits & offMask
		c = c[off : off+n]
	}
	return view(c)
}

// view returns b as a string that shares its bytes, without a copy. It is
// the one use of unsafe in this package, and it is sound because arena
// bytes are never written after a term is placed: a chunk is only appended
// to, within its capacity, so it is never reallocated and no placed byte is
// written again, and Permute moves spans, not bytes. A view therefore
// stays equal to its term for as long as anything holds it.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

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
		if d.kinds[id-1] == k && d.value(d.spans[id-1]) == v {
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
	i := d.slot(d.kinds[id-1], d.value(d.spans[id-1]))
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
	id := ID(len(d.kinds) + 1)
	if byValue(t) {
		d.spans, d.kinds = append(d.spans, d.store(t.Value)), append(d.kinds, t.Kind)
		d.place(id)
	} else {
		d.tagged[t], d.whole[id] = id, t
		d.spans, d.kinds = append(d.spans, 0), append(d.kinds, wholeKind)
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
// error, not an input error). It copies and allocates nothing: the Value of
// an IRI, a plain literal or a blank node is a view of the arena.
func (d *Dict) Decode(id ID) rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, _ := d.decode(id)
	return t
}

// decode is View.Decode for a caller holding mu.
func (d *Dict) decode(id ID) (rdf.Term, bool) {
	if id == None || int(id) > len(d.kinds) {
		panic(fmt.Sprintf("dict: decode of unknown id %d (size %d)", id, len(d.kinds)))
	}
	k := d.kinds[id-1]
	if k == wholeKind {
		return d.whole[id], false
	}
	s := d.spans[id-1]
	return rdf.Term{Kind: k, Value: d.value(s)}, s&cleanBit != 0
}

// A View decodes under one hold of the dictionary's read lock, for a caller
// that decodes many IDs in a row, such as a response writing its cells.
// Writers wait while a view is held, and its holder must not call the
// dictionary's own methods until it releases the view: a second read lock
// requested behind a waiting writer is never granted.
type View struct{ d *Dict }

// View takes the dictionary's read lock and returns a view under it.
func (d *Dict) View() View {
	d.mu.RLock()
	return View{d}
}

// Decode is Dict.Decode under the view's lock. It also reports whether the
// term's Value can be written inside a JSON string as it is (no byte below
// 0x20, none from 0x80, no '"' and no '\'), which Encode worked out once;
// a term with a datatype or a language reports false.
func (v View) Decode(id ID) (rdf.Term, bool) { return v.d.decode(id) }

// Release releases the view's read lock. The terms decoded through it stay
// valid.
func (v View) Release() { v.d.mu.RUnlock() }

// Len returns the number of distinct terms in the dictionary.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.kinds)
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
