package dict

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := New()
	terms := []rdf.Term{
		rdf.NewIRI("http://a"),
		rdf.NewLiteral("x"),
		rdf.NewLangLiteral("x", "en"),
		rdf.NewTypedLiteral("x", rdf.XSDInteger),
		rdf.NewBlank("b0"),
	}
	ids := make([]ID, len(terms))
	for i, term := range terms {
		ids[i] = d.Encode(term)
	}
	for i, term := range terms {
		if got := d.Decode(ids[i]); got != term {
			t.Errorf("decode(%d) = %v, want %v", ids[i], got, term)
		}
	}
	if d.Len() != len(terms) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(terms))
	}
}

func TestEncodeIdempotent(t *testing.T) {
	d := New()
	a := d.EncodeIRI("http://a")
	b := d.EncodeIRI("http://a")
	if a != b {
		t.Fatalf("same term got two ids %d and %d", a, b)
	}
}

func TestIDsDenseFromOne(t *testing.T) {
	d := New()
	for i := 0; i < 10; i++ {
		id := d.EncodeIRI(fmt.Sprintf("http://t%d", i))
		if id != ID(i+1) {
			t.Fatalf("want dense id %d, got %d", i+1, id)
		}
	}
}

func TestLookup(t *testing.T) {
	d := New()
	term := rdf.NewIRI("http://a")
	if _, ok := d.Lookup(term); ok {
		t.Fatal("lookup of unknown term should fail")
	}
	id := d.Encode(term)
	got, ok := d.Lookup(term)
	if !ok || got != id {
		t.Fatalf("lookup = (%d,%v), want (%d,true)", got, ok, id)
	}
}

func TestDecodePanicsOnUnknown(t *testing.T) {
	d := New()
	d.EncodeIRI("http://a")
	for _, bad := range []ID{None, 2, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("decode(%d) should panic", bad)
				}
			}()
			d.Decode(bad)
		}()
	}
}

func TestFreeze(t *testing.T) {
	d := New()
	id := d.EncodeIRI("http://a")
	d.Freeze()
	if again := d.EncodeIRI("http://a"); again != id {
		t.Fatal("frozen dict must still encode known terms")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("encoding a new term on a frozen dict should panic")
		}
	}()
	d.EncodeIRI("http://new")
}

func TestTripleRoundTrip(t *testing.T) {
	d := New()
	tr := rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewLiteral("o"))
	enc := d.EncodeTriple(tr)
	if got := d.DecodeTriple(enc); got != tr {
		t.Fatalf("round trip: %v != %v", got, tr)
	}
}

// Property: distinct terms get distinct IDs; equal terms get equal IDs —
// across kinds, and for literals whose lexical form, datatype or language
// differ in one field only, or hold the bytes another field could.
func TestEncodeInjectiveQuick(t *testing.T) {
	d := New()
	vals := []string{"a", "b", "a\x00d", "http://x", ""}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := func() string { return vals[r.Intn(len(vals))] }
		mk := func() rdf.Term {
			switch r.Intn(5) {
			case 0:
				return rdf.NewIRI(v())
			case 1:
				return rdf.NewLiteral(v())
			case 2:
				return rdf.NewLangLiteral(v(), []string{"en", "fr"}[r.Intn(2)])
			case 3:
				return rdf.NewTypedLiteral(v(), v())
			default:
				return rdf.NewBlank(v())
			}
		}
		a, b := mk(), mk()
		ia, ib := d.Encode(a), d.Encode(b)
		return (a == b) == (ia == ib)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Five terms with the same lexical form — an IRI, a plain literal, a blank
// node, a typed and a language-tagged literal — are five terms, before and
// after a re-encoding.
func TestSameLexicalFormFiveIDs(t *testing.T) {
	d := New()
	terms := []rdf.Term{
		rdf.NewIRI("1"), rdf.NewLiteral("1"), rdf.NewBlank("1"),
		rdf.NewTypedLiteral("1", "http://www.w3.org/2001/XMLSchema#int"), rdf.NewLangLiteral("1", "en"),
	}
	check := func(when string, want func(i int) ID) {
		t.Helper()
		seen := map[ID]bool{}
		for i, term := range terms {
			id, ok := d.Lookup(term)
			if !ok || id != want(i) || seen[id] || d.Decode(id) != term {
				t.Fatalf("%s: %v has id %d (found %v), want %d, distinct", when, term, id, ok, want(i))
			}
			seen[id] = true
		}
	}
	for _, term := range terms {
		d.Encode(term)
	}
	check("encoded", func(i int) ID { return ID(i + 1) })
	if err := d.Permute([]ID{None, 5, 4, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	check("permuted", func(i int) ID { return ID(5 - i) })
	if d.Encode(rdf.NewTypedLiteral("1", "http://www.w3.org/2001/XMLSchema#int")) != 2 || d.Len() != 5 {
		t.Fatal("re-encoding a known term after a permute added one")
	}
}

// The dictionary must be safe for concurrent encoding.
func TestConcurrentEncode(t *testing.T) {
	d := New()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 200
	ids := make([][]ID, workers)
	for w := 0; w < workers; w++ {
		w := w
		ids[w] = make([]ID, perWorker)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ids[w][i] = d.EncodeIRI(fmt.Sprintf("http://t%d", i))
			}
		}()
	}
	wg.Wait()
	if d.Len() != perWorker {
		t.Fatalf("want %d distinct terms, got %d", perWorker, d.Len())
	}
	for w := 1; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d saw id %d for term %d, worker 0 saw %d", w, ids[w][i], i, ids[0][i])
			}
		}
	}
}

func TestEncodeLookupIRI(t *testing.T) {
	d := New()
	if _, ok := d.LookupIRI("http://nope"); ok {
		t.Fatal("unknown IRI must not resolve")
	}
	id := d.EncodeIRI("http://a")
	got, ok := d.LookupIRI("http://a")
	if !ok || got != id {
		t.Fatalf("LookupIRI = (%d,%v), want (%d,true)", got, ok, id)
	}
}

func TestPermuteAndIntervals(t *testing.T) {
	d := New()
	terms := []rdf.Term{
		rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/b"),
		rdf.NewIRI("http://x/c"), rdf.NewIRI("http://x/d"),
	}
	for _, tm := range terms {
		d.Encode(tm)
	}
	d.SetIntervals(map[ID]Interval{2: {Lo: 2, Hi: 3}})
	if iv, ok := d.Interval(2); !ok || iv.Lo != 2 || iv.Hi != 3 || iv.Len() != 2 {
		t.Fatalf("interval lookup wrong: %+v %v", iv, ok)
	}
	if !(Interval{Lo: 2, Hi: 3}).Contains(3) || (Interval{Lo: 2, Hi: 3}).Contains(4) {
		t.Fatal("Interval.Contains wrong")
	}

	// Reverse the encoding: term with old ID i moves to 5-i.
	if err := d.Permute([]ID{None, 4, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	for i, tm := range terms {
		want := ID(4 - i)
		if id, ok := d.Lookup(tm); !ok || id != want {
			t.Fatalf("%s: id %d after permute, want %d", tm, id, want)
		}
		if got := d.Decode(want); got != tm {
			t.Fatalf("decode(%d) = %s, want %s", want, got, tm)
		}
	}
	// Permute clears the interval table (it described the old encoding).
	if _, ok := d.Interval(2); ok {
		t.Fatal("intervals survived a permute")
	}
}

func TestPermuteRejectsBadTables(t *testing.T) {
	d := New()
	d.EncodeIRI("http://x/a")
	d.EncodeIRI("http://x/b")
	cases := [][]ID{
		{None, 1},       // wrong length
		{1, 1, 2},       // remap[0] != None
		{None, 1, 1},    // not a bijection
		{None, 1, 3},    // out of range
		{None, None, 2}, // None assigned
	}
	for i, remap := range cases {
		if err := d.Permute(remap); err == nil {
			t.Errorf("case %d: bad remap %v accepted", i, remap)
		}
	}
	// A failed permute must leave the encoding untouched.
	if id, _ := d.LookupIRI("http://x/a"); id != 1 {
		t.Fatalf("failed permute moved an id: a = %d", id)
	}
}

// The index finds every term through its growth and a permutation: many
// terms, each value under three kinds, and terms absent under another kind.
func TestIndexGrowsAndPermutes(t *testing.T) {
	d := New()
	var terms []rdf.Term
	for i := 0; i < 3000; i++ {
		v := fmt.Sprintf("http://x/%d", i)
		terms = append(terms, rdf.NewIRI(v), rdf.NewLiteral(v), rdf.NewBlank(v))
	}
	for i, tm := range terms {
		if id := d.Encode(tm); id != ID(i+1) {
			t.Fatalf("%s encoded to %d, want %d", tm, id, i+1)
		}
	}
	check := func(id func(i int) ID) {
		t.Helper()
		for i, tm := range terms {
			if got, ok := d.Lookup(tm); !ok || got != id(i) {
				t.Fatalf("%s: id %d %v, want %d", tm, got, ok, id(i))
			}
		}
		if _, ok := d.Lookup(rdf.NewIRI("http://x/3000")); ok {
			t.Fatal("an absent term was found")
		}
	}
	check(func(i int) ID { return ID(i + 1) })
	remap := make([]ID, len(terms)+1)
	for old := 1; old <= len(terms); old++ {
		remap[old] = ID(len(terms) + 1 - old)
	}
	if err := d.Permute(remap); err != nil {
		t.Fatal(err)
	}
	check(func(i int) ID { return ID(len(terms) - i) })
}

// arenaTerms are terms the arena must hand back byte for byte: every kind,
// with the bytes a JSON writer must escape or keep (quotes, backslashes,
// control characters, invalid UTF-8, HTML-special characters, U+2028), an
// empty value, and, under a chunk of size bytes, a value longer than a
// chunk and values of every length up to one more than a chunk, which end
// chunks, start them and fill them. The empty literal comes twice.
func arenaTerms(size int) []rdf.Term {
	long := strings.Repeat("x", 3*size+1)
	terms := []rdf.Term{
		rdf.NewLiteral(`say "hi" \ back`),
		rdf.NewLiteral("tab\there\nline\rret\x01\x1f\x7f"),
		rdf.NewLiteral("bad \xff\xfe utf8"),
		rdf.NewLiteral(""),
		rdf.NewLangLiteral("héllo", "fr"),
		rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
		rdf.NewBlank("b1"),
		rdf.NewIRI("http://example.org/<&>\u2028\u2029é"),
		rdf.NewIRI("http://example.org/bad\xc3"),
		rdf.NewIRI(`http://example.org/"quoted"`),
		rdf.NewIRI(""),
		rdf.NewBlank(""),
		rdf.NewIRI(long),
		rdf.NewLiteral(long), // the same bytes, another kind: its own copy
	}
	for n := 1; n <= min(size, 40)+1; n++ {
		terms = append(terms, rdf.NewBlank(strings.Repeat("z", n)), rdf.NewIRI(strings.Repeat("y", n)))
	}
	return append(terms, rdf.NewLiteral("")) // again: the same ID
}

// Every term decodes to itself and looks up to its ID, across chunk
// boundaries and chunks of its own, before and after a permutation; the
// clean bit is set exactly when the Value needs no JSON escaping.
func TestArenaRoundTrip(t *testing.T) {
	for _, size := range []int{1, 2, 7, 16, chunkSize} {
		t.Run(fmt.Sprint("chunk=", size), func(t *testing.T) {
			d := newSized(size)
			terms := arenaTerms(size)
			ids := make([]ID, len(terms))
			for i, term := range terms {
				ids[i] = d.Encode(term)
			}
			if ids[len(ids)-1] != ids[3] || d.Len() != len(terms)-1 {
				t.Fatalf("the empty literal twice: ids %d and %d, %d terms", ids[3], ids[len(ids)-1], d.Len())
			}
			check := func(when string) {
				t.Helper()
				v := d.View()
				defer v.Release()
				for i, term := range terms {
					got, clean := v.Decode(ids[i])
					want := byValue(term) && !strings.ContainsFunc(term.Value, func(r rune) bool {
						return r < 0x20 || r >= 0x80 || r == '"' || r == '\\'
					})
					if got != term || clean != want {
						t.Fatalf("%s: %q decodes to %q, clean %v, want clean %v", when, term, got, clean, want)
					}
					if id, ok := d.lookup(term); !ok || id != ids[i] {
						t.Fatalf("%s: %q looks up to %d %v, want %d", when, term, id, ok, ids[i])
					}
				}
			}
			check("encoded")
			n := d.Len()
			remap := make([]ID, n+1)
			for old := 1; old <= n; old++ {
				remap[old] = ID(n + 1 - old)
			}
			if err := d.Permute(remap); err != nil {
				t.Fatal(err)
			}
			for i := range ids {
				ids[i] = remap[ids[i]]
			}
			check("permuted")
			if size < chunkSize && len(d.chunks) < 4 {
				t.Fatalf("%d chunks: the terms did not cross chunk boundaries", len(d.chunks))
			}
			for i, c := range d.chunks {
				if cap(c) != size && (cap(c) != len(c) || len(c) <= size) {
					t.Fatalf("chunk %d holds %d bytes of %d: neither a chunk nor one value's own", i, len(c), cap(c))
				}
			}
		})
	}
}

// The dictionary holds each term's bytes once: its arena is no longer than
// the Values it keeps by value, less a chunk's unused tail each.
func TestArenaHoldsEachValueOnce(t *testing.T) {
	d := New()
	want := 0
	for i := 0; i < 20000; i++ {
		v := fmt.Sprintf("http://example.org/term/%d", i)
		d.EncodeIRI(v)
		d.EncodeIRI(v) // known: no bytes
		want += len(v)
	}
	held := 0
	for _, c := range d.chunks[:len(d.chunks)-1] {
		held += len(c)
		if cap(c)-len(c) >= len("http://example.org/term/19999") {
			t.Fatalf("a chunk left %d bytes unused, room for the next term", cap(c)-len(c))
		}
	}
	if held += len(d.chunks[len(d.chunks)-1]); held != want {
		t.Fatalf("arena holds %d bytes, the values are %d", held, want)
	}
}

// Decode, and a view's Decode, copy and allocate nothing.
func TestDecodeAllocatesNothing(t *testing.T) {
	d := New()
	ids := []ID{
		d.EncodeIRI("http://example.org/a"), d.Encode(rdf.NewLiteral("b")),
		d.Encode(rdf.NewBlank("c")), d.Encode(rdf.NewLangLiteral("d", "en")),
	}
	var sink rdf.Term
	if n := testing.AllocsPerRun(100, func() {
		for _, id := range ids {
			sink = d.Decode(id)
		}
		v := d.View()
		for _, id := range ids {
			sink, _ = v.Decode(id)
		}
		v.Release()
	}); n != 0 {
		t.Fatalf("%v allocations a run", n)
	}
	_ = sink
}

// Readers that Decode, Lookup and write cells through a view, while one
// writer Encodes terms across many chunk boundaries, see every term they
// can find equal to what was encoded; run under -race, a reader that could
// see an arena byte being written is a reported race.
func TestArenaConcurrentReadersOneWriter(t *testing.T) {
	const size, terms, readers = 16, 3000, 4
	d := newSized(size)
	term := func(i int) rdf.Term {
		v := strings.Repeat(fmt.Sprint(i%10), i%(2*size+3)) + fmt.Sprint("/", i)
		switch i % 4 {
		case 0:
			return rdf.NewIRI(v)
		case 1:
			return rdf.NewLiteral(v + `"`)
		case 2:
			return rdf.NewBlank(v)
		default:
			return rdf.NewLangLiteral(v, "en")
		}
	}
	var (
		wg   sync.WaitGroup
		done = make(chan struct{})
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var cells []byte
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				n := d.Len()
				if n == 0 {
					continue
				}
				// IDs are handed out in encoding order: ID i+1 is term(i).
				i := rng.Intn(n)
				if got := d.Decode(ID(i + 1)); got != term(i) {
					t.Errorf("decode(%d) = %q, want %q", i+1, got, term(i))
					return
				}
				if id, ok := d.Lookup(term(i)); !ok || id != ID(i+1) {
					t.Errorf("lookup(%q) = %d %v, want %d", term(i), id, ok, i+1)
					return
				}
				v := d.View()
				cells = cells[:0]
				for j := max(0, i-8); j <= i; j++ {
					got, _ := v.Decode(ID(j + 1))
					cells = append(append(got.AppendTo(cells), ','), got.Value...)
				}
				v.Release()
				var want []byte
				for j := max(0, i-8); j <= i; j++ {
					want = append(append(term(j).AppendTo(want), ','), term(j).Value...)
				}
				if string(cells) != string(want) {
					t.Errorf("cells %q, want %q", cells, want)
					return
				}
			}
		}(r)
	}
	for i := 0; i < terms; i++ {
		if id := d.Encode(term(i)); id != ID(i+1) {
			t.Errorf("term %d encoded to %d", i, id)
			break
		}
	}
	close(done)
	wg.Wait()
	if len(d.chunks) < terms/size {
		t.Fatalf("%d chunks: the writer crossed too few chunk boundaries", len(d.chunks))
	}
}
