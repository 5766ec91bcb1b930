package dict

import (
	"fmt"
	"math/rand"
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
