package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
)

func TestMergeIDs(t *testing.T) {
	cases := []struct {
		in   []dict.ID
		want []IDRange
	}{
		{nil, nil},
		{[]dict.ID{7}, []IDRange{{7, 7}}},
		{[]dict.ID{3, 1, 2}, []IDRange{{1, 3}}},
		{[]dict.ID{1, 3, 5}, []IDRange{{1, 1}, {3, 3}, {5, 5}}},
		{[]dict.ID{4, 4, 5, 9, 10, 10, 12}, []IDRange{{4, 5}, {9, 10}, {12, 12}}},
	}
	for i, c := range cases {
		got := MergeIDs(append([]dict.ID(nil), c.in...))
		if len(got) != len(c.want) {
			t.Fatalf("case %d: got %v, want %v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: got %v, want %v", i, got, c.want)
			}
		}
	}
}

func TestInRanges(t *testing.T) {
	rs := []IDRange{{2, 4}, {7, 7}, {10, 12}}
	for id, want := range map[dict.ID]bool{
		1: false, 2: true, 3: true, 4: true, 5: false,
		7: true, 8: false, 10: true, 12: true, 13: false,
	} {
		if got := InRanges(rs, id); got != want {
			t.Errorf("InRanges(%d) = %v, want %v", id, got, want)
		}
	}
	if InRanges(nil, 1) {
		t.Error("InRanges(nil, 1) = true")
	}
}

// TestRangeScanMatchesFilter: EachRange and CountRange over every pattern
// shape must agree with brute-force filtering by RangePattern.Matches —
// the index binary searches are an optimization, never a semantics change.
func TestRangeScanMatchesFilter(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	d := dict.New()
	var ts []dict.Triple
	for i := 0; i < 200; i++ {
		ts = append(ts, dict.Triple{
			S: d.EncodeIRI(fmt.Sprintf("http://x/e%d", r.Intn(20))),
			P: d.EncodeIRI(fmt.Sprintf("http://x/p%d", r.Intn(6))),
			O: d.EncodeIRI(fmt.Sprintf("http://x/e%d", r.Intn(20))),
		})
	}
	// Triples at the top of the ID space, where a key packs to the largest
	// integers.
	n := dict.ID(d.Len())
	for i := 0; i < 40; i++ {
		ts = append(ts, dict.Triple{S: randomID(r, int(n)), P: randomID(r, int(n)), O: randomID(r, int(n))})
	}
	st := Build(d, ts)
	randRanges := func() []IDRange {
		switch r.Intn(6) {
		case 0:
			return nil // wildcard
		case 1:
			return []IDRange{Exact(randomID(r, int(n)))}
		case 2:
			lo := dict.ID(1 + r.Intn(int(n)))
			hi := lo + dict.ID(r.Intn(5))
			return []IDRange{{lo, hi}}
		case 3:
			// To the largest ID, as statistics and the Sat store scan.
			return []IDRange{{randomID(r, int(n)), ^dict.ID(0)}}
		case 4:
			return []IDRange{{edgeIDs[2], edgeIDs[1]}}
		default:
			var ids []dict.ID
			for k := 0; k < 1+r.Intn(6); k++ {
				ids = append(ids, dict.ID(1+r.Intn(int(n))))
			}
			return MergeIDs(ids)
		}
	}
	for trial := 0; trial < 300; trial++ {
		p := RangePattern{S: randRanges(), P: randRanges(), O: randRanges()}
		want := 0
		for _, tr := range st.Triples() {
			if p.Matches(tr) {
				want++
			}
		}
		got := 0
		st.EachRange(p, func(tr dict.Triple) bool {
			if !p.Matches(tr) {
				t.Fatalf("trial %d: EachRange yielded non-matching triple %v for %+v", trial, tr, p)
			}
			got++
			return true
		})
		if got != want {
			t.Fatalf("trial %d: EachRange visited %d triples, filter finds %d (%+v)", trial, got, want, p)
		}
		if c := st.CountRange(p); c != want {
			t.Fatalf("trial %d: CountRange = %d, want %d (%+v)", trial, c, want, p)
		}
	}
}

// TestRangeScanEarlyStop: the callback returning false stops the scan.
func TestRangeScanEarlyStop(t *testing.T) {
	d := dict.New()
	var ts []dict.Triple
	for i := 0; i < 10; i++ {
		ts = append(ts, dict.Triple{
			S: d.Encode(rdf.NewIRI(fmt.Sprintf("http://x/s%d", i))),
			P: d.EncodeIRI("http://x/p"),
			O: d.EncodeIRI("http://x/o"),
		})
	}
	st := Build(d, ts)
	seen := 0
	st.EachRange(RangePattern{}, func(dict.Triple) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("early stop visited %d triples, want 3", seen)
	}
}

// A pattern filtered past its searched prefix — as an index probe's often
// is — hands its matches over in a pooled buffer, not one made for each
// scan: scans of it allocate less than once each (not never: under the race
// detector the pool drops a share of the buffers it is given).
func TestFilteredRunReusesItsBuffer(t *testing.T) {
	var ts []dict.Triple
	for i := dict.ID(1); i <= 200; i++ {
		ts = append(ts, dict.Triple{S: 1 + i%5, P: 10 + i%3, O: 100 + i%7})
	}
	st := Build(dict.New(), ts)
	// The subject is the searched prefix, the property its range; the
	// object is filtered.
	pat := RangePattern{S: []IDRange{Exact(2)}, P: []IDRange{{Lo: 10, Hi: 11}}, O: []IDRange{{Lo: 100, Hi: 103}}}
	if !chooseRange(pat).residual {
		t.Fatal("the pattern is not filtered past its searched prefix")
	}
	n := 0
	count := func(ts []dict.Triple) bool { n += len(ts); return true }
	if a := testing.AllocsPerRun(100, func() { st.EachRun(pat, count) }); a >= 1 {
		t.Fatalf("a filtered scan allocates %v times a run", a)
	}
	if n == 0 {
		t.Fatal("the filtered scan matched nothing")
	}
}
