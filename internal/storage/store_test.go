package storage

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dict"
)

func buildStore(triples []dict.Triple) *Store {
	return Build(dict.New(), triples)
}

// edgeIDs are IDs at the top of the ID space: the largest, the one below
// it, and the first two of query's parameter slots (query.Param), which
// start at 2³² − 2¹⁶. Keys of them pack to the largest integers, past which
// a strict search must not wrap.
var edgeIDs = []dict.ID{^dict.ID(0), ^dict.ID(0) - 1, 1<<32 - 1<<16, 1<<32 - 1<<16 + 1}

// randomID returns an ID of 1 to n or, one time in eight, an edge ID.
func randomID(r *rand.Rand, n int) dict.ID {
	if r.Intn(8) == 0 {
		return edgeIDs[r.Intn(len(edgeIDs))]
	}
	return dict.ID(1 + r.Intn(n))
}

// byteID maps a fuzzer's byte to an ID of 1 to n or an edge ID.
func byteID(b byte, n int) dict.ID {
	i := int(b) % (n + len(edgeIDs))
	if i < n {
		return dict.ID(1 + i)
	}
	return edgeIDs[i-n]
}

func randomTriples(r *rand.Rand, n, domain int) []dict.Triple {
	out := make([]dict.Triple, n)
	for i := range out {
		out[i] = dict.Triple{S: randomID(r, domain), P: randomID(r, domain/2+1), O: randomID(r, domain)}
	}
	return out
}

// naiveScan is the oracle for pattern matching: a filter through the
// pattern's exact range form.
func naiveScan(ts []dict.Triple, pat Pattern) map[dict.Triple]bool {
	var buf [3]IDRange
	rp := pat.Range(&buf)
	out := map[dict.Triple]bool{}
	for _, t := range ts {
		if rp.Matches(t) {
			out[t] = true
		}
	}
	return out
}

// TestScanMatchesNaive checks every pattern shape, IDs up to the largest,
// against a brute-force scan on random data: EachRun, CountRange, Scan and
// DistinctInPosition.
func TestScanMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ts := randomTriples(r, 5+r.Intn(200), 8)
		st := buildStore(ts)
		for trial := 0; trial < 24; trial++ {
			var pat Pattern
			if trial&1 != 0 {
				pat.S = randomID(r, 8)
			}
			if trial&2 != 0 {
				pat.P = randomID(r, 5)
			}
			if trial&4 != 0 {
				pat.O = randomID(r, 8)
			}
			want := naiveScan(ts, pat)
			var buf [3]IDRange
			exact := pat.Range(&buf)
			var runs []dict.Triple
			st.EachRun(exact, func(ts []dict.Triple) bool { runs = append(runs, ts...); return true })
			got := st.Scan(pat)
			if len(got) != len(want) || !slices.Equal(runs, got) || st.CountRange(exact) != len(want) {
				return false
			}
			for _, tr := range got {
				if !want[tr] {
					return false
				}
			}
			for _, pos := range []byte("spo") {
				distinct := map[dict.ID]bool{}
				for tr := range want {
					distinct[position(tr, pos)] = true
				}
				if st.DistinctInPosition(pat, pos) != len(distinct) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDedups(t *testing.T) {
	tr := dict.Triple{S: 1, P: 2, O: 3}
	st := buildStore([]dict.Triple{tr, tr, tr})
	if st.Len() != 1 {
		t.Fatalf("want 1 triple, got %d", st.Len())
	}
}

func TestContains(t *testing.T) {
	tr := dict.Triple{S: 1, P: 2, O: 3}
	st := buildStore([]dict.Triple{tr})
	if !st.Contains(tr) {
		t.Fatal("stored triple must be contained")
	}
	if st.Contains(dict.Triple{S: 1, P: 2, O: 4}) {
		t.Fatal("absent triple must not be contained")
	}
}

func TestEachEarlyStop(t *testing.T) {
	st := buildStore(randomTriples(rand.New(rand.NewSource(1)), 50, 5))
	n := 0
	st.EachRange(RangePattern{}, func(dict.Triple) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Fatalf("early stop after 7, got %d", n)
	}
}

func TestEmptyStore(t *testing.T) {
	st := buildStore(nil)
	if st.Len() != 0 || st.CountRange(RangePattern{}) != 0 || len(st.Scan(Pattern{S: 1})) != 0 {
		t.Fatal("empty store must behave as empty")
	}
}

// TestPatternRange checks a plain pattern's exact range form: each bound
// position the one-ID range of its ID, each wildcard nil, matching a
// triple exactly where every bound position equals it.
func TestPatternRange(t *testing.T) {
	var buf [3]IDRange
	if got := (Pattern{}).Range(&buf); got.S != nil || got.P != nil || got.O != nil {
		t.Fatalf("the empty pattern ranges over %+v", got)
	}
	top := ^dict.ID(0)
	got := (Pattern{S: 1, O: top}).Range(&buf)
	if !slices.Equal(got.S, []IDRange{Exact(1)}) || got.P != nil || !slices.Equal(got.O, []IDRange{Exact(top)}) {
		t.Fatalf("(1,?,top) ranges over %+v", got)
	}
	for _, tr := range []dict.Triple{{S: 1, P: 2, O: top}, {S: 1, P: top, O: top}, {S: 2, P: 2, O: top}, {S: 1, P: 2, O: top - 1}} {
		if got.Matches(tr) != (tr.S == 1 && tr.O == top) {
			t.Fatalf("(1,?,top) matches %v: %v", tr, got.Matches(tr))
		}
	}
}

func TestDistinctInPosition(t *testing.T) {
	ts := []dict.Triple{
		{S: 1, P: 10, O: 100},
		{S: 1, P: 10, O: 101},
		{S: 2, P: 11, O: 100},
		{S: 3, P: 10, O: 100},
	}
	st := buildStore(ts)
	if got := st.DistinctInPosition(Pattern{}, 's'); got != 3 {
		t.Fatalf("distinct s = %d, want 3", got)
	}
	if got := st.DistinctInPosition(Pattern{}, 'p'); got != 2 {
		t.Fatalf("distinct p = %d, want 2", got)
	}
	if got := st.DistinctInPosition(Pattern{}, 'o'); got != 2 {
		t.Fatalf("distinct o = %d, want 2", got)
	}
	if got := st.DistinctInPosition(Pattern{P: 10}, 's'); got != 2 {
		t.Fatalf("distinct s with p=10 is %d, want 2", got)
	}
}

// Property: DistinctInPosition agrees with a brute-force set.
func TestDistinctMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ts := randomTriples(r, 1+r.Intn(100), 6)
		st := buildStore(ts)
		for _, pos := range []byte{'s', 'p', 'o'} {
			set := map[dict.ID]bool{}
			for _, tr := range st.Triples() {
				set[position(tr, pos)] = true
			}
			if st.DistinctInPosition(Pattern{}, pos) != len(set) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestScanSubjectObjectShape(t *testing.T) {
	// The (S,?,O) shape leads no ordering as (S,P,O): it is answered by
	// the (O,S) prefix of the OSP ordering.
	ts := []dict.Triple{
		{S: 1, P: 10, O: 100},
		{S: 1, P: 11, O: 100},
		{S: 1, P: 12, O: 101},
		{S: 2, P: 10, O: 100},
	}
	st := buildStore(ts)
	got := st.Scan(Pattern{S: 1, O: 100})
	if len(got) != 2 {
		t.Fatalf("want 2 matches, got %d", len(got))
	}
	var buf [3]IDRange
	if st.CountRange(Pattern{S: 1, O: 100}.Range(&buf)) != 2 {
		t.Fatal("count mismatch")
	}
}
