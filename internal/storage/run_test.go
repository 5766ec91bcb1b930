package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dict"
)

// buildSized is Build with runs cut into blocks of about size triples.
func buildSized(triples []dict.Triple, size int) *Store {
	return BuildSorted(dict.New(), newRun(bySPO, Merge(nil, triples, nil), size))
}

// applied is st after the delta, the way a write makes it.
func applied(st *Store, add, del []dict.Triple) *Store {
	return st.Apply(st.SPO().Apply(add, del), add, del)
}

// checkRun fails unless r holds exactly want, sorted by its ordering, in
// well-formed blocks: non-empty, exactly sized, none past twice the block
// size, fenced by their first triples and counted by their ends.
func checkRun(t *testing.T, where string, r *Run, want []dict.Triple) {
	t.Helper()
	want = r.o.sorted(want)
	if got := r.Triples(); !slices.Equal(got, want) {
		t.Fatalf("%s: ordering %d holds\n %v, want\n %v", where, r.o, got, want)
	}
	if len(r.fences) != len(r.blocks) || len(r.ends) != len(r.blocks) {
		t.Fatalf("%s: %d blocks, %d fences, %d ends", where, len(r.blocks), len(r.fences), len(r.ends))
	}
	n := 0
	for i, b := range r.blocks {
		n += len(b)
		if len(b) == 0 || cap(b) != len(b) || len(b) > 2*r.size || r.fences[i] != b[0] || r.ends[i] != n {
			t.Fatalf("%s: block %d of %d (len %d cap %d, size %d) fenced %v ending at %d",
				where, i, len(r.blocks), len(b), cap(b), r.size, r.fences[i], r.ends[i])
		}
	}
}

// randomRanges returns up to three sorted, disjoint ID ranges over
// [1,domain], at times with an edge ID or a last range that runs to the
// largest ID (as statistics and the Sat store scan), or nil.
func randomRanges(r *rand.Rand, domain int) []IDRange {
	var ids []dict.ID
	for i := r.Intn(4); i > 0; i-- {
		lo := 1 + r.Intn(domain)
		for id := lo; id <= min(domain, lo+r.Intn(4)); id++ {
			ids = append(ids, dict.ID(id))
		}
	}
	if r.Intn(4) == 0 {
		ids = append(ids, edgeIDs[r.Intn(len(edgeIDs))])
	}
	rs := MergeIDs(ids)
	if r.Intn(4) == 0 {
		lo := randomID(r, domain)
		rs = append(slices.DeleteFunc(rs, func(g IDRange) bool { return g.Hi >= lo }), IDRange{Lo: lo, Hi: ^dict.ID(0)})
	}
	return rs
}

// checkScans compares every scan primitive of st with a filter of the flat
// set want, on random patterns and range patterns — ranges wide enough to
// straddle blocks of a few triples. A plain pattern is read as its exact
// range form, the trials cycling through its eight shapes.
func checkScans(t *testing.T, where string, r *rand.Rand, st *Store, want []dict.Triple, domain int) {
	t.Helper()
	id := func(bound bool) dict.ID {
		if !bound {
			return dict.None
		}
		return randomID(r, domain)
	}
	for trial := 0; trial < 32; trial++ {
		pat := Pattern{S: id(trial&1 != 0), P: id(trial&2 != 0), O: id(trial&4 != 0)}
		var buf [3]IDRange
		exact := pat.Range(&buf)
		var match []dict.Triple
		for _, x := range want {
			if exact.Matches(x) {
				match = append(match, x)
			}
		}
		var runs []dict.Triple
		st.EachRun(exact, func(ts []dict.Triple) bool { runs = append(runs, ts...); return true })
		got := st.Scan(pat)
		if !slices.Equal(bySPO.sorted(got), match) || !slices.Equal(runs, got) || st.CountRange(exact) != len(match) {
			t.Fatalf("%s: %+v scans %v, EachRun %v (count %d), want %v", where, pat, got, runs, st.CountRange(exact), match)
		}
		for _, pos := range []byte("spo") {
			distinct := map[dict.ID]bool{}
			for _, x := range match {
				distinct[position(x, pos)] = true
			}
			if n := st.DistinctInPosition(pat, pos); n != len(distinct) {
				t.Fatalf("%s: %+v has %d distinct %c, want %d", where, pat, n, pos, len(distinct))
			}
		}
		probe := dict.Triple{S: randomID(r, domain), P: randomID(r, domain), O: randomID(r, domain)}
		if st.Contains(probe) != slices.Contains(want, probe) {
			t.Fatalf("%s: Contains(%v) = %v", where, probe, st.Contains(probe))
		}

		rp := RangePattern{S: randomRanges(r, domain), P: randomRanges(r, domain), O: randomRanges(r, domain)}
		match = match[:0]
		for _, x := range want {
			if rp.Matches(x) {
				match = append(match, x)
			}
		}
		var each []dict.Triple
		runs = runs[:0]
		st.EachRange(rp, func(x dict.Triple) bool { each = append(each, x); return true })
		st.EachRun(rp, func(ts []dict.Triple) bool { runs = append(runs, ts...); return true })
		if !slices.Equal(each, runs) || st.CountRange(rp) != len(match) ||
			!slices.Equal(bySPO.sorted(each), match) {
			t.Fatalf("%s: %+v: EachRange %v, EachRun %v, CountRange %d, want %v", where, rp, each, runs, st.CountRange(rp), match)
		}
		if len(match) > 1 {
			var first []dict.Triple
			st.EachRun(rp, func(ts []dict.Triple) bool { first = append(first, ts[0]); return false })
			if len(first) != 1 || first[0] != each[0] {
				t.Fatalf("%s: %+v: EachRun went on after false: %v", where, rp, first)
			}
		}
	}
}

// The spine's oracle: random insert and delete batches applied to stores
// cut into blocks of a few triples give, after every step, the three
// orderings of a flat sorted reference, in well-formed blocks, and every
// scan primitive answers as a filter of the reference does.
func TestRunMatchesFlatReference(t *testing.T) {
	const domain = 10
	for _, size := range []int{1, 2, 3, 8, blockSize} {
		t.Run(fmt.Sprint("size=", size), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(size)))
			ref := Merge(nil, randomTriples(r, r.Intn(150), domain), nil)
			st := buildSized(ref, size)
			for step := 0; step < 60; step++ {
				add := randomTriples(r, r.Intn(12), domain)
				var del []dict.Triple
				for i := r.Intn(12); i > 0 && len(ref) > 0; i-- {
					del = append(del, ref[r.Intn(len(ref))])
				}
				del = append(del, randomTriples(r, r.Intn(3), domain)...)
				if r.Intn(5) == 0 && len(ref) > 0 {
					// Empty a stretch: blocks are dropped.
					i := r.Intn(len(ref))
					del = append(del, ref[i:min(len(ref), i+20)]...)
				}
				st, ref = applied(st, add, del), Merge(ref, add, del)
				where := fmt.Sprintf("step %d", step)
				for _, run := range st.runs {
					checkRun(t, where, run, ref)
				}
				checkScans(t, where, r, st, ref, domain)
			}
		})
	}
}

// touched reports whether an edit of the delta falls in block i of r: at or
// after its fence and before the next one's (for the first block: before
// the next one's).
func touched(r *Run, i int, delta []dict.Triple) bool {
	for _, x := range delta {
		k := r.o.key(x)
		if (i == 0 || !k.less(r.o.key(r.fences[i]))) && (i+1 == len(r.fences) || k.less(r.o.key(r.fences[i+1]))) {
			return true
		}
	}
	return false
}

// A write shares what it does not touch: after a delta, every block of
// every ordering that no edit falls in is the parent's block itself, and the
// parent is unchanged.
func TestApplySharesUntouchedBlocks(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		base := randomTriples(r, r.Intn(300), 12)
		prev := buildSized(base, 1+r.Intn(6))
		var before [3][]dict.Triple
		var blocks [3][]*dict.Triple
		for o, run := range prev.runs {
			before[o] = run.Triples()
			for _, b := range run.blocks {
				blocks[o] = append(blocks[o], &b[0])
			}
		}
		add, del := randomTriples(r, r.Intn(6), 12), randomTriples(r, r.Intn(4), 12)
		if len(base) > 0 {
			del = append(del, base[r.Intn(len(base))])
		}
		next := applied(prev, add, del)
		for o, run := range prev.runs {
			kept := map[*dict.Triple]bool{}
			for _, b := range next.runs[o].blocks {
				kept[&b[0]] = true
			}
			for i, b := range run.blocks {
				if &b[0] != blocks[o][i] {
					t.Fatalf("trial %d ordering %d: the parent's block %d was replaced", trial, o, i)
				}
				if !touched(run, i, slices.Concat(add, del)) && !kept[&b[0]] {
					t.Fatalf("trial %d ordering %d: block %d of %d took no edit but was copied", trial, o, i, len(run.blocks))
				}
			}
			if !slices.Equal(run.Triples(), before[o]) {
				t.Fatalf("trial %d ordering %d: Apply changed the parent", trial, o)
			}
		}
	}
}

// FuzzSpineApply: the first byte picks a block size of one to four
// triples, the rest are three triple lists over a small domain — a base and
// a delta — applied twice, the second time undoing the first.
func FuzzSpineApply(f *testing.F) {
	f.Add([]byte{0, 5, 1, 1, 1, 2, 1, 2, 3, 2, 1, 1, 2, 2, 2, 1, 1, 1, 1, 3, 1, 1, 1, 7, 7, 7})
	f.Add([]byte{3, 0, 1, 1, 2, 3})
	// Bytes 8 to 11 (4 to 7 for P) are the edge IDs.
	f.Add([]byte{0, 4, 8, 4, 8, 8, 4, 9, 11, 7, 10, 1, 5, 1, 2, 9, 5, 11, 4, 8, 8, 1, 11, 7, 10})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		size := 1
		if len(data) > 0 {
			size, data = 1+int(data[0]%4), data[1:]
		}
		var lists [3][]dict.Triple
		for i := range lists {
			if len(data) == 0 {
				break
			}
			n := min(int(data[0]), (len(data)-1)/3)
			for j := 0; j < n; j++ {
				b := data[1+3*j:]
				lists[i] = append(lists[i], dict.Triple{S: byteID(b[0], 8), P: byteID(b[1], 4), O: byteID(b[2], 8)})
			}
			data = data[1+3*n:]
		}
		base := Merge(nil, lists[0], nil)
		st := buildSized(base, size)
		want := Merge(base, lists[1], lists[2])
		next := applied(st, lists[1], lists[2])
		for _, run := range next.runs {
			checkRun(t, "applied", run, want)
		}
		// Undo: what was added goes, what was removed from base comes back.
		var back []dict.Triple
		for _, x := range lists[2] {
			if slices.Contains(base, x) {
				back = append(back, x)
			}
		}
		var gone []dict.Triple
		for _, x := range want {
			if !slices.Contains(base, x) {
				gone = append(gone, x)
			}
		}
		undone := applied(next, back, gone)
		for _, run := range undone.runs {
			checkRun(t, "undone", run, base)
		}
	})
}
