package storage

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/dict"
)

// checkApply applies the delta to Build(base) — the SPO run's Apply making
// the SPO run, the store's Apply the other two — and compares all three runs
// with Build of the set result, (base \ removed) ∪ added.
func checkApply(t *testing.T, base, added, removed []dict.Triple) {
	t.Helper()
	var want []dict.Triple
	for _, x := range base {
		if !slices.Contains(removed, x) {
			want = append(want, x)
		}
	}
	want = append(want, added...)
	prev := buildStore(base)
	before := prev.Triples()
	got, ref := prev.Apply(prev.SPO().Apply(added, removed), added, removed), Build(prev.d, want)
	for _, run := range []struct {
		name      string
		got, want []dict.Triple
		key       func(dict.Triple) key
	}{{"spo", got.runs[bySPO].Triples(), ref.runs[bySPO].Triples(), bySPO.key}, {"pos", got.runs[byPOS].Triples(), ref.runs[byPOS].Triples(), byPOS.key}, {"osp", got.runs[byOSP].Triples(), ref.runs[byOSP].Triples(), byOSP.key}} {
		if !slices.Equal(run.got, run.want) {
			t.Fatalf("%s: Apply gave %v, Build %v (base %v +%v -%v)", run.name, run.got, run.want, base, added, removed)
		}
		for i := 1; i < len(run.got); i++ {
			a, b := run.key(run.got[i-1]), run.key(run.got[i])
			if !a.less(b) {
				t.Fatalf("%s: not strictly ascending at %d: %v", run.name, i, run.got)
			}
		}
	}
	if !slices.Equal(prev.Triples(), before) {
		t.Fatal("Apply changed the store it was applied to")
	}
}

func TestApplyMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		base := randomTriples(r, r.Intn(60), 6)
		// Deltas that hit and miss the base, repeat themselves and overlap.
		added := randomTriples(r, r.Intn(12), 6)
		removed := randomTriples(r, r.Intn(12), 6)
		if len(base) > 0 {
			removed = append(removed, base[r.Intn(len(base))], base[0], base[len(base)-1])
			added = append(added, base[r.Intn(len(base))])
		}
		checkApply(t, base, added, removed)
	}
	checkApply(t, nil, nil, nil)
}

// BuildSorted holds the run it is given as its SPO run and builds the other
// two as Build does; Merge with nothing to change hands its run back.
func TestBuildSortedSharesItsRun(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		ref := buildStore(randomTriples(r, r.Intn(60), 6))
		spo := NewRun(ref.Triples())
		got := BuildSorted(ref.d, spo)
		if got.SPO() != spo {
			t.Fatal("BuildSorted copied its run")
		}
		for o := range got.runs {
			if !slices.Equal(got.runs[o].Triples(), ref.runs[o].Triples()) {
				t.Fatalf("BuildSorted gave %v, Build %v", got.runs[o].Triples(), ref.runs[o].Triples())
			}
		}
		flat := spo.Triples()
		if same := Merge(flat, nil, nil); len(flat) > 0 && &same[0] != &flat[0] {
			t.Fatal("Merge copied a run it had nothing to change in")
		}
	}
}

// FuzzStoreApply: the bytes are three triple lists over a small domain.
func FuzzStoreApply(f *testing.F) {
	f.Add([]byte{3, 1, 1, 1, 2, 1, 2, 3, 2, 1, 1, 2, 2, 2, 1, 1, 1, 1})
	f.Add([]byte{0, 1, 1, 2, 3})
	// Bytes 8 to 11 (4 to 7 for P) are the edge IDs.
	f.Add([]byte{3, 8, 4, 8, 8, 4, 9, 11, 7, 10, 1, 8, 8, 2, 9, 5, 11, 4, 8, 8, 1, 11, 7, 10})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
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
		checkApply(t, lists[0], lists[1], lists[2])
	})
}

func BenchmarkApplyVsBuild(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{45_000, 100_000, 650_000} {
		triples := randomTriples(r, n, n/4)
		base, delta := buildStore(triples), randomTriples(r, 20, n/4)
		b.Run("apply/"+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base.Apply(base.SPO().Apply(delta, nil), delta, nil)
			}
		})
		b.Run("build/"+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Build(base.d, triples)
			}
		})
	}
}
