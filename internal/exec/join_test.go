package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dict"
)

// nestedLoopJoin is joinTable's reference: for each probe row in order, each
// build row in order whose shared columns equal the probe row's gives the
// probe row followed by the build row's other columns. It also returns how
// many probe rows match no build row.
func nestedLoopJoin(build, probe *Relation, shared []string) (out []dict.ID, unmatched int) {
	var pIdx, bIdx, extra []int
	for _, v := range shared {
		pIdx, bIdx = append(pIdx, slices.Index(probe.Vars, v)), append(bIdx, build.columnIndex(v))
	}
	for i, v := range build.Vars {
		if !slices.Contains(probe.Vars, v) {
			extra = append(extra, i)
		}
	}
	for i := 0; i < probe.Len(); i++ {
		prow, matched := probe.Row(i), false
	next:
		for k := 0; k < build.Len(); k++ {
			brow := build.Row(k)
			for j, c := range pIdx {
				if prow[c] != brow[bIdx[j]] {
					continue next
				}
			}
			matched = true
			out = append(out, prow...)
			for _, c := range extra {
				out = append(out, brow[c])
			}
		}
		if !matched {
			unmatched++
		}
	}
	return out, unmatched
}

// checkJoinTable joins probe into a table built on build and fails unless it
// gives nestedLoopJoin's rows in its order, and its filter turned away only
// probe rows that match nothing.
func checkJoinTable(t *testing.T, where string, build, probe *Relation, shared []string) {
	t.Helper()
	e := New(nil, nil)
	jt, err := e.newJoinTable(build, probe.Vars, shared, guard{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jt.probeRelation(probe); err != nil {
		t.Fatal(err)
	}
	got := jt.finish(nil)
	want, unmatched := nestedLoopJoin(build, probe, shared)
	if w := probe.Width() + build.Width() - len(shared); got.Width() != w || !slices.Equal(flat(got), want) {
		t.Fatalf("%s: a table on %d rows probed with %d gives %d rows of %d columns, the nested loop %d of %d",
			where, build.Len(), probe.Len(), got.Len(), got.Width(), len(want)/max(w, 1), w)
	}
	if jt.filtered > unmatched {
		t.Fatalf("%s: the filter turned away %d probe rows, only %d match nothing", where, jt.filtered, unmatched)
	}
}

// joinRelations returns an empty build relation over the key columns, then
// one of its own, and an empty probe relation over one column of its own,
// then the key columns in reverse order.
func joinRelations(keys int) (build, probe *Relation, shared []string) {
	shared = []string{"k0", "k1"}[:keys]
	pvars := []string{"p"}
	for i := keys - 1; i >= 0; i-- {
		pvars = append(pvars, shared[i])
	}
	return NewRelation(append(slices.Clone(shared), "b")), NewRelation(pvars), shared
}

// joinInputs returns a build relation of n rows and a probe relation, keyed
// on one column (k0) or two (k0, k1), each holding one column of its own.
// Build keys repeat; probe keys are drawn from four times the build's key
// domain, so most probe rows match nothing and a few match several build
// rows. The probe side holds its columns in another order than the build.
func joinInputs(r *rand.Rand, n, keys int) (build, probe *Relation, shared []string) {
	build, probe, shared = joinRelations(keys)
	domain := max(2, n/2)
	row := make([]dict.ID, keys+1)
	for i := 0; i < n; i++ {
		for c := 0; c < keys; c++ {
			row[c] = dict.ID(1 + r.Intn(domain))
		}
		row[keys] = dict.ID(i)
		build.Append(row)
	}
	for i := 0; i < 500; i++ {
		row[0] = dict.ID(i)
		for c := 1; c <= keys; c++ {
			row[c] = dict.ID(1 + r.Intn(4*domain))
		}
		probe.Append(row)
	}
	return build, probe, shared
}

// The probe filter never drops a match: a joinTable gives the rows of a
// nested-loop join, in its order, for builds of 0 to 5 000 rows (either side
// of a filter word's 64 bits), keys of one and two columns, every row in one
// bucket or spread, and relation chunks of 1, 4 and 4 096 rows.
func TestJoinTableMatchesNestedLoop(t *testing.T) {
	for _, one := range []bool{false, true} {
		t.Run(fmt.Sprintf("one-bucket=%v", one), func(t *testing.T) {
			if one {
				defer func(m uint64) { hashMix = m }(hashMix)
				hashMix = 0
			}
			atChunkSizes(t, func(t *testing.T) {
				r := rand.New(rand.NewSource(38))
				for _, n := range []int{0, 1, 63, 64, 65, 5000} {
					for keys := 1; keys <= 2; keys++ {
						build, probe, shared := joinInputs(r, n, keys)
						checkJoinTable(t, fmt.Sprintf("%d rows, %d key columns", n, keys), build, probe, shared)
					}
				}
			})
		})
	}
}

// FuzzJoinMatchesNestedLoop: the first bytes pick the key columns (one or
// two), the chunk size (1, 4 or 4 096 rows) and whether every row shares a
// bucket; the rest are build rows' keys, then after a zero byte probe rows'
// keys, a byte a key column.
func FuzzJoinMatchesNestedLoop(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte{1, 2, 3, 3, 0, 3, 4, 1})
	f.Add(uint8(2), uint8(5), []byte{1, 1, 2, 2, 1, 2, 0, 1, 1, 2, 2, 2, 1})
	f.Add(uint8(1), uint8(2), []byte{0, 9, 9})
	// Twenty build rows, more than a filter word's worth, each probed.
	twenty := make([]byte, 41)
	for i := byte(0); i < 20; i++ {
		twenty[i], twenty[21+i] = 20-i, 1+i
	}
	f.Add(uint8(0), uint8(0), twenty)
	f.Fuzz(func(t *testing.T, keys, mode uint8, data []byte) {
		k := 1 + int(keys%2)
		if mode&4 != 0 {
			defer func(m uint64) { hashMix = m }(hashMix)
			hashMix = 0
		}
		defer func(s uint8) { chunkShift = s }(chunkShift)
		chunkShift = []uint8{0, 2, 12}[mode%4%3]
		build, probe, shared := joinRelations(k)
		for side := build; len(data) >= k; data = data[k:] {
			if data[0] == 0 && side == build {
				side, data = probe, data[1:]
				if len(data) < k {
					break
				}
			}
			row := []dict.ID{dict.ID(side.Len())}
			for c := 0; c < k; c++ {
				row = append(row, dict.ID(data[c]))
			}
			if side == build {
				slices.Reverse(row) // the probe's columns in reverse order
			}
			side.Append(row)
		}
		checkJoinTable(t, "fuzz", build, probe, shared)
	})
}
