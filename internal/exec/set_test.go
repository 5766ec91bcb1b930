package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dict"
)

// mapSet is the reference a Set is checked against: the distinct rows it
// was offered, in the order first offered, told apart by a map.
type mapSet struct {
	seen map[string]bool
	rows []dict.ID // row-major
}

func (m *mapSet) offer(row []dict.ID) {
	if k := fmt.Sprint(row); !m.seen[k] {
		m.seen[k] = true
		m.rows = append(m.rows, row...)
	}
}

// offer inserts batch into s, projected by src and row as Set.insert
// projects, and the same projected rows into m.
func offer(s *Set, m *mapSet, batch *Relation, src []int, row []dict.ID) error {
	if err := s.insert(batch, src, row, nil); err != nil {
		return err
	}
	proj := make([]dict.ID, s.Rows.Width())
	for i := 0; i < batch.Len(); i++ {
		b := batch.Row(i)
		for k := range proj {
			switch {
			case src == nil:
				proj[k] = b[k]
			case src[k] == -1:
				proj[k] = row[k]
			default:
				proj[k] = b[src[k]]
			}
		}
		m.offer(proj)
	}
	return nil
}

// sameSet reports how s differs from the reference m — the same rows in the
// same order — and whether its bitmap keeps to its bound of 8 bytes a row.
func sameSet(s *Set, m *mapSet) error {
	if s.Rows.Len() != len(m.seen) || !slices.Equal(flat(s.Rows), m.rows) {
		return fmt.Errorf("set holds %d rows %v, the map %d rows %v", s.Rows.Len(), flat(s.Rows), len(m.seen), m.rows)
	}
	if len(s.bits) > s.Rows.Len() {
		return fmt.Errorf("bitmap of %d words for %d rows", len(s.bits), s.Rows.Len())
	}
	return nil
}

func columnNames(w int) []string {
	names := make([]string, w)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	return names
}

// A Set holds the distinct rows it was offered in the order first offered —
// those of a map — at widths 0 to 3, over IDs dense and sparse, heavily
// duplicated, and with outliers: a one-column set of dense IDs switches to
// its bitmap, grows it, gives it up for an ID far above the rest and takes
// it again once its rows have doubled, and at every step its bitmap takes at
// most 8 bytes a row. Rows are offered in batches of relations as they are
// and projected, constants included; at chunks of 1, 4 and 4 096 rows, and
// with every row in one hash bucket.
func TestSetMatchesMap(t *testing.T) {
	outlier := func(r *rand.Rand, i int) dict.ID {
		switch {
		case i < 200:
			return dict.ID(1 + r.Intn(300))
		case i < 400:
			return dict.ID(1 + r.Intn(2000))
		case i == 400:
			return 1 << 16
		}
		return dict.ID(1 + r.Intn(4000))
	}
	cases := []struct {
		name string
		rows int
		id   func(r *rand.Rand, i int) dict.ID
	}{
		{"dense", 3000, func(r *rand.Rand, _ int) dict.ID { return dict.ID(1 + r.Intn(300)) }},
		{"sparse", 3000, func(r *rand.Rand, _ int) dict.ID { return dict.ID(1 + r.Int63n(1<<32-1)) }},
		{"duplicated", 3000, func(r *rand.Rand, _ int) dict.ID { return dict.ID(1 + r.Intn(6)) }},
		{"outlier", 4400, outlier},
	}
	for _, one := range []bool{false, true} {
		t.Run(fmt.Sprintf("one-bucket=%v", one), func(t *testing.T) {
			if one {
				defer func(m uint64) { hashMix = m }(hashMix)
				hashMix = 0
			}
			atChunkSizes(t, func(t *testing.T) {
				for _, c := range cases {
					for w := 0; w <= 3; w++ {
						r := rand.New(rand.NewSource(int64(17*w + len(c.name))))
						s, m := NewSet(columnNames(w)), &mapSet{seen: map[string]bool{}}
						var switched, reverted, again bool
						for i := 0; i < c.rows; {
							// Half the batches are offered as they are, half
							// projected from one column more, at times with a
							// constant in a column.
							bw, src, row := w, []int(nil), make([]dict.ID, w)
							if r.Intn(2) == 0 {
								bw, src = w+1, r.Perm(w + 1)[:w]
								for k := range src {
									if r.Intn(8) == 0 {
										src[k], row[k] = -1, c.id(r, i)
									}
								}
							}
							batch := NewRelation(columnNames(bw))
							for n := 1 + r.Intn(100); n > 0 && i < c.rows; n-- {
								b := make([]dict.ID, bw)
								for k := range b {
									b[k] = c.id(r, i)
								}
								batch.Append(b)
								i++
							}
							if err := offer(s, m, batch, src, row); err != nil {
								t.Fatal(err)
							}
							if err := sameSet(s, m); err != nil {
								t.Fatalf("%s, width %d, after %d rows: %v", c.name, w, i, err)
							}
							switch {
							case s.bits != nil && reverted:
								again = true
							case s.bits != nil:
								switched = true
							case switched:
								reverted = true
							}
						}
						if w != 1 && switched {
							t.Fatalf("%s: a set of width %d took a bitmap", c.name, w)
						}
						if w == 1 && (c.name == "dense" || c.name == "duplicated") && !switched {
							t.Fatalf("%s: a one-column set of %d rows under ID %d kept its index", c.name, s.Rows.Len(), s.hi)
						}
						if w == 1 && c.name == "outlier" && !(switched && reverted && again) {
							t.Fatalf("outlier: switched %v, gave the bitmap up %v, took it again %v", switched, reverted, again)
						}
					}
				}
			})
		})
	}
}

// FuzzSetMatchesMap offers random batches of rows to a Set and to a map
// and checks that they hold the same rows in the same order, and that the
// set's bitmap keeps to its bound. The input picks the width (0 to 3), the
// chunk size and the rows; an ID is two bytes, and one with the top bit set
// is an outlier far above the rest, so a one-column set switches to its
// bitmap and back.
func FuzzSetMatchesMap(f *testing.F) {
	// One column: a first batch that switches the set to its bitmap, with
	// multiples of 64 among it, then batches of 64 rows offering 1 to 320
	// over and over, and among them an outlier far above the rest.
	dense := []byte{23}
	for _, id := range []uint16{64, 128, 192, 256, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20} {
		dense = append(dense, byte(id>>8), byte(id))
	}
	for b := 0; b < 12; b++ {
		dense = append(dense, 63)
		for j := 0; j < 64; j++ {
			id := uint16(1 + (b*64+j)*37%320)
			if b == 9 && j == 0 {
				id = 0x8000 | 3
			}
			dense = append(dense, byte(id>>8), byte(id))
		}
	}
	f.Add(uint8(1), uint8(0), dense)
	f.Add(uint8(1), uint8(2), dense)
	f.Add(uint8(2), uint8(12), dense)
	f.Add(uint8(0), uint8(0), []byte{3, 1, 2, 0})
	f.Add(uint8(3), uint8(2), []byte{63, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 0x80, 1, 0, 1})
	f.Fuzz(setMatchesMap)
}

// setMatchesMap is FuzzSetMatchesMap's body.
func setMatchesMap(t *testing.T, width, shift uint8, data []byte) {
	w := int(width % 4)
	s, m := NewSet(columnNames(w)), &mapSet{seen: map[string]bool{}}
	s.Rows.shift = []uint8{0, 2, chunkShift}[shift%3]
	for len(data) > 0 {
		batch := NewRelation(columnNames(w))
		batch.shift = s.Rows.shift
		n := 1 + int(data[0]%64)
		data = data[1:]
		row := make([]dict.ID, w)
		for ; n > 0 && len(data) >= max(1, 2*w); n-- {
			for k := range row {
				v := uint16(data[2*k])<<8 | uint16(data[2*k+1])
				row[k] = dict.ID(v & 0x7fff)
				if v&0x8000 != 0 {
					row[k] = dict.ID(v&0x7fff)<<16 | 1
				}
			}
			batch.Append(row)
			data = data[max(1, 2*w):]
		}
		if err := offer(s, m, batch, nil, nil); err != nil {
			t.Fatal(err)
		}
		// Rows are only ever appended: the order is compared once, at the
		// end, so that a long input costs no more than its rows.
		if s.Rows.Len() != len(m.seen) || len(s.bits) > s.Rows.Len() {
			t.Fatalf("set of %d rows and a bitmap of %d words, the map %d rows", s.Rows.Len(), len(s.bits), len(m.seen))
		}
	}
	if err := sameSet(s, m); err != nil {
		t.Fatal(err)
	}
}
