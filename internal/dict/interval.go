package dict

import (
	"fmt"

	"repro/internal/rdf"
)

// Interval is an inclusive ID range [Lo, Hi]. The hierarchy-aware encoding
// assigns DFS-preorder IDs to classes and properties so that every
// subClassOf/subPropertyOf subtree occupies one such interval, turning a
// hierarchy union into a single range predicate (the LiteMat device).
type Interval struct {
	Lo, Hi ID
}

// Contains reports whether id lies in the interval.
func (iv Interval) Contains(id ID) bool { return iv.Lo <= id && id <= iv.Hi }

// Len returns the number of IDs covered by the interval.
func (iv Interval) Len() int { return int(iv.Hi) - int(iv.Lo) + 1 }

// SetIntervals installs the subtree-interval table computed by the schema
// layer after a re-encoding; Interval serves lookups from it. A nil table
// clears all intervals.
func (d *Dict) SetIntervals(ivs map[ID]Interval) {
	d.mu.Lock()
	d.intervals = ivs
	d.mu.Unlock()
}

// Interval returns the contiguous ID interval covering the subtree rooted at
// the given class or property ID, if the current encoding has one. The root
// itself is always inside the interval.
func (d *Dict) Interval(id ID) (Interval, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	iv, ok := d.intervals[id]
	return iv, ok
}

// Permute re-encodes the dictionary under the remap table: the term with old
// ID i moves to ID remap[i]. remap must have length Len()+1, remap[0] must
// be None, and remap[1..] must be a bijection onto 1..Len(). Any installed
// interval table is cleared (it described the old encoding). Callers own
// re-encoding every ID they stored outside the dictionary.
func (d *Dict) Permute(remap []ID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.kinds)
	if len(remap) != n+1 {
		return fmt.Errorf("dict: remap length %d, want %d", len(remap), n+1)
	}
	if remap[0] != None {
		return fmt.Errorf("dict: remap[0] = %d, want None", remap[0])
	}
	seen := make([]bool, n+1)
	for old := 1; old <= n; old++ {
		nw := remap[old]
		if nw == None || int(nw) > n {
			return fmt.Errorf("dict: remap[%d] = %d out of range 1..%d", old, nw, n)
		}
		if seen[nw] {
			return fmt.Errorf("dict: remap is not a bijection: id %d assigned twice", nw)
		}
		seen[nw] = true
	}
	// Spans move, and no byte of the arena does.
	spans, kinds := make([]uint64, n), make([]rdf.Kind, n)
	for old := 1; old <= n; old++ {
		spans[remap[old]-1], kinds[remap[old]-1] = d.spans[old-1], d.kinds[old-1]
	}
	d.spans, d.kinds = spans, kinds
	// A slot's probe run depends on the term, not its ID: the term keeps
	// its slot under its new ID.
	for i, old := range d.index {
		d.index[i] = remap[old]
	}
	whole := make(map[ID]rdf.Term, len(d.whole))
	for t, old := range d.tagged {
		d.tagged[t] = remap[old]
		whole[remap[old]] = t
	}
	d.whole = whole
	d.intervals = nil
	return nil
}
