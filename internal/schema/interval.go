package schema

import (
	"sort"

	"repro/internal/dict"
)

// This file implements the hierarchy-aware (LiteMat-style) ID assignment:
// after the TBox closes, classes are laid out in DFS preorder over the
// direct subclass forest so that every subClassOf subtree occupies a
// contiguous ID interval, then properties likewise, then every remaining
// term in its original relative order. The resulting remap table is applied
// to the dictionary, the schema and the data triples by the graph as it is
// assembled (graph.FromTriples, graph.ReadSnapshot).
//
// Contiguity is an optimization, never a correctness assumption: with
// multiple inheritance (diamonds) or cycles a subtree may not be
// contiguous, in which case SubtreeIntervals simply omits it and the range
// reformulator falls back to the exact ID set merged into runs.

// BuildIntervalRemap computes the hierarchy-aware remap table over the
// current encoding. remap has length d.Len()+1 with remap[0] = None and
// remap[old] = new for every assigned ID; changed reports whether any ID
// moves. The labeling is idempotent: re-running it on an already remapped
// schema yields the identity.
func (s *Schema) BuildIntervalRemap() (remap []dict.ID, changed bool) {
	n := s.d.Len()
	remap = make([]dict.ID, n+1)
	placed := make([]bool, n+1)
	next := dict.ID(1)
	place := func(id dict.ID) {
		if placed[id] {
			return
		}
		placed[id] = true
		remap[id] = next
		next++
	}

	// DFS preorder over the direct subclass forest: roots (classes with no
	// strict superclass) in ascending current-ID order, children in
	// ascending current-ID order. Cyclic components have no root and are
	// swept up by the second pass, which starts a DFS from every class.
	var dfs func(id dict.ID, down map[dict.ID][]dict.ID)
	dfs = func(id dict.ID, down map[dict.ID][]dict.ID) {
		if placed[id] {
			return
		}
		place(id)
		for _, ch := range down[id] {
			dfs(ch, down)
		}
	}
	for _, c := range s.classes {
		if len(s.subClassUp[c]) == 0 {
			dfs(c, s.directClassDown)
		}
	}
	for _, c := range s.classes {
		dfs(c, s.directClassDown)
	}
	for _, p := range s.properties {
		if s.classSet[p] {
			continue // already placed in the class block
		}
		if len(s.subPropUp[p]) == 0 {
			dfs(p, s.directPropDown)
		}
	}
	for _, p := range s.properties {
		dfs(p, s.directPropDown)
	}
	// Every remaining term keeps its relative order.
	for id := dict.ID(1); int(id) <= n; id++ {
		place(id)
	}
	for id := dict.ID(1); int(id) <= n; id++ {
		if remap[id] != id {
			return remap, true
		}
	}
	return remap, false
}

// Remapped returns a copy of the schema with every ID rewritten through the
// remap table (as produced by BuildIntervalRemap and already applied to the
// shared dictionary by dict.Permute).
func (s *Schema) Remapped(remap []dict.ID) *Schema {
	out := &Schema{
		d:               s.d,
		subClassUp:      remapRel(s.subClassUp, remap),
		subClassDown:    remapRel(s.subClassDown, remap),
		subPropUp:       remapRel(s.subPropUp, remap),
		subPropDown:     remapRel(s.subPropDown, remap),
		domains:         remapRel(s.domains, remap),
		ranges:          remapRel(s.ranges, remap),
		domainsRev:      remapRel(s.domainsRev, remap),
		rangesRev:       remapRel(s.rangesRev, remap),
		domainUp:        remapRel(s.domainUp, remap),
		rangeUp:         remapRel(s.rangeUp, remap),
		directClassDown: remapRel(s.directClassDown, remap),
		directPropDown:  remapRel(s.directPropDown, remap),
		classes:         remapIDs(s.classes, remap),
		properties:      remapIDs(s.properties, remap),
		classSet:        remapSet(s.classSet, remap),
		propSet:         remapSet(s.propSet, remap),
	}
	out.triples = make([]dict.Triple, len(s.triples))
	for i, t := range s.triples {
		out.triples[i] = dict.Triple{S: remap[t.S], P: remap[t.P], O: remap[t.O]}
	}
	sort.Slice(out.triples, func(i, j int) bool {
		a, b := out.triples[i], out.triples[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.P != b.P {
			return a.P < b.P
		}
		return a.O < b.O
	})
	return out
}

// SubtreeIntervals returns, for every class and property whose closure
// subtree is contiguous under the current encoding, the inclusive ID
// interval covering it (root included). After BuildIntervalRemap this holds
// for every tree-shaped subtree; diamonds and cycles may be omitted.
func (s *Schema) SubtreeIntervals() map[dict.ID]dict.Interval {
	out := map[dict.ID]dict.Interval{}
	emit := func(root dict.ID, down []dict.ID) {
		lo, hi := root, root
		for _, id := range down {
			if id < lo {
				lo = id
			}
			if id > hi {
				hi = id
			}
		}
		if int(hi)-int(lo)+1 == len(down)+1 {
			out[root] = dict.Interval{Lo: lo, Hi: hi}
		}
	}
	for _, p := range s.properties {
		emit(p, s.subPropDown[p])
	}
	for _, c := range s.classes {
		emit(c, s.subClassDown[c]) // class wins over a same-ID property
	}
	return out
}

// --- remap helpers ---------------------------------------------------------

func remapRel(m map[dict.ID][]dict.ID, remap []dict.ID) map[dict.ID][]dict.ID {
	out := make(map[dict.ID][]dict.ID, len(m))
	for k, vs := range m {
		out[remap[k]] = remapIDs(vs, remap)
	}
	return out
}

func remapIDs(ids []dict.ID, remap []dict.ID) []dict.ID {
	out := make([]dict.ID, len(ids))
	for i, id := range ids {
		out[i] = remap[id]
	}
	sortIDs(out)
	return out
}

func remapSet(m map[dict.ID]bool, remap []dict.ID) map[dict.ID]bool {
	out := make(map[dict.ID]bool, len(m))
	for k, v := range m {
		if v {
			out[remap[k]] = true
		}
	}
	return out
}
