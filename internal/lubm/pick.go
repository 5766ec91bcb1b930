package lubm

import (
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/rdf"
)

// PickExampleOneUniversity returns the degree-granting university IRI that
// maximizes the (estimated) number of Example 1 answers on the graph: a
// university U such that some department has both a member with
// mastersDegreeFrom U and a member with doctoralDegreeFrom U. It returns
// the empty string when no university yields any answer (then Example 1 is
// empty for every choice). Ties break deterministically on the IRI.
func PickExampleOneUniversity(g *graph.Graph) string {
	d := g.Dict()
	memberDept := map[string][]string{} // person -> departments
	type degree struct{ person, univ string }
	var masters, doctoral []degree

	memberOf := Prop("memberOf").Value
	worksFor := Prop("worksFor").Value
	headOf := Prop("headOf").Value
	mdf := Prop("mastersDegreeFrom").Value
	ddf := Prop("doctoralDegreeFrom").Value

	for _, t := range g.AllTriples() {
		tr := d.DecodeTriple(t)
		if tr.P.Kind != rdf.IRI {
			continue
		}
		switch tr.P.Value {
		case memberOf, worksFor, headOf:
			memberDept[tr.S.Value] = append(memberDept[tr.S.Value], tr.O.Value)
		case mdf:
			masters = append(masters, degree{tr.S.Value, tr.O.Value})
		case ddf:
			doctoral = append(doctoral, degree{tr.S.Value, tr.O.Value})
		}
	}
	// univ -> dept -> count of qualifying members.
	mByUniv := map[string]map[string]int{}
	dByUniv := map[string]map[string]int{}
	fill := func(dst map[string]map[string]int, ds []degree) {
		for _, dg := range ds {
			for _, dept := range memberDept[dg.person] {
				m := dst[dg.univ]
				if m == nil {
					m = map[string]int{}
					dst[dg.univ] = m
				}
				m[dept]++
			}
		}
	}
	fill(mByUniv, masters)
	fill(dByUniv, doctoral)

	best, bestScore := "", 0
	univs := make([]string, 0, len(mByUniv))
	for u := range mByUniv {
		univs = append(univs, u)
	}
	sort.Strings(univs)
	for _, u := range univs {
		score := 0
		for dept, nm := range mByUniv[u] {
			if nd := dByUniv[u][dept]; nd > 0 {
				score += nm * nd
			}
		}
		if score > bestScore || (score == bestScore && score > 0 && strings.Compare(u, best) < 0) {
			best, bestScore = u, score
		}
	}
	if bestScore == 0 {
		return ""
	}
	return best
}
