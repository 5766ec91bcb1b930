package main

import (
	"strings"

	"repro/internal/lubm"
	"repro/internal/rdf"
)

// prefixes are the rule-notation prefixes refserve wires for -scenario lubm.
var prefixes = map[string]string{"ub": lubm.NS}

// pinnedProfile is the LUBM profile with every per-university and
// per-department count fixed at the middle of its specification range. The
// stock profile draws 15–25 departments per university, so two seeds differ
// by up to a quarter in data size — more than any regression bound. With
// the structure pinned the seed still decides every random link (courses
// taken, advisors, degrees, publication counts), but the triple count moves
// by well under one percent from seed to seed.
func pinnedProfile(universities, departments int) lubm.Profile {
	p := lubm.Default()
	p.Universities = universities
	p.DeptMin, p.DeptMax = departments, departments
	p.FullProfMin, p.FullProfMax = 8, 8
	p.AssocProfMin, p.AssocProfMax = 12, 12
	p.AssistProfMin, p.AssistProfMax = 9, 9
	p.LecturerMin, p.LecturerMax = 6, 6
	p.UndergradPerFacultyMin, p.UndergradPerFacultyMax = 11, 11
	p.GradPerFacultyMin, p.GradPerFacultyMax = 3, 3
	p.ResearchGroupMin, p.ResearchGroupMax = 15, 15
	return p
}

// generate returns ontology + data triples for the profile and seed.
func generate(p lubm.Profile, seed int64) []rdf.Triple {
	ts := lubm.OntologyTriples()
	return append(ts, lubm.Generate(p, seed)...)
}

// dept is one generated department and the entities a query can bind.
type dept struct {
	iri, univ   string
	gradCourses []string
	professors  []string
}

// catalog lists, in generation order, the entities the op scripts bind as
// query constants. It is read off the generated triples, so it is right
// for any profile.
type catalog struct {
	depts []*dept
	// externalUnivs are the degree-granting universities some person holds
	// a degree from (the Q13 constants).
	externalUnivs []string
}

func newCatalog(ts []rdf.Triple) *catalog {
	var (
		c          = &catalog{}
		byIRI      = map[string]*dept{}
		typeIRI    = rdf.Type.Value
		department = lubm.Class("Department").Value
		gradCourse = lubm.Class("GraduateCourse").Value
		subOrg     = lubm.Prop("subOrganizationOf").Value
		seenUniv   = map[string]bool{}
	)
	isProfessor := map[string]bool{
		lubm.Class("FullProfessor").Value:      true,
		lubm.Class("AssociateProfessor").Value: true,
		lubm.Class("AssistantProfessor").Value: true,
	}
	// Entities of a department carry its IRI as a prefix:
	// http://www.DepartmentJ.UniversityK.edu/<Kind><i>.
	owner := func(entity string) *dept {
		i := strings.LastIndexByte(entity, '/')
		if i < 0 {
			return nil
		}
		return byIRI[entity[:i]]
	}
	for _, t := range ts {
		switch {
		case t.P.Value == typeIRI && t.O.Value == department:
			d := &dept{iri: t.S.Value}
			byIRI[d.iri] = d
			c.depts = append(c.depts, d)
		case t.P.Value == subOrg:
			if d := byIRI[t.S.Value]; d != nil {
				d.univ = t.O.Value
			}
		case t.P.Value == typeIRI && t.O.Value == gradCourse:
			if d := owner(t.S.Value); d != nil {
				d.gradCourses = append(d.gradCourses, t.S.Value)
			}
		case t.P.Value == typeIRI && isProfessor[t.O.Value]:
			if d := owner(t.S.Value); d != nil {
				d.professors = append(d.professors, t.S.Value)
			}
		case strings.HasSuffix(t.P.Value, "DegreeFrom"):
			if !seenUniv[t.O.Value] {
				seenUniv[t.O.Value] = true
				c.externalUnivs = append(c.externalUnivs, t.O.Value)
			}
		}
	}
	return c
}
