package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/httpapi"
	"repro/internal/lubm"
	"repro/internal/rdf"
)

// workload is one traffic mix and the serving configuration it runs on.
type workload struct {
	name string
	// universities is the LUBM scale factor; departments is how many
	// departments each university has (the LUBM range is 15 to 25).
	universities, departments int
	// viewCache enables the 64 MiB fragment view cache (refserve default).
	viewCache bool
	// durable serves from a data directory: WAL with sync=always,
	// auto-checkpoint off, one seed checkpoint during set-up.
	durable bool
	// block is the number of ops that always run together: a work phase
	// ends only on a block boundary, so every round of join_scan and
	// mixed_rw sees the same op mix and mixed_rw ends with its inserts
	// deleted again.
	block int
	build func(c *catalog, r *rand.Rand) *script
}

// workloads in reporting order. The README says why each exists.
var workloads = []workload{
	{name: "lookup_hot", universities: 3, departments: 20, viewCache: true, block: 1, build: buildLookupHot},
	{name: "lookup_cold", universities: 3, departments: 20, block: 1, build: buildLookupCold},
	{name: "join_scan", universities: 5, departments: 20, block: len(joinScanCycle), build: buildJoinScan},
	// Half a university: after an update every query rebuilds the store, so
	// the data size sets how many ops a round of a few seconds holds.
	{name: "mixed_rw", universities: 1, departments: 10, viewCache: true, durable: true, block: mixedCycleOps, build: buildMixedRW},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one scripted request with the answer it must produce.
type op struct {
	// class labels the op for per-class diagnostics: <template>.<strategy>
	// for queries, insert / delete for updates.
	class string
	path  string
	body  []byte
	// field is the top-level response field checked against want: "total"
	// for queries, "inserted" / "deleted" for updates.
	field string
	want  int
	// Queries: the text and strategy, and how many rows the op must return
	// beyond the text's pinned cardinality (mixed_rw reads its own inserts).
	text     string
	strategy string
	delta    int
	// Updates: the batch, and whether it is inserted or deleted.
	triples []rdf.Triple
	insert  bool
}

func (o *op) isQuery() bool { return o.triples == nil }

// script is the ops of a workload and the cyclic order in which the client
// sends them.
type script struct {
	ops   []op
	order []int
}

// digest identifies the script: every op's request and their order.
func (s *script) digest() string {
	h := sha256.New()
	for _, o := range s.ops {
		fmt.Fprintf(h, "%s %s %d\n", o.path, o.body, o.delta)
	}
	fmt.Fprintln(h, s.order)
	return hex.EncodeToString(h.Sum(nil))
}

// consts are the constants one instantiation of the templates binds.
type consts struct {
	dept, univ, gradCourse, professor, extUniv string
}

type template struct {
	name string
	text func(c consts) string
}

// The LUBM queries (RDFS projection, internal/lubm) with their constants
// left open. lookupTemplates are the selective ones.
var (
	tQ1 = template{"Q1", func(c consts) string {
		return "q(x) :- x rdf:type ub:GraduateStudent, x ub:takesCourse <" + c.gradCourse + ">"
	}}
	tQ2 = template{"Q2", func(consts) string { return lubm.QueryTexts(0, 0)[1].Text }}
	tQ3 = template{"Q3", func(c consts) string {
		return "q(x) :- x rdf:type ub:Publication, x ub:publicationAuthor <" + c.professor + ">"
	}}
	tQ4 = template{"Q4", func(c consts) string {
		return "q(x, n, e, t) :- x rdf:type ub:Professor, x ub:worksFor <" + c.dept + ">, x ub:name n, x ub:emailAddress e, x ub:telephone t"
	}}
	tQ5 = template{"Q5", func(c consts) string { return "q(x) :- x rdf:type ub:Person, x ub:memberOf <" + c.dept + ">" }}
	tQ6 = template{"Q6", func(consts) string { return lubm.QueryTexts(0, 0)[5].Text }}
	tQ7 = template{"Q7", func(c consts) string {
		return "q(x, y) :- x rdf:type ub:Student, y rdf:type ub:Course, x ub:takesCourse y, <" + c.professor + "> ub:teacherOf y"
	}}
	tQ8 = template{"Q8", func(c consts) string {
		return "q(x, y, e) :- x rdf:type ub:Student, y rdf:type ub:Department, x ub:memberOf y, y ub:subOrganizationOf <" + c.univ + ">, x ub:emailAddress e"
	}}
	tQ9  = template{"Q9", func(consts) string { return lubm.QueryTexts(0, 0)[8].Text }}
	tQ10 = template{"Q10", func(c consts) string { return "q(x) :- x rdf:type ub:Student, x ub:takesCourse <" + c.gradCourse + ">" }}
	tQ11 = template{"Q11", func(c consts) string {
		return "q(x) :- x rdf:type ub:ResearchGroup, x ub:subOrganizationOf y, y ub:subOrganizationOf <" + c.univ + ">"
	}}
	tQ12 = template{"Q12", func(c consts) string {
		return "q(x, y) :- y rdf:type ub:Department, x ub:headOf y, y ub:subOrganizationOf <" + c.univ + ">"
	}}
	tQ13 = template{"Q13", func(c consts) string { return "q(x) :- x rdf:type ub:Person, x ub:degreeFrom <" + c.extUniv + ">" }}
	tQ14 = template{"Q14", func(consts) string { return lubm.QueryTexts(0, 0)[13].Text }}
	tEx1 = template{"Ex1", func(c consts) string { return lubm.ExampleOneText(c.extUniv) }}

	lookupTemplates = []template{tQ1, tQ3, tQ4, tQ5, tQ7, tQ10, tQ11, tQ12, tQ13}
)

// queryOp builds a /v1/query op from a template. An empty strategy leaves
// the choice to the server (ref-gcov); limit 0 leaves the server's row cap
// (10 000).
func queryOp(t template, c consts, strategy string, limit int) op {
	return textOp(t.name, t.text(c), strategy, limit)
}

// textOp builds a /v1/query op for a query text.
func textOp(name, text, strategy string, limit int) op {
	body, err := json.Marshal(httpapi.QueryRequest{Query: text, Strategy: strategy, Limit: limit})
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	label := strategy
	if label == "" {
		label = "ref-gcov"
	}
	return op{class: name + "." + label, path: "/v1/query", body: body, field: "total", text: text, strategy: strategy}
}

func pick(r *rand.Rand, xs []string) string { return xs[r.Intn(len(xs))] }

// constsOf binds every constant to department d: one of its graduate
// courses, one of its professors, and a random degree-granting university.
func constsOf(c *catalog, d *dept, r *rand.Rand) consts {
	return consts{
		dept: d.iri, univ: d.univ,
		gradCourse: pick(r, d.gradCourses), professor: pick(r, d.professors),
		extUniv: pick(r, c.externalUnivs),
	}
}

// hotSlots is how many departments lookup_hot instantiates the templates
// for; hotRepeats is how often the cycle sends each text.
const (
	hotSlots   = 12
	hotRepeats = 10
)

// buildLookupHot: a few dozen selective texts sent over and over in
// shuffled order — the working set fits the plan cache and the view cache. Departments of one university share their
// Q11 and Q12 texts; such a text is simply sent more often, so that every
// template has the same share of the ops whatever the seed picks.
func buildLookupHot(c *catalog, r *rand.Rand) *script {
	s := &script{}
	for _, di := range r.Perm(len(c.depts))[:min(hotSlots, len(c.depts))] {
		k := constsOf(c, c.depts[di], r)
		for _, t := range lookupTemplates {
			s.ops = append(s.ops, queryOp(t, k, "", 0))
		}
	}
	for rep := 0; rep < hotRepeats; rep++ {
		s.order = append(s.order, r.Perm(len(s.ops))...)
	}
	return s
}

// coldRows bounds the cold cycle: each row is one op from each of five
// streams, so a full-scale cycle is 2 000 ops.
const coldRows = 400

// buildLookupCold: the same templates bound to a different entity on every
// op. Four streams (Q1, Q3, Q7, Q10) never repeat a text within the cycle;
// the fifth rotates through the few hundred department- and
// university-bound texts (Q4, Q5, Q11, Q12, Q13), so a text of it recurs
// only after more than a thousand other plans went through the
// 128-entry plan cache.
func buildLookupCold(c *catalog, r *rand.Rand) *script {
	var q1, q3, q7, q10, rest []op
	seen := map[string]bool{}
	add := func(dst *[]op, t template, k consts) {
		o := queryOp(t, k, "", 0)
		if !seen[o.text] {
			seen[o.text] = true
			*dst = append(*dst, o)
		}
	}
	for _, d := range c.depts {
		for _, gc := range d.gradCourses {
			add(&q1, tQ1, consts{gradCourse: gc})
			add(&q10, tQ10, consts{gradCourse: gc})
		}
		for _, p := range d.professors {
			add(&q3, tQ3, consts{professor: p})
			add(&q7, tQ7, consts{professor: p})
		}
		k := consts{dept: d.iri, univ: d.univ}
		add(&rest, tQ4, k)
		add(&rest, tQ5, k)
		add(&rest, tQ11, k)
		add(&rest, tQ12, k)
	}
	for _, u := range c.externalUnivs {
		add(&rest, tQ13, consts{extUniv: u})
	}
	streams := [][]op{q1, q3, q7, q10, rest}
	rows := coldRows
	for _, st := range streams[:4] {
		rows = min(rows, len(st))
	}
	for _, st := range streams {
		r.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
	}
	s := &script{}
	for i := 0; i < rows; i++ {
		for _, st := range streams {
			s.order = append(s.order, len(s.ops))
			s.ops = append(s.ops, st[i%len(st)])
		}
	}
	return s
}

// joinScanCycle is the join_scan cycle: the paper's three live alternatives
// over the queries with large scans and intermediate results.
var joinScanCycle = []struct {
	t        template
	strategy string
}{
	{tEx1, "ref-gcov"}, {tQ2, "ref-gcov"}, {tQ5, "ref-gcov"}, {tQ6, "ref-gcov"},
	{tQ8, "ref-gcov"}, {tQ9, "ref-gcov"}, {tQ13, "ref-gcov"}, {tQ14, "ref-gcov"},
	{tEx1, "ref-range"}, {tQ5, "ref-range"}, {tQ8, "ref-range"}, {tQ13, "ref-range"},
	{tEx1, "sat"}, {tQ2, "sat"}, {tQ8, "sat"}, {tQ9, "sat"},
}

// joinScanLimit caps the rows a join_scan response serializes: the
// workload is about evaluation, not about encoding 10 000 rows of JSON.
// Cardinality is still checked on the uncapped total.
const joinScanLimit = 100

func buildJoinScan(c *catalog, r *rand.Rand) *script {
	k := constsOf(c, c.depts[r.Intn(len(c.depts))], r)
	s := &script{}
	for i, e := range joinScanCycle {
		s.ops = append(s.ops, queryOp(e.t, k, e.strategy, joinScanLimit))
		s.order = append(s.order, i)
	}
	return s
}

// mixed_rw: mixedCycles cycles of mixedCycleOps ops each; a cycle inserts
// mixedStudents fresh students (two triples each), reads, deletes them and
// reads again.
const (
	mixedCycles   = 12
	mixedStudents = 10
	mixedCycleOps = 10
)

func buildMixedRW(c *catalog, r *rand.Rand) *script {
	s := &script{}
	perm := r.Perm(len(c.depts))
	for cyc := 0; cyc < mixedCycles; cyc++ {
		d := c.depts[perm[cyc%len(perm)]]
		k := constsOf(c, d, r)
		var batch []rdf.Triple
		for i := 0; i < mixedStudents; i++ {
			st := rdf.NewIRI(fmt.Sprintf("%s/BenchStudent%d_%d", d.iri, cyc, i))
			batch = append(batch,
				rdf.NewTriple(st, rdf.Type, lubm.Class("GraduateStudent")),
				rdf.NewTriple(st, lubm.Prop("takesCourse"), rdf.NewIRI(k.gradCourse)))
		}
		// Q1 and Q10 read the inserted students back; Q5 and Q3 must not
		// change.
		reads := func(delta int) {
			for _, t := range []template{tQ1, tQ10, tQ5, tQ3} {
				o := queryOp(t, k, "", 0)
				if t.name == "Q1" || t.name == "Q10" {
					o.delta = delta
				}
				s.ops = append(s.ops, o)
			}
		}
		s.ops = append(s.ops, updateOp(batch, true))
		reads(mixedStudents)
		s.ops = append(s.ops, updateOp(batch, false))
		reads(0)
	}
	for i := range s.ops {
		s.order = append(s.order, i)
	}
	return s
}

// updateOp builds a /v1/update op inserting or deleting the batch.
func updateOp(batch []rdf.Triple, insert bool) op {
	doc := rdf.FormatTriples(batch)
	req, o := httpapi.UpdateRequest{Delete: doc}, op{class: "delete", field: "deleted"}
	if insert {
		req, o = httpapi.UpdateRequest{Insert: doc}, op{class: "insert", field: "inserted"}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	o.path, o.body, o.want, o.triples, o.insert = "/v1/update", body, len(batch), batch, insert
	return o
}
