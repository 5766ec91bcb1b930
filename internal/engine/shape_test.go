package engine

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/lubm"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/trace"
	"repro/internal/viewcache"
)

// hostileGraph parses the small schema every rule of lifting and merging must
// be sound under (see the file's header): cycles, multiple inheritance,
// domain and range on sub-properties, schema IRIs used as data.
func hostileGraph(t *testing.T) *graph.Graph {
	t.Helper()
	text, err := os.ReadFile("../query/testdata/hostile.ttl")
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ParseString(string(text))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// shapeTemplate is one query text with %[1]s and %[2]s where constants go.
type shapeTemplate struct {
	name, text string
	// twoSlots binds one constant to both holes, and then two different ones.
	twoSlots bool
	// unlifted says the hole is where a reformulation rule reads: every
	// constant is a shape of its own.
	unlifted bool
}

var shapeTemplatesSmall = []shapeTemplate{
	{name: "object", text: `q(x) :- x ex:likes %[1]s`},                     // a class IRI as object of a non-type property
	{name: "subject", text: `q(p, o) :- %[1]s p o`},                        // a class IRI as subject, under a property variable
	{name: "subject-type", text: `q(c) :- %[1]s rdf:type c`},               // rules 5–7 carry the subject
	{name: "domain-range", text: `q(x) :- x rdf:type ex:C, %[1]s ex:p2 x`}, // rule 3 moves a subject into object position
	{name: "two-slots", text: `q(x) :- x ex:likes %[1]s, x ex:likes %[2]s`, twoSlots: true},
	{name: "two-slots-sub", text: `q(x) :- x ex:p2 %[1]s, x ex:p3 %[2]s`, twoSlots: true}, // members equal up to atom order when the slots agree
	{name: "subclass-object", text: `q(x) :- x rdfs:subClassOf %[1]s`},
	{name: "subclass-subject", text: `q(y) :- %[1]s rdfs:subClassOf y`},
	{name: "join", text: `q(x, y) :- x rdf:type ex:B, x ex:p3 y, y ex:likes %[1]s`},
	{name: "type-object", text: `q(x) :- x rdf:type %[1]s`, unlifted: true},
	{name: "variable-property-object", text: `q(x, p) :- x p %[1]s`, unlifted: true},
}

var shapeTemplatesLUBM = []shapeTemplate{
	{name: "Q1", text: `q(x) :- x rdf:type ub:GraduateStudent, x ub:takesCourse %[1]s`},
	{name: "Q3", text: `q(x) :- x rdf:type ub:Publication, x ub:publicationAuthor %[1]s`},
	{name: "Q4", text: `q(x, n, e, t) :- x rdf:type ub:Professor, x ub:worksFor %[1]s, x ub:name n, x ub:emailAddress e, x ub:telephone t`},
	{name: "Q5", text: `q(x) :- x rdf:type ub:Person, x ub:memberOf %[1]s`},
	{name: "Q7", text: `q(x, y) :- x rdf:type ub:Student, y rdf:type ub:Course, x ub:takesCourse y, %[1]s ub:teacherOf y`},
	{name: "Q11", text: `q(x) :- x rdf:type ub:ResearchGroup, x ub:subOrganizationOf y, y ub:subOrganizationOf %[1]s`},
	{name: "degrees", text: `q(x) :- x ub:mastersDegreeFrom %[1]s, x ub:doctoralDegreeFrom %[2]s`, twoSlots: true},
}

// iriPool returns the IRIs occurring as subject or object of g's data —
// entities, and the class and property IRIs used as such — sorted, plus one
// the dictionary has never seen.
func iriPool(g *graph.Graph) []string {
	seen := map[string]bool{}
	for _, tr := range g.DecodedData() {
		for _, term := range []rdf.Term{tr.S, tr.O} {
			if term.Kind == rdf.IRI {
				seen[term.String()] = true
			}
		}
	}
	pool := make([]string, 0, len(seen)+1)
	for iri := range seen {
		pool = append(pool, iri)
	}
	sort.Strings(pool)
	return append(pool, "<http://example.org/never-seen-before>")
}

// spread picks n constants evenly from the pool, the unseen one included.
func spread(pool []string, n int) []string {
	if len(pool) <= n {
		return pool
	}
	out := make([]string, 0, n)
	for i := 0; i < n-1; i++ {
		out = append(out, pool[i*len(pool)/(n-1)])
	}
	return append(out, pool[len(pool)-1])
}

// TestShapeHitsAnswerLikeFreshPlans is the soundness of lifting: for every
// template and every constant, on every strategy the plan cache serves, at 1
// and 4 shards, the answer of an engine that binds cached shapes — their
// fragments' merged members — and keeps fragments in its view cache, keyed
// by the bound fragment query, equals the answer of an engine that plans
// every query afresh and equals Sat's. It also holds the plan cache to what
// a shape cache promises: an answer that added no entry was a hit, and a
// template takes a handful of entries (one per selectivity class), not one
// per constant.
func TestShapeHitsAnswerLikeFreshPlans(t *testing.T) {
	small := hostileGraph(t)
	mini, err := lubm.NewGraph(lubm.Mini(), 42)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []struct {
		name      string
		g         *graph.Graph
		prefixes  map[string]string
		templates []shapeTemplate
	}{
		{"small", small, map[string]string{"ex": "http://example.org/"}, shapeTemplatesSmall},
		{"lubm", mini, map[string]string{"ub": lubm.NS}, shapeTemplatesLUBM},
	}
	const perTemplate = 22
	for _, fx := range fixtures {
		pool := spread(iriPool(fx.g), perTemplate)
		if len(pool) < 20 {
			t.Fatalf("%s: %d constants, want at least 20", fx.name, len(pool))
		}
		oracle := New(fx.g)
		for _, shards := range []int{1, 4} {
			cached, fresh := New(fx.g), New(fx.g)
			cached.EnableSharding(shards)
			fresh.EnableSharding(shards)
			cached.SetPlanCacheCapacity(1 << 12) // no eviction: a miss is an entry more
			cached.EnableViewCache(viewcache.Config{MinCost: -1})
			for _, tpl := range fx.templates {
				t.Run(fmt.Sprintf("%s/shards=%d/%s", fx.name, shards, tpl.name), func(t *testing.T) {
					var bindings [][2]string
					for i, c := range pool {
						bindings = append(bindings, [2]string{c, c})
						if tpl.twoSlots {
							bindings = append(bindings, [2]string{c, pool[(i+1)%len(pool)]})
						}
					}
					before := cached.d.plans.len()
					for _, b := range bindings {
						text := fmt.Sprintf(tpl.text, b[0])
						if tpl.twoSlots {
							text = fmt.Sprintf(tpl.text, b[0], b[1])
						}
						q, err := query.ParseRuleWithPrefixes(fx.g.Dict(), fx.prefixes, text)
						if err != nil {
							t.Fatal(err)
						}
						want, err := oracle.AnswerContext(context.Background(), q, Sat)
						if err != nil {
							t.Fatal(err)
						}
						checkShapeHit(t, cached, fresh, q, text, decodedCanon(fx.g.Dict(), want))
					}
					// Four strategies, a few selectivity classes each.
					if grew := cached.d.plans.len() - before; grew > 4*5 && !tpl.unlifted {
						t.Errorf("%d constants left %d plans in the cache: the constants are in the key", len(bindings), grew)
					}
				})
			}
			// The hits bound merged fragments, not only member-by-member ones.
			merged := 0
			for _, el := range cached.d.plans.byKey {
				if p := el.Value.(*prepared); p.jucq != nil {
					for _, f := range p.jucq.Fragments {
						if len(f.Members) < len(f.UCQ.CQs) {
							merged++
						}
					}
				}
			}
			if merged == 0 {
				t.Errorf("%s/shards=%d: no cached plan has a merged fragment", fx.name, shards)
			}
		}
	}
}

// checkShapeHit answers q on cached, which keeps its plans, and on fresh,
// whose plan cache is emptied first, with every cached strategy, and
// compares both with want, the canonical rendering of Sat's answer.
func checkShapeHit(t *testing.T, cached, fresh *Engine, q query.CQ, text, want string) {
	t.Helper()
	d := cached.Graph().Dict()
	cover := query.OneBlockCover(len(q.Atoms))
	if len(q.Atoms) > 1 {
		cover = query.Cover{{0, 1}, cover[0][1:]}
	}
	for _, s := range []Strategy{RefSCQ, RefJUCQ, RefGCov, RefRange} {
		answer := func(e *Engine) *Answer {
			t.Helper()
			var (
				a   *Answer
				err error
			)
			if s == RefJUCQ {
				a, err = e.AnswerWithCoverContext(context.Background(), q, cover)
			} else {
				a, err = e.AnswerContext(context.Background(), q, s)
			}
			if err != nil {
				t.Fatalf("%s on %s: %v", s, text, err)
			}
			return a
		}
		fresh.SetPlanCacheCapacity(0)
		ref := answer(fresh)
		if ref.CachedPlan {
			t.Fatalf("%s on %s: the reference engine served a cached plan", s, text)
		}
		n := cached.d.plans.len()
		got := answer(cached)
		if hit := cached.d.plans.len() == n; hit != got.CachedPlan {
			t.Errorf("%s on %s: CachedPlan %v, but the cache went from %d to %d plans", s, text, got.CachedPlan, n, cached.d.plans.len())
		}
		gotRows, refRows := decodedCanon(d, got), decodedCanon(d, ref)
		if gotRows != refRows {
			t.Errorf("%s on %s (cached plan: %v): %d rows, a fresh plan gives %d", s, text, got.CachedPlan, got.Rows.Len(), ref.Rows.Len())
		}
		if gotRows != want {
			t.Errorf("%s on %s (cached plan: %v): %d rows differ from sat's", s, text, got.CachedPlan, got.Rows.Len())
		}
	}
}

// What selects reformulation rules is not lifted: a class under rdf:type or
// under a property variable, and a property, stay in the shape, so two
// texts differing there are two shapes; two texts differing in a subject,
// or an object under a constant property, are one. A head constant stays too.
func TestLiftKeepsWhatSelectsRules(t *testing.T) {
	e, g := mustEngine(t)
	key := func(text string) string {
		q := mustQuery(t, g, text)
		shape, _ := query.Lift(q, e.d.typeID)
		return planKey(RefGCov, nil, 0, shape, "")
	}
	for _, c := range []struct {
		a, b string
		same bool
	}{
		{`q(x) :- x rdf:type ex:Book`, `q(x) :- x rdf:type ex:Publication`, false},
		{`q(x) :- x p ex:Book`, `q(x) :- x p ex:Publication`, false},
		{`q(x) :- x ex:writtenBy y`, `q(x) :- x ex:hasAuthor y`, false},
		{`q(x) :- x ex:hasTitle "El Aleph"`, `q(x) :- x ex:hasTitle "Ficciones"`, true},
		{`q(x) :- x ex:hasAuthor ex:Book`, `q(x) :- x ex:hasAuthor ex:Publication`, true},
		{`q(y) :- ex:doi1 ex:hasTitle y`, `q(y) :- ex:Book ex:hasTitle y`, true},
		{`q(y) :- ex:doi1 rdf:type y`, `q(y) :- ex:Book rdf:type y`, true},
		{`q(p) :- ex:doi1 p "1949"`, `q(p) :- ex:Book p "1949"`, true},
		{`q(p) :- ex:doi1 p "1949"`, `q(p) :- ex:doi1 p "1950"`, false},
		{`q(y) :- ex:Book rdfs:subClassOf y`, `q(y) :- ex:Person rdfs:subClassOf y`, true},
	} {
		if got := key(c.a) == key(c.b); got != c.same {
			t.Errorf("%s and %s share a shape: %v, want %v", c.a, c.b, got, c.same)
		}
	}

	// A head constant is no atom's: it stays in the shape, and the JUCQ
	// strategies (the ones that accept one) answer a hit as a fresh plan.
	q := mustQuery(t, g, `q(x) :- x rdf:type ex:Publication, x ex:hasTitle "El Aleph"`)
	pub, book := q.Atoms[0].O, mustQuery(t, g, `q(x) :- x rdf:type ex:Book`).Atoms[0].O
	withHead := func(c query.Arg, title string) query.CQ {
		h := mustQuery(t, g, fmt.Sprintf(`q(x) :- x rdf:type ex:Publication, x ex:hasTitle %q`, title))
		h.Head = append(h.Head, c)
		return h
	}
	shapeA, _ := query.Lift(withHead(book, "El Aleph"), e.d.typeID)
	shapeB, _ := query.Lift(withHead(pub, "El Aleph"), e.d.typeID)
	if planKey(RefGCov, nil, 0, shapeA, "") == planKey(RefGCov, nil, 0, shapeB, "") {
		t.Error("two head constants share a shape")
	}
	fresh := New(g)
	for _, title := range []string{"El Aleph", "Ficciones", "El Aleph"} {
		h := withHead(book, title)
		for _, s := range []Strategy{RefSCQ, RefGCov} {
			fresh.SetPlanCacheCapacity(0)
			want, err := fresh.AnswerContext(context.Background(), h, s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.AnswerContext(context.Background(), h, s)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Rows.Equal(want.Rows) {
				t.Errorf("%s with a head constant, title %q: %d rows, a fresh plan gives %d", s, title, got.Rows.Len(), want.Rows.Len())
			}
		}
	}
}

// A constant of another selectivity class is another entry, planned and
// priced afresh: of the objects of ex:likes in the hostile graph, ex:e1
// matches six triples and ex:D one.
func TestSelectivityClassIsPartOfTheKey(t *testing.T) {
	g := hostileGraph(t)
	e := New(g)
	answer := func(c string) *Answer {
		t.Helper()
		q, err := query.ParseRuleWithPrefixes(g.Dict(), map[string]string{"ex": "http://example.org/"},
			fmt.Sprintf(`q(x, y) :- x ex:likes %s, x ex:likes y`, c))
		if err != nil {
			t.Fatal(err)
		}
		a, err := e.AnswerContext(context.Background(), q, RefGCov)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	rare := answer("ex:D")
	if again := answer("ex:A"); !again.CachedPlan || again.EstimatedCost != rare.EstimatedCost {
		t.Fatalf("a constant of the same class: cached %v, estimate %v after %v", again.CachedPlan, again.EstimatedCost, rare.EstimatedCost)
	}
	if e.d.plans.len() != 1 {
		t.Fatalf("%d plans after two constants of one class", e.d.plans.len())
	}
	common := answer("ex:e1")
	if common.CachedPlan || e.d.plans.len() != 2 {
		t.Fatalf("a constant matching six times the triples: cached %v, %d plans", common.CachedPlan, e.d.plans.len())
	}
	if common.EstimatedCost <= rare.EstimatedCost {
		t.Fatalf("estimate %v for the common constant, %v for the rare one: not priced afresh", common.EstimatedCost, rare.EstimatedCost)
	}
	if again := answer("ex:e1"); !again.CachedPlan {
		t.Fatal("the second class's plan was not kept")
	}
}

// fingerprint renders everything a cached plan shares with its requests.
func (p *prepared) fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%s|%s|%v|%v|%d|%v|%v|", p.key, p.shape, p.classes, p.q, p.cover, p.cqs, p.est, p.explored)
	fmt.Fprintf(&sb, "%v|%v|%q|%v", *p.jucq, p.frags.slots, p.frags.sigs(), p.fragEsts)
	return sb.String()
}

// Eight readers bind one shared cached plan per strategy with different
// constants while a writer inserts and deletes data: the shared plans are
// never written (the race detector watches; the fingerprints agree), every
// answer after the first of a shape is a hit, and the cache stays at the
// shape count. The writer publishes each version through an atomic pointer
// and readers copy the one they load, with no lock between them, and trace
// every answer, as the HTTP layer does — so the plans' fragment estimates
// are read concurrently too.
func TestReadersBindOneSharedPlan(t *testing.T) {
	g, err := lubm.NewGraph(lubm.Mini(), 42)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	prefixes := map[string]string{"ub": lubm.NS}
	const text = `q(x) :- x rdf:type ub:Person, x ub:memberOf %s`
	strategies := []Strategy{RefSCQ, RefGCov, RefRange}
	// Departments, and other IRIs no one is a member of: two selectivity
	// classes at most.
	var queries []query.CQ
	for _, c := range spread(iriPool(g), 12) {
		q, err := query.ParseRuleWithPrefixes(g.Dict(), prefixes, fmt.Sprintf(text, c))
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	// Plan every shape once.
	for _, q := range queries {
		for _, s := range strategies {
			if _, err := e.AnswerContext(context.Background(), q, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	shapes := e.d.plans.len()
	if shapes > 2*len(strategies) {
		t.Fatalf("%d plans for %d strategies and %d constants", shapes, len(strategies), len(queries))
	}
	shared := map[string]string{}
	for k, el := range e.d.plans.byKey {
		shared[k] = el.Value.(*prepared).fingerprint()
	}

	var (
		published atomic.Pointer[Engine]
		wg        sync.WaitGroup
		stop      = make(chan struct{})
	)
	published.Store(e)
	// The write leaves every parameterized atom's count, and so its class, alone.
	extra := []rdf.Triple{rdf.NewTriple(rdf.NewIRI("http://example.org/newcomer"), lubm.Prop("name"), rdf.NewLiteral("N. N."))}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			next := *published.Load()
			var err error
			if i%2 == 0 {
				err = next.InsertData(extra)
			} else {
				_, err = next.DeleteData(extra)
			}
			published.Store(&next)
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 40; i++ {
				q, s := queries[(r+i)%len(queries)], strategies[i%len(strategies)]
				eng := *published.Load()
				eng.Tracer = trace.New(0)
				a, err := eng.AnswerContext(context.Background(), q, s)
				if err != nil {
					t.Error(err)
					return
				}
				if !a.CachedPlan {
					t.Errorf("reader %d, %s: planned afresh", r, s)
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	e = published.Load()
	if n := e.d.plans.len(); n != shapes {
		t.Errorf("%d plans after the readers, %d before", n, shapes)
	}
	for k, el := range e.d.plans.byKey {
		if got := el.Value.(*prepared).fingerprint(); got != shared[k] {
			t.Errorf("the shared plan %s was written to", k)
		}
	}
}

// Every strategy that plans through the cache counts its lookups, at the
// lookup (plancache.*) and per answer (engine.plancache.*); the strategies
// with nothing schema-only to keep count nothing.
func TestPlanCacheCountsEveryPlannedStrategy(t *testing.T) {
	e, g := mustEngine(t)
	e.Metrics = metrics.NewRegistry()
	q := mustQuery(t, g, `q(x) :- x rdf:type ex:Publication, x ex:hasTitle "El Aleph"`)
	for i := 0; i < 2; i++ {
		for _, s := range []Strategy{Sat, RefUCQ, RefSCQ, RefGCov, RefRange} {
			if _, err := e.AnswerContext(context.Background(), q, s); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.AnswerWithCoverContext(context.Background(), q, query.OneBlockCover(2)); err != nil {
			t.Fatal(err)
		}
	}
	c := e.Metrics.Snapshot().Counters
	for _, name := range []string{"plancache.miss", "plancache.hit", "engine.plancache.misses", "engine.plancache.hits"} {
		if c[name] != 4 {
			t.Errorf("%s = %d after two rounds of four planned strategies, want 4", name, c[name])
		}
	}
}
