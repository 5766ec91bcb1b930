// Package repro is a reproduction of "Reformulation-based query answering
// in RDF: alternatives and performance" (Bursztyn, Goasdoué, Manolescu,
// VLDB 2015): a complete RDF query answering system for the database
// fragment of RDF, offering saturation-based (Sat), reformulation-based
// (Ref, with UCQ / SCQ / cover-induced JUCQ strategies and the cost-based
// GCov cover search) and Datalog-based (Dat) query answering over an
// embedded dictionary-encoded triple store.
//
// Quick start:
//
//	db, err := repro.OpenString(turtleData)
//	res, err := db.AnswerContext(ctx, `SELECT ?x WHERE { ?x rdf:type ex:Person }`, repro.Options{})
//	for i := 0; i < res.Len(); i++ { fmt.Println(res.Row(i)) }
//
// Queries are written either in SPARQL BGP syntax (SELECT … WHERE { … }) or
// in the paper's rule notation (q(x) :- x rdf:type ex:Person). The default
// strategy is GCov — the paper's cost-based cover selection.
package repro

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/lubm"
	"repro/internal/ntriples"
	"repro/internal/query"
	"repro/internal/stats"
)

// Strategy selects a query answering technique.
type Strategy = engine.Strategy

// The available strategies (see the package comment and DESIGN.md).
const (
	// Sat evaluates against the saturated graph.
	Sat = engine.Sat
	// RefUCQ evaluates the union-of-CQs reformulation.
	RefUCQ = engine.RefUCQ
	// RefSCQ evaluates the semi-conjunctive reformulation.
	RefSCQ = engine.RefSCQ
	// RefJUCQ evaluates the JUCQ of a user-chosen cover (Options.Cover).
	RefJUCQ = engine.RefJUCQ
	// RefGCov evaluates the JUCQ of the cost-selected cover (default).
	RefGCov = engine.RefGCov
	// RefRange evaluates the interval-encoded range reformulation: a
	// handful of range CQs instead of thousands of atomic ones.
	RefRange = engine.RefRange
	// RefIncomplete mimics native RDF platforms' fixed incomplete Ref.
	RefIncomplete = engine.RefIncomplete
	// Dat answers through a Datalog encoding.
	Dat = engine.Dat
)

// Options tunes one AnswerContext call.
type Options struct {
	// Strategy; zero value means RefGCov.
	Strategy Strategy
	// Cover for RefJUCQ: fragments of 0-based atom indexes.
	Cover [][]int
	// Prefixes adds prefix declarations for rule-notation queries
	// (SPARQL queries declare their own).
	Prefixes map[string]string
	// Timeout bounds evaluation (0 = none).
	Timeout time.Duration
	// MaxRows bounds any intermediate relation (0 = none).
	MaxRows int
}

// DB is an in-memory RDF database with reasoning.
type DB struct {
	eng *engine.Engine
}

// Open loads a graph (data + RDFS constraints) from an N-Triples/Turtle
// file.
func Open(path string) (*DB, error) {
	g, err := graph.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return &DB{eng: engine.New(g)}, nil
}

// OpenReader loads a graph from a reader.
func OpenReader(r io.Reader) (*DB, error) {
	g, err := graph.Parse(r)
	if err != nil {
		return nil, err
	}
	return &DB{eng: engine.New(g)}, nil
}

// OpenString loads a graph from Turtle/N-Triples text.
func OpenString(text string) (*DB, error) {
	g, err := graph.ParseString(text)
	if err != nil {
		return nil, err
	}
	return &DB{eng: engine.New(g)}, nil
}

// OpenSnapshot loads a graph from a binary snapshot written by
// SaveSnapshot (dictionary-preserving, much faster than re-parsing).
func OpenSnapshot(path string) (*DB, error) {
	g, err := graph.LoadSnapshot(path)
	if err != nil {
		return nil, err
	}
	return &DB{eng: engine.New(g)}, nil
}

// OpenLUBM generates the LUBM scenario of the paper's Example 1 with the
// given number of universities (LUBM scale factor).
func OpenLUBM(universities int, seed int64) (*DB, error) {
	p := lubm.Default()
	if universities > 0 {
		p.Universities = universities
	}
	g, err := lubm.NewGraph(p, seed)
	if err != nil {
		return nil, err
	}
	return &DB{eng: engine.New(g)}, nil
}

// SaveSnapshot writes the graph to a binary snapshot file.
func (db *DB) SaveSnapshot(path string) error {
	return db.eng.Graph().SaveSnapshot(path)
}

// Insert adds instance triples (Turtle/N-Triples text) to the database.
// RDFS constraint triples are rejected: constraint changes require
// rebuilding (their closure and every reformulation depend on them). The
// saturated side is maintained incrementally.
func (db *DB) Insert(turtle string) error {
	ts, err := ntriples.ParseString(turtle)
	if err != nil {
		return err
	}
	return db.eng.InsertData(ts)
}

// Delete removes instance triples (Turtle/N-Triples text); absent triples
// are ignored. It returns how many triples were removed.
func (db *DB) Delete(turtle string) (int, error) {
	ts, err := ntriples.ParseString(turtle)
	if err != nil {
		return 0, err
	}
	return db.eng.DeleteData(ts)
}

// TripleCount returns the number of explicit data triples.
func (db *DB) TripleCount() int { return db.eng.Graph().DataCount() }

// SchemaSummary describes the closed schema.
func (db *DB) SchemaSummary() string { return db.eng.Graph().Schema().String() }

// StatsSummary renders the demo's step-1 statistics (top-k distributions).
func (db *DB) StatsSummary(k int) string {
	return db.eng.Stats().Summary(db.eng.Graph().Dict(), k)
}

// Result holds query answers; terms are rendered in N-Triples syntax.
type Result struct {
	cols []string
	rows [][]string
	// Meta describes how the answer was computed.
	Meta Meta
}

// Meta reports reformulation and timing metadata for one answer.
type Meta struct {
	Strategy         Strategy
	Cover            string
	ReformulationCQs int
	PrepTime         time.Duration
	EvalTime         time.Duration
	EstimatedCost    float64
}

// Columns returns the answer column names.
func (r *Result) Columns() []string { return append([]string(nil), r.cols...) }

// Len returns the number of answer rows.
func (r *Result) Len() int { return len(r.rows) }

// Row returns the i-th answer row, each term in N-Triples syntax.
func (r *Result) Row(i int) []string { return append([]string(nil), r.rows[i]...) }

// Rows returns all rows.
func (r *Result) Rows() [][]string {
	out := make([][]string, len(r.rows))
	for i := range r.rows {
		out[i] = r.Row(i)
	}
	return out
}

// parse parses SPARQL or rule notation depending on the leading keyword.
func (db *DB) parse(text string, prefixes map[string]string) (query.CQ, error) {
	trimmed := strings.TrimSpace(text)
	upper := strings.ToUpper(trimmed)
	if strings.HasPrefix(upper, "SELECT") || strings.HasPrefix(upper, "PREFIX") {
		return query.ParseSPARQL(db.eng.Graph().Dict(), text)
	}
	return query.ParseRuleWithPrefixes(db.eng.Graph().Dict(), prefixes, text)
}

// AnswerContext parses and answers the query with the chosen strategy,
// bounded by ctx: cancellation aborts the evaluation mid-operator (the
// context is checked together with the Options timeout at every operator
// checkpoint). SPARQL queries may use UNION groups ({ … } UNION { … }) —
// the full "(unions of) BGP queries" dialect of the paper's §3.
func (db *DB) AnswerContext(ctx context.Context, queryText string, opt Options) (*Result, error) {
	trimmed := strings.TrimSpace(queryText)
	upper := strings.ToUpper(trimmed)
	if (strings.HasPrefix(upper, "SELECT") || strings.HasPrefix(upper, "PREFIX")) &&
		strings.Contains(upper, "UNION") {
		u, err := query.ParseSPARQLUnion(db.eng.Graph().Dict(), queryText)
		if err != nil {
			return nil, err
		}
		return db.result(db.answer(ctx, u, opt))
	}
	q, err := db.parse(queryText, opt.Prefixes)
	if err != nil {
		return nil, err
	}
	return db.AnswerCQContext(ctx, q, opt)
}

// AnswerCQContext answers an already-parsed query, bounded by ctx.
func (db *DB) AnswerCQContext(ctx context.Context, q query.CQ, opt Options) (*Result, error) {
	return db.result(db.answer(ctx, query.UCQ{CQs: []query.CQ{q}}, opt))
}

// answer answers a parsed query — one BGP, u's only member, or a union of
// several — with opt's strategy (GCov when unset), cover and budget. It
// answers on a copy of the engine, the reader rule of engine.Engine: each
// call bounds its own evaluation, so calls answering concurrently through
// one DB neither race on the budget nor bound one another.
func (db *DB) answer(ctx context.Context, u query.UCQ, opt Options) (*engine.Answer, error) {
	eng := *db.eng
	eng.Budget = exec.Budget{Timeout: opt.Timeout, MaxRows: opt.MaxRows}
	s := opt.Strategy
	if s == "" {
		s = RefGCov
	}
	switch {
	case len(u.CQs) != 1:
		return eng.AnswerUnionContext(ctx, u, s)
	case s == RefJUCQ:
		return eng.AnswerWithCoverContext(ctx, u.CQs[0], opt.Cover)
	default:
		return eng.AnswerContext(ctx, u.CQs[0], s)
	}
}

// result renders an answer: rows sorted, terms in N-Triples syntax.
func (db *DB) result(ans *engine.Answer, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	d := db.eng.Graph().Dict()
	ans.Rows.SortFirst(ans.Rows.Len())
	res := &Result{
		cols: ans.Rows.Vars,
		Meta: Meta{
			Strategy:         ans.Strategy,
			Cover:            fmt.Sprint(ans.Cover),
			ReformulationCQs: ans.ReformulationCQs,
			PrepTime:         ans.PrepTime,
			EvalTime:         ans.EvalTime,
			EstimatedCost:    ans.EstimatedCost,
		},
	}
	for i := 0; i < ans.Rows.Len(); i++ {
		row := ans.Rows.Row(i)
		out := make([]string, len(row))
		for j, id := range row {
			out[j] = d.Decode(id).String()
		}
		res.rows = append(res.rows, out)
	}
	return res, nil
}

// Explain answers the query with GCov and reports the reformulation, the
// explored cover space and per-fragment sizes (the demo's step 3).
func (db *DB) Explain(queryText string, opt Options) (string, error) {
	q, err := db.parse(queryText, opt.Prefixes)
	if err != nil {
		return "", err
	}
	d := db.eng.Graph().Dict()
	var sb strings.Builder
	fmt.Fprintf(&sb, "query: %s\n", query.FormatCQ(d, q))
	total, per := db.eng.Reformulator().CombinationCount(q)
	fmt.Fprintf(&sb, "UCQ reformulation: %d CQs (per atom: %v)\n", total, per)
	opt.Strategy = RefGCov
	//reflint:ctxbg Explain is the context-free explanation entry point; opt's budget bounds it
	ans, err := db.answer(context.Background(), query.UCQ{CQs: []query.CQ{q}}, opt)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "GCov cover: %v (estimated cost %.0f), %d CQs across fragments\n",
		ans.Cover, ans.EstimatedCost, ans.ReformulationCQs)
	sb.WriteString("explored covers:\n")
	for _, e := range ans.Explored {
		switch {
		case e.Pruned:
			fmt.Fprintf(&sb, "  pruned  %-36s %s\n", e.Cover, e.Reason)
		case e.Adopted:
			fmt.Fprintf(&sb, "  adopted %-36s cost=%.0f card=%.0f\n", e.Cover, e.Cost, e.Card)
		default:
			fmt.Fprintf(&sb, "  tried   %-36s cost=%.0f card=%.0f\n", e.Cover, e.Cost, e.Card)
		}
	}
	fmt.Fprintf(&sb, "answers: %d rows in %v (prep %v)\n", ans.Rows.Len(), ans.EvalTime, ans.PrepTime)
	return sb.String(), nil
}

// Why answers the query by reformulation and explains each answer: which
// member CQs of the UCQ reformulation produced it. Member 0 is the
// original query (an explicit match); any other member witnesses a chain
// of RDFS constraint applications that entails the answer.
func (db *DB) Why(queryText string, opt Options) (string, error) {
	q, err := db.parse(queryText, opt.Prefixes)
	if err != nil {
		return "", err
	}
	eng := db.eng
	d := eng.Graph().Dict()
	u := eng.Reformulator().ReformulateCQ(q)
	ev := exec.New(eng.Store(), eng.Stats())
	ev.Budget = exec.Budget{Timeout: opt.Timeout, MaxRows: opt.MaxRows}
	//reflint:ctxbg Why is the context-free explanation entry point; the budget above bounds it
	rows, prov, err := ev.EvalUCQWithProvenanceContext(context.Background(), u)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "query: %s\n%d answers from a %d-CQ reformulation\n",
		query.FormatCQ(d, q), rows.Len(), len(u.CQs))
	const maxShow = 25
	for i := 0; i < rows.Len() && i < maxShow; i++ {
		row := rows.Row(i)
		parts := make([]string, len(row))
		for j, id := range row {
			parts[j] = d.Decode(id).String()
		}
		fmt.Fprintf(&sb, "\nanswer %s\n", strings.Join(parts, "  "))
		for _, ci := range prov[i] {
			tag := "derived "
			if ci == 0 {
				tag = "explicit"
			}
			fmt.Fprintf(&sb, "  %s via %s\n", tag, query.FormatCQ(d, u.CQs[ci]))
		}
	}
	if rows.Len() > maxShow {
		fmt.Fprintf(&sb, "\n… %d more answers\n", rows.Len()-maxShow)
	}
	return sb.String(), nil
}

// Engine exposes the underlying strategy engine for advanced use (the
// examples and benchmarks build on it).
func (db *DB) Engine() *engine.Engine { return db.eng }

// CollectStats exposes the statistics module (demo step 1).
func (db *DB) CollectStats() *stats.Stats { return db.eng.Stats() }
