package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/testutil"
	"repro/internal/viewcache"
)

// TestRefRangeMatchesRefUCQ: on a fixed graph, ref-range must return exactly
// the rows of the exhaustive ref-ucq reformulation for every query shape the
// range rewriting handles specially (type atoms, bound properties, variable
// properties, constants, boolean heads).
func TestRefRangeMatchesRefUCQ(t *testing.T) {
	e, g := mustEngine(t)
	queries := []string{
		`q(x) :- x rdf:type ex:Publication`,
		`q(x, y) :- x ex:hasAuthor z, z ex:hasName y`,
		`q(x) :- x rdf:type ex:Book, x ex:hasTitle y`,
		`q(x, p) :- x p "1949"`,
		`q(x3) :- x1 ex:hasAuthor x2, x2 ex:hasName x3, x1 x4 "1949"`,
		`q() :- x rdf:type ex:Person`,
		`q(c) :- x rdf:type c`,
	}
	for _, text := range queries {
		q := mustQuery(t, g, text)
		want, err := e.AnswerContext(context.Background(), q, RefUCQ)
		if err != nil {
			t.Fatalf("%s ref-ucq: %v", text, err)
		}
		got, err := e.AnswerContext(context.Background(), q, RefRange)
		if err != nil {
			t.Fatalf("%s ref-range: %v", text, err)
		}
		if !got.Rows.Equal(want.Rows) {
			t.Fatalf("%s: ref-range %d rows != ref-ucq %d rows",
				text, got.Rows.Len(), want.Rows.Len())
		}
		if got.Strategy != RefRange || got.ReformulationCQs < 1 {
			t.Fatalf("%s: answer metadata missing: %+v", text, got)
		}
		if got.ReformulationCQs > want.ReformulationCQs {
			t.Fatalf("%s: range reformulation (%d CQs) larger than the UCQ it replaces (%d)",
				text, got.ReformulationCQs, want.ReformulationCQs)
		}
	}
}

// reencodeCQ rewrites a query's constants from one dictionary's encoding to
// another's — what a client effectively does by re-submitting the textual
// query after a schema change re-encoded the database.
func reencodeCQ(q query.CQ, oldD, newD *dict.Dict) query.CQ {
	re := func(a query.Arg) query.Arg {
		if a.IsVar() {
			return a
		}
		return query.Constant(newD.Encode(oldD.Decode(a.ID)))
	}
	out := query.CQ{
		Head:  make([]query.Arg, len(q.Head)),
		Atoms: make([]query.Atom, len(q.Atoms)),
	}
	for i, h := range q.Head {
		out.Head[i] = re(h)
	}
	for i, a := range q.Atoms {
		out.Atoms[i] = query.Atom{S: re(a.S), P: re(a.P), O: re(a.O)}
	}
	return out
}

// decodedCanon renders an answer relation as decoded, sorted text — the
// encoding-independent form used to compare answers across re-encodings.
func decodedCanon(d *dict.Dict, a *Answer) string {
	lines := make([]string, 0, a.Rows.Len())
	for i := 0; i < a.Rows.Len(); i++ {
		row := a.Rows.Row(i)
		parts := make([]string, len(row))
		for j, id := range row {
			parts[j] = d.Decode(id).String()
		}
		lines = append(lines, strings.Join(parts, "\t"))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestRefRangeAgreesRandomAcrossUpdates is the range form's property test:
// over random hierarchies, data and queries, at 1 and 4 shards and with the
// view cache on, ref-range stays byte-identical to ref-ucq and equal to Sat —
// and remains so after data inserts, deletes and TBox updates (each TBox
// update re-encodes the dictionary, so the query is re-encoded the way a
// re-submitted textual query would be). Asked again, ref-range is served
// from the view cache.
func TestRefRangeAgreesRandomAcrossUpdates(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 4
	}
	for seed := 0; seed < iters; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				shards := shards
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(81000 + seed)))
					sc, err := testutil.RandomScenario(rng)
					if err != nil {
						t.Fatal(err)
					}
					e := New(sc.Graph)
					e.EnableSharding(shards)
					e.EnableViewCache(viewcache.Config{MinCost: -1}) // admit everything
					q := sc.RandomQuery(rng)

					check := func(step string) {
						d := e.Graph().Dict()
						want, err := e.AnswerContext(context.Background(), q, RefUCQ)
						if err != nil {
							t.Fatalf("%s ref-ucq: %v", step, err)
						}
						sat, err := e.AnswerContext(context.Background(), q, Sat)
						if err != nil {
							t.Fatalf("%s sat: %v", step, err)
						}
						got, err := e.AnswerContext(context.Background(), q, RefRange)
						if err != nil {
							t.Fatalf("%s ref-range: %v", step, err)
						}
						if !got.Rows.Equal(want.Rows) {
							t.Fatalf("%s: ref-range %d rows != ref-ucq %d rows on %s",
								step, got.Rows.Len(), want.Rows.Len(),
								query.FormatCQ(d, q))
						}
						if decodedCanon(d, got) != decodedCanon(d, sat) {
							t.Fatalf("%s: ref-range and sat answers differ on %s",
								step, query.FormatCQ(d, q))
						}
						again, err := e.AnswerContext(context.Background(), q, RefRange)
						if err != nil {
							t.Fatalf("%s ref-range again: %v", step, err)
						}
						if again.CachedFragments < 1 || !again.Rows.Equal(got.Rows) {
							t.Fatalf("%s: a repeated ref-range answer: %d cached fragments, %d rows after %d",
								step, again.CachedFragments, again.Rows.Len(), got.Rows.Len())
						}
						// A fresh engine over the same graph must agree too: catches
						// stale caches surviving an update.
						fresh, err := New(e.Graph()).AnswerContext(context.Background(), q, RefRange)
						if err != nil {
							t.Fatalf("%s fresh ref-range: %v", step, err)
						}
						if !fresh.Rows.Equal(got.Rows) {
							t.Fatalf("%s: cached engine %d rows != fresh engine %d rows",
								step, got.Rows.Len(), fresh.Rows.Len())
						}
					}

					check("initial")
					decoded := sc.Graph.DecodedData()
					if len(decoded) == 0 {
						t.Skip("empty scenario")
					}
					for step := 0; step < 5; step++ {
						switch rng.Intn(3) {
						case 0:
							tr := decoded[rng.Intn(len(decoded))]
							if _, err := e.DeleteData([]rdf.Triple{tr}); err != nil {
								t.Fatal(err)
							}
						case 1:
							tr := decoded[rng.Intn(len(decoded))]
							if err := e.InsertData([]rdf.Triple{tr}); err != nil {
								t.Fatal(err)
							}
						default:
							// TBox update: graft a fresh class (and property) into the
							// hierarchy — always monotone and acyclic — then re-encode
							// the query against the rebuilt dictionary.
							oldD := e.Graph().Dict()
							add := []rdf.Triple{
								rdf.NewTriple(
									rdf.NewIRI(fmt.Sprintf("%sCnew%d_%d", testutil.NS, seed, step)),
									rdf.SubClassOf,
									sc.Classes[rng.Intn(len(sc.Classes))]),
								rdf.NewTriple(
									rdf.NewIRI(fmt.Sprintf("%spnew%d_%d", testutil.NS, seed, step)),
									rdf.SubPropertyOf,
									sc.Props[rng.Intn(len(sc.Props))]),
							}
							if err := e.UpdateSchema(add); err != nil {
								t.Fatal(err)
							}
							q = reencodeCQ(q, oldD, e.Graph().Dict())
						}
						check(fmt.Sprintf("step=%d", step))
					}
				})
			}
		})
	}
}
