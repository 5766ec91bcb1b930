package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/shard"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// TestShardedAnswersIdenticalRandom is the shard-equivalence property:
// on random scenarios and queries, an N-shard engine is answer-byte-
// identical (decoded, sorted) to the unsharded engine across ref-ucq,
// ref-jucq (GCov) and ref-range — and stays so through data inserts,
// deletes and TBox updates, each of which re-encodes the dictionary and
// must invalidate the sharded store. Run under -race: the scatter paths
// fan out across goroutines on every check.
func TestShardedAnswersIdenticalRandom(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 4
	}
	shardCounts := []int{2, 3, 4, 8}
	for seed := 0; seed < iters; seed++ {
		seed := seed
		n := shardCounts[seed%len(shardCounts)]
		t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(91000 + seed)))
			sc, err := testutil.RandomScenario(rng)
			if err != nil {
				t.Fatal(err)
			}
			es := New(sc.Graph)
			es.EnableSharding(n)
			q := sc.RandomQuery(rng)

			check := func(step string) {
				// The reference is a fresh unsharded engine over the same
				// graph: identical dictionary, identical data, no shards.
				ref := New(es.Graph())
				d := es.Graph().Dict()
				for _, s := range []Strategy{RefUCQ, RefGCov, RefRange} {
					want, err := ref.AnswerContext(context.Background(), q, s)
					if err != nil {
						t.Fatalf("%s unsharded %s: %v", step, s, err)
					}
					got, err := es.AnswerContext(context.Background(), q, s)
					if err != nil {
						t.Fatalf("%s sharded %s: %v", step, s, err)
					}
					if decodedCanon(d, got) != decodedCanon(d, want) {
						t.Fatalf("%s: %s answers diverge at %d shards (%d vs %d rows)",
							step, s, n, got.Rows.Len(), want.Rows.Len())
					}
				}
			}

			check("initial")
			decoded := sc.Graph.DecodedData()
			if len(decoded) == 0 {
				t.Skip("empty scenario")
			}
			for step := 0; step < 4; step++ {
				switch rng.Intn(3) {
				case 0:
					tr := decoded[rng.Intn(len(decoded))]
					if _, err := es.DeleteData([]rdf.Triple{tr}); err != nil {
						t.Fatal(err)
					}
				case 1:
					tr := decoded[rng.Intn(len(decoded))]
					if err := es.InsertData([]rdf.Triple{tr}); err != nil {
						t.Fatal(err)
					}
				default:
					// TBox update: graft a fresh class and property into the
					// hierarchy, then re-encode the query against the rebuilt
					// dictionary (see range_test.go for the same discipline).
					oldD := es.Graph().Dict()
					add := []rdf.Triple{
						rdf.NewTriple(
							rdf.NewIRI(fmt.Sprintf("%sCshard%d_%d", testutil.NS, seed, step)),
							rdf.SubClassOf,
							sc.Classes[rng.Intn(len(sc.Classes))]),
						rdf.NewTriple(
							rdf.NewIRI(fmt.Sprintf("%spshard%d_%d", testutil.NS, seed, step)),
							rdf.SubPropertyOf,
							sc.Props[rng.Intn(len(sc.Props))]),
					}
					if err := es.UpdateSchema(add); err != nil {
						t.Fatal(err)
					}
					q = reencodeCQ(q, oldD, es.Graph().Dict())
				}
				check(fmt.Sprintf("step=%d", step))
			}
		})
	}
}

// TestEnableShardingLifecycle pins the engine-level wiring: at every shard
// count — one unless sharding is enabled, and again after n < 2 — the store
// is a shard.Store of that many shards over the whole graph, built once per
// version and the very object Source returns; a write replaces it.
func TestEnableShardingLifecycle(t *testing.T) {
	e, g := mustEngine(t)
	check := func(n int) {
		t.Helper()
		sh := e.Store()
		if sh.NumShards() != n || e.shards != n {
			t.Fatalf("store has %d shards, engine reports %d, want %d", sh.NumShards(), e.shards, n)
		}
		if e.Store() != sh || e.Source() != sh {
			t.Fatalf("%d shards: Store and Source must return one cached store", n)
		}
		total := 0
		for i := 0; i < n; i++ {
			total += sh.ShardStore(i).Len()
		}
		if total != sh.Len() || sh.Len() != len(g.AllTriples()) {
			t.Fatalf("shards hold %d triples, store %d, graph %d", total, sh.Len(), len(g.AllTriples()))
		}
		if err := e.InsertData([]rdf.Triple{rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("http://example.org/doiX%d", sh.Len())),
			rdf.NewIRI("http://example.org/hasTitle"),
			rdf.NewLiteral("t"))}); err != nil {
			t.Fatal(err)
		}
		if next := e.Store(); next == sh || next.Len() != sh.Len()+1 || next.NumShards() != n {
			t.Fatalf("after an insert: %d triples on %d shards, want %d on %d", next.Len(), next.NumShards(), sh.Len()+1, n)
		}
	}
	check(1)
	e.EnableSharding(4)
	check(4)
	e.EnableSharding(0)
	check(1)
}

// TestShardedExplainShowsScatter: EXPLAIN's scatter nodes are the ones the
// execution records. At 2 and 4 shards, for every reformulation strategy, on
// Example 1 and on LUBM Q9, the plan tree and the EXPLAIN ANALYZE trace hold
// the same scatter nodes, in the same order: each a union's co-partitioned
// group (op=ucq) over every shard, with the same member count, inside the
// same fragment. The one-atom fragments of ref-scq and ref-gcov scatter; the
// streamed ref-ucq union scatters nothing, in either.
func TestShardedExplainShowsScatter(t *testing.T) {
	e, ex1 := exampleOneEngine(t)
	parsed, err := lubm.ParseQueries(e.Graph().Dict(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var q9 query.CQ
	for _, pq := range parsed {
		if pq.Name == "Q9" {
			q9 = pq.CQ
		}
	}
	queries := []struct {
		name string
		q    query.CQ
	}{{"Example 1", ex1}, {"Q9", q9}}
	for _, shards := range []int{2, 4} {
		e.EnableSharding(shards)
		for _, nq := range queries {
			for _, s := range []Strategy{RefSCQ, RefGCov, RefRange, RefUCQ} {
				name := fmt.Sprintf("%s/%s/shards=%d", nq.name, s, shards)
				plan, err := e.Plan(nq.q, s)
				if err != nil {
					t.Fatalf("%s: plan: %v", name, err)
				}
				e.Tracer = trace.New(0)
				if _, err := e.AnswerContext(context.Background(), nq.q, s); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, want := scatterNodes(trace.ToJSON(e.Tracer.Root()), nil), scatterNodes(plan.Tree(), nil)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: traced scatters %v, EXPLAIN scatters %v", name, got, want)
				}
				for _, sc := range got {
					if !strings.HasPrefix(sc, fmt.Sprintf("op=ucq n=%d ", shards)) {
						t.Fatalf("%s: scatter %s, want op=ucq over %d shards", name, sc, shards)
					}
				}
				switch {
				case s == RefUCQ && len(got) > 0:
					t.Fatalf("%s: the streamed union scatters %v", name, got)
				case (s == RefSCQ || s == RefGCov) && len(got) == 0:
					t.Fatalf("%s: no fragment scatters", name)
				}
			}
		}
	}
	e.Tracer = nil
}

// scatterNodes lists the "scatter" nodes of a span tree as "op=… n=… cqs=…
// fragment=…", the last the idx of the nearest enclosing fragment node
// (frag; none at the root), in the order the tree holds them.
func scatterNodes(n *trace.SpanJSON, frag any) []string {
	var out []string
	switch n.Name {
	case "fragment":
		frag = n.Attrs["idx"]
	case "scatter":
		out = append(out, fmt.Sprintf("op=%v n=%v cqs=%v fragment=%v", n.Attrs["op"], n.Attrs["n"], n.Attrs["cqs"], frag))
	}
	for _, c := range n.Children {
		out = append(out, scatterNodes(c, frag)...)
	}
	return out
}

// TestShardOfStableAssignment pins shard.Of as the one partition
// function: HomeShard agrees with it, and every triple of a built store
// sits on its subject's home shard (what durable shard files rely on).
func TestShardOfStableAssignment(t *testing.T) {
	e, g := mustEngine(t)
	e.EnableSharding(3)
	sh := e.Store()
	for i := 0; i < sh.NumShards(); i++ {
		for _, tr := range sh.ShardStore(i).Triples() {
			if home := shard.Of(tr.S, 3); home != i {
				t.Fatalf("triple %v on shard %d, home %d", tr, i, home)
			}
			if sh.HomeShard(tr.S) != shard.Of(tr.S, 3) {
				t.Fatal("HomeShard disagrees with shard.Of")
			}
		}
	}
	if sh.Len() != len(g.AllTriples()) {
		t.Fatalf("sharded len %d != graph %d", sh.Len(), len(g.AllTriples()))
	}
}
