package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rdf"
	"repro/internal/shard"
	"repro/internal/testutil"
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

// TestShardedExplainShowsScatter: EXPLAIN over a sharded engine renders
// scatter nodes mirroring the executor's fan-out shape.
func TestShardedExplainShowsScatter(t *testing.T) {
	e, q := exampleOneEngine(t)
	e.EnableSharding(4)
	p, err := e.Plan(q, RefGCov)
	if err != nil {
		t.Fatal(err)
	}
	sc := p.Tree().Find("scatter")
	if sc == nil {
		t.Fatal("sharded GCov plan has no scatter node")
	}
	if got := fmt.Sprint(sc.Attrs["n"]); got != "4" {
		t.Fatalf("scatter n=%s, want 4", got)
	}
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
