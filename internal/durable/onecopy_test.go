package durable

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/lubm"
	"repro/internal/metrics"
	"repro/internal/rdf"
)

// sameD fails unless, at one shard, the store's SPO run is the graph's D
// itself: the same run, whose blocks both share, not an equal copy.
func sameD(t *testing.T, where string, eng *engine.Engine) {
	t.Helper()
	if d, run := eng.Graph().D(), eng.Store().ShardStore(0).SPO(); d != run {
		t.Fatalf("%s: the store's SPO run (%d triples) is not the graph's D (%d)", where, run.Len(), d.Len())
	}
}

// The database is held once: at one shard the store keeps the graph's D as
// its SPO run, sharing its blocks, after the graph is built, after an insert, a delete and a
// write past maxDrift, after a snapshot load and after WAL recovery.
func TestOneShardStoreIsTheGraphsD(t *testing.T) {
	g, err := lubm.NewGraph(lubm.Mini(), 42)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(g)
	eng.Metrics = metrics.NewRegistry()
	sameD(t, "FromTriples", eng)
	dir := t.TempDir()
	mgr, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(rec Record) {
		t.Helper()
		var err error
		if rec.Op == OpInsert {
			err = eng.InsertData(rec.Triples)
		} else {
			_, err = eng.DeleteData(rec.Triples)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	student := func(i int) rdf.Triple {
		return rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://example.org/s%d", i)), rdf.Type, lubm.Class("GraduateStudent"))
	}
	apply(Record{Op: OpInsert, Triples: []rdf.Triple{student(0)}})
	sameD(t, "insert", eng)
	apply(Record{Op: OpDelete, Triples: g.DecodedData()[:3]})
	sameD(t, "delete", eng)
	rebuilt := eng.Metrics.Snapshot().Counters["engine.derived.rebuilt"]
	var many []rdf.Triple
	for i := 1; i <= g.DataCount()/4; i++ {
		many = append(many, student(i))
	}
	apply(Record{Op: OpInsert, Triples: many})
	sameD(t, "write past maxDrift", eng)
	if eng.Metrics.Snapshot().Counters["engine.derived.rebuilt"] == rebuilt {
		t.Fatal("the write past maxDrift did not rebuild")
	}
	if err := mgr.Checkpoint(eng.Graph()); err != nil {
		t.Fatal(err)
	}
	apply(Record{Op: OpDelete, Triples: many[:5]})
	want := eng.Graph().AllTriples()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	mgr, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	loaded, err := mgr.LoadGraph(nil)
	if err != nil {
		t.Fatal(err)
	}
	eng = engine.New(loaded)
	sameD(t, "snapshot load", eng)
	if _, err := mgr.Replay(eng, nil); err != nil {
		t.Fatal(err)
	}
	sameD(t, "WAL recovery", eng)
	if got := eng.Graph().AllTriples(); len(got) != len(want) {
		t.Fatalf("recovered %d triples, want %d", len(got), len(want))
	}
}

// A snapshot's bytes do not depend on how the graph holds its triples: Mini
// LUBM — fresh, after a write, after a schema change re-encoded it —
// checkpoints to the bytes it always has.
func TestSnapshotBytesAreStable(t *testing.T) {
	g, err := lubm.NewGraph(lubm.Mini(), 42)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(g *graph.Graph) string {
		var buf bytes.Buffer
		if err := g.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	}
	if got, want := sum(g), "5046fcc64e6d8735378effb309b38026a210f77fc97b5f57bfe65fbde77beae2"; got != want {
		t.Fatalf("fresh snapshot sha256 %s, want %s", got, want)
	}
	eng, data := engine.New(g), g.DecodedData()
	if err := eng.InsertData([]rdf.Triple{rdf.NewTriple(rdf.NewIRI("http://example.org/new"), rdf.Type, lubm.Class("GraduateStudent"))}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DeleteData(data[:7]); err != nil {
		t.Fatal(err)
	}
	if got, want := sum(eng.Graph()), "41a0ab849c7a74853960ad5821dbfb67eff41b21c8df0c7f712acaca9801c3fd"; got != want {
		t.Fatalf("written snapshot sha256 %s, want %s", got, want)
	}
	if err := eng.UpdateSchema([]rdf.Triple{rdf.NewTriple(rdf.NewIRI("http://example.org/Alumnus"), rdf.SubClassOf, lubm.Class("Person"))}); err != nil {
		t.Fatal(err)
	}
	if got, want := sum(eng.Graph()), "3fd98ccbcf466d33b895ef537e586c6a090d760ecc40853665ca3eeb49bfcbd7"; got != want {
		t.Fatalf("re-encoded snapshot sha256 %s, want %s", got, want)
	}
}
