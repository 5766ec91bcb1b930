package durable

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rdf"
)

// snapshotFiles lists the snapshot files (monolithic, base and shard) in
// a data directory.
func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "snapshot-") {
			out = append(out, e.Name())
		}
	}
	return out
}

func seedGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.ParseString("")
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		ts = append(ts, dataTriple("s"+string(rune('a'+i%26))+string(rune('a'+i/26)), "o"))
	}
	if _, err := g.AddData(ts); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestManagerShardedCheckpointAndRecover: a sharded checkpoint writes a
// base file plus N shard files, records them in the manifest, and
// recovery rebuilds the identical graph — with or without sharding
// enabled on the recovering side.
func TestManagerShardedCheckpointAndRecover(t *testing.T) {
	dir := t.TempDir()
	mgr, _ := recoverState(t, dir, Options{Shards: 4})
	g := seedGraph(t, 40)
	if err := mgr.Checkpoint(g); err != nil {
		t.Fatal(err)
	}
	man := mgr.CurrentManifest()
	if len(man.Shards) != 4 {
		t.Fatalf("manifest shards = %v, want 4 entries", man.Shards)
	}
	if !strings.Contains(man.Snapshot, ".base.") {
		t.Fatalf("manifest snapshot %q is not a base file", man.Snapshot)
	}
	for _, name := range append([]string{man.Snapshot}, man.Shards...) {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("manifest file %s: %v", name, err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover with sharding on, and again with sharding off: the layout
	// in the manifest governs, not the reopening server's flag.
	for _, opts := range []Options{{Shards: 4}, {}} {
		mgr2, g2 := recoverState(t, dir, opts)
		if g2.DataCount() != g.DataCount() {
			t.Fatalf("opts %+v: recovered %d triples, want %d", opts, g2.DataCount(), g.DataCount())
		}
		a, b := g.AllTriples(), g2.AllTriples()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("opts %+v: triple %d: %v != %v", opts, i, a[i], b[i])
			}
		}
		mgr2.Close()
	}
}

// TestManagerShardedCheckpointPrunes: the second sharded checkpoint
// removes the first one's base and shard files.
func TestManagerShardedCheckpointPrunes(t *testing.T) {
	dir := t.TempDir()
	mgr, _ := recoverState(t, dir, Options{Shards: 3})
	defer mgr.Close()
	g := seedGraph(t, 20)
	if err := mgr.Checkpoint(g); err != nil {
		t.Fatal(err)
	}
	first := mgr.CurrentManifest()
	if err := mgr.Checkpoint(g); err != nil {
		t.Fatal(err)
	}
	second := mgr.CurrentManifest()
	left := snapshotFiles(t, dir)
	want := append([]string{second.Snapshot}, second.Shards...)
	if len(left) != len(want) {
		t.Fatalf("after second checkpoint %v remain, want exactly %v", left, want)
	}
	for _, name := range append([]string{first.Snapshot}, first.Shards...) {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("stale checkpoint file %s survived prune", name)
		}
	}
}

// TestManagerShardedToMonolithicTransition: reopening with sharding off
// recovers the sharded checkpoint, and the next checkpoint rewrites the
// monolithic layout and prunes every shard file.
func TestManagerShardedToMonolithicTransition(t *testing.T) {
	dir := t.TempDir()
	mgr, _ := recoverState(t, dir, Options{Shards: 2})
	g := seedGraph(t, 10)
	if err := mgr.Checkpoint(g); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2, g2 := recoverState(t, dir, Options{})
	defer mgr2.Close()
	if g2.DataCount() != g.DataCount() {
		t.Fatalf("recovered %d triples, want %d", g2.DataCount(), g.DataCount())
	}
	if err := mgr2.Checkpoint(g2); err != nil {
		t.Fatal(err)
	}
	man := mgr2.CurrentManifest()
	if len(man.Shards) != 0 {
		t.Fatalf("monolithic checkpoint left shards in manifest: %v", man.Shards)
	}
	for _, name := range snapshotFiles(t, dir) {
		if name != man.Snapshot {
			t.Fatalf("stale file %s after layout transition (current %s)", name, man.Snapshot)
		}
	}
}

// TestManagerShardedWALInterplay: records appended after a sharded
// checkpoint replay on top of the sharded recovery, same as monolithic.
func TestManagerShardedWALInterplay(t *testing.T) {
	dir := t.TempDir()
	mgr, g0 := recoverState(t, dir, Options{Shards: 2})
	eng := engine.New(g0)
	base := []rdf.Triple{dataTriple("a", "b"), dataTriple("c", "d")}
	if err := eng.InsertData(base); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Append(Record{Op: OpInsert, Triples: base}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Checkpoint(eng.Graph()); err != nil {
		t.Fatal(err)
	}
	tail := []rdf.Triple{dataTriple("e", "f")}
	if err := eng.InsertData(tail); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Append(Record{Op: OpInsert, Triples: tail}); err != nil {
		t.Fatal(err)
	}
	want := eng.Graph().DataCount()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2, g2 := recoverState(t, dir, Options{Shards: 2})
	defer mgr2.Close()
	if g2.DataCount() != want {
		t.Fatalf("recovered %d triples, want %d", g2.DataCount(), want)
	}
}
