package durable

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rdf"
)

// recoverState opens the directory, loads snapshot + replays WAL into a
// fresh engine, and returns manager + the recovered graph — the same
// sequence refserve runs at boot.
func recoverState(t *testing.T, dir string, opts Options) (*Manager, *graph.Graph) {
	t.Helper()
	mgr, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mgr.LoadGraph(nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(g)
	if _, err := mgr.Replay(eng, nil); err != nil {
		t.Fatal(err)
	}
	return mgr, eng.Graph()
}

func dataTriple(s, o string) rdf.Triple {
	return rdf.Triple{S: iri(s), P: iri("p"), O: iri(o)}
}

func TestManagerRecoverEmptyDir(t *testing.T) {
	mgr, g := recoverState(t, t.TempDir(), Options{})
	defer mgr.Close()
	if g.DataCount() != 0 {
		t.Fatalf("fresh dir recovered %d triples", g.DataCount())
	}
}

// TestManagerWALOnlyRecovery: appends without any checkpoint must replay
// into the same graph on reopen.
func TestManagerWALOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	mgr, g := recoverState(t, dir, Options{})
	eng := engine.New(g)
	ins := []rdf.Triple{dataTriple("a", "b"), dataTriple("c", "d")}
	if err := eng.InsertData(ins); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Append(Record{Op: OpInsert, Triples: ins}); err != nil {
		t.Fatal(err)
	}
	del := ins[:1]
	if _, err := eng.DeleteData(del); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Append(Record{Op: OpDelete, Triples: del}); err != nil {
		t.Fatal(err)
	}
	want := eng.Graph().DataCount()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2, g2 := recoverState(t, dir, Options{})
	defer mgr2.Close()
	if g2.DataCount() != want {
		t.Fatalf("recovered %d triples, want %d", g2.DataCount(), want)
	}
}

// TestManagerCheckpointAndRecover: checkpoint writes a snapshot, truncates
// the WAL, and recovery from (snapshot + later WAL) equals the live state.
func TestManagerCheckpointAndRecover(t *testing.T) {
	dir := t.TempDir()
	mgr, g := recoverState(t, dir, Options{})
	eng := engine.New(g)
	pre := []rdf.Triple{dataTriple("a", "b"), dataTriple("c", "d")}
	if err := eng.InsertData(pre); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Append(Record{Op: OpInsert, Triples: pre}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Checkpoint(eng.Graph()); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Old segment must be pruned, manifest must point at a snapshot.
	segs, err := walSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != 2 {
		t.Fatalf("segments after checkpoint: %v, want [2]", segs)
	}
	post := []rdf.Triple{dataTriple("e", "f")}
	if err := eng.InsertData(post); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Append(Record{Op: OpInsert, Triples: post}); err != nil {
		t.Fatal(err)
	}
	want := eng.Graph().DataCount()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2, g2 := recoverState(t, dir, Options{})
	defer mgr2.Close()
	if g2.DataCount() != want {
		t.Fatalf("recovered %d triples, want %d", g2.DataCount(), want)
	}
	found := false
	for _, dt := range g2.DecodedData() {
		if dt == dataTriple("e", "f") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("post-checkpoint WAL record lost")
	}
}

// TestManagerSchemaUpdateRecovery: a TBox update permutes dictionary IDs
// (interval re-encoding); recovery must survive because WAL records carry
// decoded terms.
func TestManagerSchemaUpdateRecovery(t *testing.T) {
	dir := t.TempDir()
	mgr, g := recoverState(t, dir, Options{})
	eng := engine.New(g)
	ins := []rdf.Triple{
		{S: iri("doc1"), P: rdf.NewIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), O: iri("Paper")},
	}
	if err := eng.InsertData(ins); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Append(Record{Op: OpInsert, Triples: ins}); err != nil {
		t.Fatal(err)
	}
	sub := []rdf.Triple{
		{S: iri("Paper"), P: rdf.NewIRI("http://www.w3.org/2000/01/rdf-schema#subClassOf"), O: iri("Publication")},
	}
	if err := eng.UpdateSchema(sub); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Append(Record{Op: OpSchema, Triples: sub}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2, g2 := recoverState(t, dir, Options{})
	defer mgr2.Close()
	if g2.DataCount() != 1 {
		t.Fatalf("recovered %d data triples, want 1", g2.DataCount())
	}
	if g2.Schema().String() != eng.Graph().Schema().String() {
		t.Fatalf("schema mismatch after recovery:\n got %s\nwant %s",
			g2.Schema(), eng.Graph().Schema())
	}
}

// TestManagerCrashBetweenSnapshotAndPrune: simulate a crash after the
// snapshot is written but before the manifest swap — the old manifest must
// still recover the full state from the longer WAL.
func TestManagerCrashBetweenSnapshotAndPrune(t *testing.T) {
	dir := t.TempDir()
	mgr, g := recoverState(t, dir, Options{})
	eng := engine.New(g)
	ins := []rdf.Triple{dataTriple("a", "b")}
	if err := eng.InsertData(ins); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Append(Record{Op: OpInsert, Triples: ins}); err != nil {
		t.Fatal(err)
	}
	// Crash stand-in: write the snapshot a checkpoint would have written,
	// rotate like the checkpoint does, but never swap the manifest.
	if _, err := mgr.wal.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Graph().SaveSnapshot(filepath.Join(dir, "snapshot-00000002.col")); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2, g2 := recoverState(t, dir, Options{})
	defer mgr2.Close()
	if g2.DataCount() != 1 {
		t.Fatalf("recovered %d triples, want 1", g2.DataCount())
	}
}

func TestManagerCorruptManifestRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

// TestManagerLegacyManifestRefused: a manifest listing base-plus-shards
// snapshot files is refused by name, and the directory is left as it was —
// no WAL segment opened, no file pruned, nothing rewritten.
func TestManagerLegacyManifestRefused(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		manifestName:                 `{"snapshot":"snapshot-00000003.base.col","shards":["snapshot-00000003.s000.col","snapshot-00000003.s001.col"],"walFrom":3}`,
		"snapshot-00000003.base.col": "base",
		"snapshot-00000003.s000.col": "shard 0",
		"snapshot-00000003.s001.col": "shard 1",
		"wal-00000003.seg":           "tail",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mgr, err := Open(dir, Options{})
	if err == nil {
		mgr.Close()
	}
	if !errors.Is(err, ErrLegacyManifest) {
		t.Fatalf("legacy manifest: got %v, want ErrLegacyManifest", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range ents {
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got[e.Name()] = string(body)
	}
	if !reflect.DeepEqual(got, files) {
		t.Fatalf("directory changed: %v, want %v", got, files)
	}
}

func TestManagerShouldCheckpoint(t *testing.T) {
	dir := t.TempDir()
	mgr, _ := recoverState(t, dir, Options{CheckpointBytes: 64})
	defer mgr.Close()
	if mgr.ShouldCheckpoint() {
		t.Fatal("fresh manager wants a checkpoint")
	}
	big := []rdf.Triple{dataTriple("aaaaaaaaaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbbbbbbbbbb")}
	if err := mgr.Append(Record{Op: OpInsert, Triples: big}); err != nil {
		t.Fatal(err)
	}
	if !mgr.ShouldCheckpoint() {
		t.Fatal("threshold crossed but ShouldCheckpoint is false")
	}
	g, err := graph.ParseString("")
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Checkpoint(g); err != nil {
		t.Fatal(err)
	}
	if mgr.ShouldCheckpoint() {
		t.Fatal("checkpoint did not reset the accumulator")
	}
}
