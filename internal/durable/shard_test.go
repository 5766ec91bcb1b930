package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/durable/columnar"
	"repro/internal/graph"
	"repro/internal/rdf"
)

// snapshotFiles lists the snapshot files in a data directory.
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

// legacyShardedDir builds by hand the data directory a sharded server
// once checkpointed g to: a base file (terms, schema, declarations, no
// data), three data-only files and a manifest listing them under
// "shards". It returns that manifest.
func legacyShardedDir(t *testing.T, dir string, g *graph.Graph) Manifest {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := columnar.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	parts := make([]columnar.Snapshot, n)
	for _, tr := range snap.Data {
		parts[int(tr.S)%n].Data = append(parts[int(tr.S)%n].Data, tr)
	}
	snap.Data = nil
	write := func(name string, s *columnar.Snapshot) {
		if err := columnar.WriteFileAtomic(filepath.Join(dir, name), func(w io.Writer) error {
			return columnar.Write(w, s)
		}); err != nil {
			t.Fatal(err)
		}
	}
	man := Manifest{Snapshot: "snapshot-00000001.base.col", WALFrom: 1}
	write(man.Snapshot, snap)
	for i := range parts {
		man.Shards = append(man.Shards, fmt.Sprintf("snapshot-00000001.s%03d.col", i))
		write(man.Shards[i], &parts[i])
	}
	raw, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return man
}

// sameTriples compares two graphs' AllTriples as decoded terms: a replayed
// insert may take other IDs than the same insert applied directly.
func sameTriples(t *testing.T, what string, want, got *graph.Graph) {
	t.Helper()
	decoded := func(g *graph.Graph) []string {
		var out []string
		for _, tr := range g.AllTriples() {
			out = append(out, g.Dict().DecodeTriple(tr).String())
		}
		sort.Strings(out)
		return out
	}
	if x, y := decoded(want), decoded(got); !reflect.DeepEqual(x, y) {
		t.Fatalf("%s: recovered %d triples %v, want %d %v", what, len(y), y, len(x), x)
	}
}

// TestManagerShardedCheckpointAndRecover: a legacy sharded checkpoint
// recovers to the same graph as the single-file checkpoint of the same
// data.
func TestManagerShardedCheckpointAndRecover(t *testing.T) {
	g := seedGraph(t, 40)
	legacy := t.TempDir()
	legacyShardedDir(t, legacy, g)
	mgr, fromLegacy := recoverState(t, legacy, Options{})
	mgr.Close()

	mono := t.TempDir()
	mgr, _ = recoverState(t, mono, Options{})
	if err := mgr.Checkpoint(g); err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	mgr, fromMono := recoverState(t, mono, Options{})
	defer mgr.Close()
	sameTriples(t, "single-file", g, fromMono)
	// Both layouts carry the same dictionary, so even the IDs agree.
	if !reflect.DeepEqual(fromMono.AllTriples(), fromLegacy.AllTriples()) {
		t.Fatal("legacy recovery's AllTriples differ from the single-file recovery's")
	}
}

// TestManagerShardedWALInterplay: a WAL tail replays on top of a legacy
// sharded checkpoint.
func TestManagerShardedWALInterplay(t *testing.T) {
	dir := t.TempDir()
	g := seedGraph(t, 20)
	legacyShardedDir(t, dir, g)
	mgr, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tail := []rdf.Triple{dataTriple("tail1", "o"), dataTriple("tail2", "o")}
	if err := mgr.Append(Record{Op: OpInsert, Triples: tail}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	mgr, got := recoverState(t, dir, Options{})
	defer mgr.Close()
	if _, err := g.AddData(tail); err != nil {
		t.Fatal(err)
	}
	sameTriples(t, "legacy + tail", g, got)
}

// TestManagerShardedCheckpointPrunes: the first checkpoint after a legacy
// sharded one leaves exactly one snapshot-*.col and prunes the base and
// data files.
func TestManagerShardedCheckpointPrunes(t *testing.T) {
	dir := t.TempDir()
	old := legacyShardedDir(t, dir, seedGraph(t, 20))
	mgr, g := recoverState(t, dir, Options{})
	defer mgr.Close()
	if err := mgr.Checkpoint(g); err != nil {
		t.Fatal(err)
	}
	man := mgr.CurrentManifest()
	if len(man.Shards) != 0 || !strings.HasSuffix(man.Snapshot, ".col") || strings.Contains(man.Snapshot, ".base.") {
		t.Fatalf("checkpoint manifest %+v, want one snapshot file and no shards", man)
	}
	if left := snapshotFiles(t, dir); len(left) != 1 || left[0] != man.Snapshot {
		t.Fatalf("after checkpoint %v remain, want exactly [%s]", left, man.Snapshot)
	}
	for _, name := range append([]string{old.Snapshot}, old.Shards...) {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("legacy file %s survived prune", name)
		}
	}
}

// TestManagerShardedToMonolithicTransition: after the first checkpoint the
// manifest on disk no longer names data files, and the directory recovers
// from the one snapshot file to the same graph.
func TestManagerShardedToMonolithicTransition(t *testing.T) {
	dir := t.TempDir()
	g := seedGraph(t, 10)
	legacyShardedDir(t, dir, g)
	mgr, g1 := recoverState(t, dir, Options{})
	if err := mgr.Checkpoint(g1); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"shards"`)) {
		t.Fatalf("manifest still lists data files: %s", raw)
	}
	mgr, g2 := recoverState(t, dir, Options{})
	defer mgr.Close()
	sameTriples(t, "after transition", g, g2)
}
