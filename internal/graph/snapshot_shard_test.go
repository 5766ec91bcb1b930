package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/durable/columnar"
)

// legacyShardedSave writes g in the layout sharded servers once
// checkpointed to, by hand: a base file with the terms, schema and
// declarations and no data, plus n data-only files partitioned by subject
// ID modulo n. It returns the base path and the data file paths.
func legacyShardedSave(t *testing.T, g *Graph, dir string, n int) (string, []string) {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := columnar.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]columnar.Snapshot, n)
	for _, tr := range snap.Data {
		parts[int(tr.S)%n].Data = append(parts[int(tr.S)%n].Data, tr)
	}
	snap.Data = nil
	write := func(name string, s *columnar.Snapshot) string {
		path := filepath.Join(dir, name)
		if err := columnar.WriteFileAtomic(path, func(w io.Writer) error { return columnar.Write(w, s) }); err != nil {
			t.Fatal(err)
		}
		return path
	}
	files := make([]string, n)
	for i := range parts {
		files[i] = write(fmt.Sprintf("s%03d.col", i), &parts[i])
	}
	return write("base.col", snap), files
}

func sameTriples(t *testing.T, what string, a, b *Graph) {
	t.Helper()
	x, y := a.AllTriples(), b.AllTriples()
	if len(x) != len(y) {
		t.Fatalf("%s: triple counts differ: %d vs %d", what, len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("%s: triple %d: %v != %v", what, i, x[i], y[i])
		}
	}
}

// TestShardedSnapshotRoundTrip: LoadSnapshot with data files rebuilds the
// graph the legacy base + data-file layout was written from.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 7} {
		base, files := legacyShardedSave(t, g, t.TempDir(), n)
		back, err := LoadSnapshot(base, files...)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sameTriples(t, fmt.Sprintf("n=%d", n), g, back)
		if g.Schema().String() != back.Schema().String() {
			t.Fatalf("n=%d: schema differs", n)
		}
	}
}

// TestShardedSnapshotShardOrderIrrelevant: the data re-sorts, so loading
// the data files in any order rebuilds the identical graph.
func TestShardedSnapshotShardOrderIrrelevant(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	base, files := legacyShardedSave(t, g, t.TempDir(), 3)
	back, err := LoadSnapshot(base, files[2], files[1], files[0])
	if err != nil {
		t.Fatal(err)
	}
	sameTriples(t, "reversed", g, back)
}

// TestShardedSnapshotRejectsRoleMixups: a single-file snapshot in the
// base slot (it carries data) and a base file in a data slot (it carries
// terms) are both named errors — they mean the manifest pointed at the
// wrong file.
func TestShardedSnapshotRejectsRoleMixups(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base, files := legacyShardedSave(t, g, dir, 2)
	mono := filepath.Join(dir, "mono.col")
	if err := g.SaveSnapshot(mono); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(mono, files...); !errors.Is(err, ErrBaseHasData) {
		t.Fatalf("single-file snapshot as base: got %v, want ErrBaseHasData", err)
	}
	if _, err := LoadSnapshot(base, files[0], base); !errors.Is(err, ErrNotDataOnly) {
		t.Fatalf("base file as data file: got %v, want ErrNotDataOnly", err)
	}
}

// TestShardedSnapshotMissingShardFails: a missing data file is a hard
// error — recovery must never silently load a subset of the data.
func TestShardedSnapshotMissingShardFails(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base, files := legacyShardedSave(t, g, dir, 2)
	if _, err := LoadSnapshot(base, append(files, filepath.Join(dir, "missing.col"))...); err == nil {
		t.Fatal("missing data file loaded without error")
	}
}
