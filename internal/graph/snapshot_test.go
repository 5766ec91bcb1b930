package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dict"
	"repro/internal/durable/columnar"
)

func TestSnapshotRoundTrip(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.DataCount() != g.DataCount() {
		t.Fatalf("data count %d != %d", back.DataCount(), g.DataCount())
	}
	// IDs must be identical: encoded triples compare equal directly.
	a, b := g.AllTriples(), back.AllTriples()
	if len(a) != len(b) {
		t.Fatalf("triple counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("triple %d: %v != %v", i, a[i], b[i])
		}
	}
	if g.Schema().String() != back.Schema().String() {
		t.Fatalf("schema differs: %s vs %s", g.Schema(), back.Schema())
	}
}

func TestSnapshotFileSaveLoad(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "graph.snap")
	if err := g.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.DataCount() != g.DataCount() {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadSnapshot(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not a snapshot at all",
		"repro-rdf-snapshot-v1\ngarbage after magic",
	}
	for i, c := range cases {
		if _, err := ReadSnapshot(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 4, len(full) / 2, len(full) - 3} {
		if _, err := ReadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestSnapshotV1Refused: the gob format of the early repo is no longer
// read; a file carrying its magic ends in the named bad-magic error.
func TestSnapshotV1Refused(t *testing.T) {
	_, err := ReadSnapshot(strings.NewReader("repro-rdf-snapshot-v1\n" + strings.Repeat("x", 64)))
	if err == nil || !strings.Contains(err.Error(), "not a snapshot (bad magic") {
		t.Fatalf("v1 snapshot: got %v, want the bad-magic error", err)
	}
}

// TestSnapshotRejectsTruncationExhaustive cuts a valid snapshot at every
// byte offset. A partially copied snapshot file must never load as a
// smaller graph — short reads are hard errors everywhere, including a
// clean EOF right after the magic.
func TestSnapshotRejectsTruncationExhaustive(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := g.WriteSnapshot(&v2); err != nil {
		t.Fatal(err)
	}
	full := v2.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d bytes loaded without error", cut, len(full))
		}
	}
}

func TestSnapshotRejectsDanglingIDs(t *testing.T) {
	// Build a legit snapshot, then poke an out-of-range triple into the
	// reloaded graph (same package) and re-serialize: the reader must
	// reject the dangling reference.
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	good.all = good.all.Apply([]dict.Triple{{S: 9999, P: 9999, O: 9999}}, nil)
	var buf2 bytes.Buffer
	if err := good.WriteSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(buf2.Bytes())); err == nil {
		t.Fatal("dangling IDs must be rejected")
	}
}

// A data column carrying a constraint triple is refused, as AddData refuses
// one: D is data and closure triples, disjoint, which DataCount counts on.
func TestSnapshotRejectsConstraintData(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := columnar.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Schema().Triples()[0]
	snap.Data = append(snap.Data, dict.Triple{S: snap.Data[0].S, P: c.P, O: c.O})
	buf.Reset()
	if err := columnar.Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&buf); err == nil || !strings.Contains(err.Error(), "declares a constraint") {
		t.Fatalf("a constraint in the data column loaded: %v", err)
	}
}

// Property: snapshots round-trip random graphs bit-identically at the
// triple level.
func TestSnapshotRoundTripRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		sb.WriteString("@prefix ex: <http://example.org/> .\n")
		for i := 0; i < 3+r.Intn(5); i++ {
			fmt.Fprintf(&sb, "ex:C%d rdfs:subClassOf ex:C%d .\n", i, i+1+r.Intn(3))
		}
		for i := 0; i < 5+r.Intn(30); i++ {
			switch r.Intn(3) {
			case 0:
				fmt.Fprintf(&sb, "ex:e%d a ex:C%d .\n", r.Intn(10), r.Intn(8))
			case 1:
				fmt.Fprintf(&sb, "ex:e%d ex:p%d ex:e%d .\n", r.Intn(10), r.Intn(3), r.Intn(10))
			default:
				fmt.Fprintf(&sb, "ex:e%d ex:q \"lit%d\" .\n", r.Intn(10), r.Intn(5))
			}
		}
		g, err := ParseString(sb.String())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		a, b := g.AllTriples(), back.AllTriples()
		if len(a) != len(b) {
			t.Fatalf("seed %d: %d vs %d triples", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: triple %d differs", seed, i)
			}
		}
	}
}

// TestSaveSnapshotCrashedTempNeverReplaces simulates a crash mid-save: a
// partial payload sits in the directory under a temp name (exactly the
// on-disk state if the process dies before the rename). The good snapshot
// at the target path must be untouched, and the partial file must not be
// loadable as a snapshot.
func TestSaveSnapshotCrashedTempNeverReplaces(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "graph.snap")
	if err := g.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	// Crash injection: half a snapshot under the temp naming scheme.
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	partial := buf.Bytes()[:buf.Len()/2]
	crashed := filepath.Join(dir, ".snapshot-crashed.tmp")
	if err := os.WriteFile(crashed, partial, 0o644); err != nil {
		t.Fatal(err)
	}

	back, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("good snapshot unloadable after simulated crash: %v", err)
	}
	if back.DataCount() != g.DataCount() {
		t.Fatalf("good snapshot corrupted: %d data triples, want %d",
			back.DataCount(), g.DataCount())
	}
	if _, err := LoadSnapshot(crashed); err == nil {
		t.Fatal("partial temp file accepted as a snapshot")
	}
}

// TestSaveSnapshotFailureKeepsTargetAndCleansTemp forces the final rename to
// fail (the target path is a directory) and checks the error path: the save
// reports the error and leaves no temp file behind.
func TestSaveSnapshotFailureKeepsTargetAndCleansTemp(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	target := filepath.Join(dir, "iamadir")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := g.SaveSnapshot(target); err == nil {
		t.Fatal("rename onto a directory must fail")
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, ".snapshot-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("failed save leaked temp files: %v", leftovers)
	}
}

// TestSaveSnapshotConcurrent hammers one target path from many goroutines
// saving two different graphs (run under -race in CI). Whatever interleaving
// happens, the final file must be a complete snapshot of one of them —
// never a torn mix — and no temp files may remain.
func TestSaveSnapshotConcurrent(t *testing.T) {
	g1, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ParseString(sample + "ex:doi2 a ex:Book .\nex:doi3 a ex:Publication .\n")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "graph.snap")

	const savers = 8
	var wg sync.WaitGroup
	errs := make(chan error, savers)
	for i := 0; i < savers; i++ {
		g := g1
		if i%2 == 1 {
			g = g2
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				if err := g.SaveSnapshot(path); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	back, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("final snapshot unloadable: %v", err)
	}
	if n := back.DataCount(); n != g1.DataCount() && n != g2.DataCount() {
		t.Fatalf("final snapshot has %d data triples, want %d or %d",
			n, g1.DataCount(), g2.DataCount())
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, ".snapshot-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("concurrent saves leaked temp files: %v", leftovers)
	}
}
