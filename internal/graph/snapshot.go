package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/dict"
	"repro/internal/durable/columnar"
	"repro/internal/rdf"
	"repro/internal/schema"
)

// WriteSnapshot serializes the graph (dictionary, data, closed schema) in
// the v2 columnar format: delta-encoded sorted ID-triple columns plus the
// term table, flate-compressed and CRC32C-checksummed per section. The data
// column is D less the closure triples, which the schema column holds.
func (g *Graph) WriteSnapshot(w io.Writer) error {
	snap := &columnar.Snapshot{
		Data:       g.data(),
		Schema:     g.schema.Triples(),
		Classes:    g.schema.Classes(),
		Properties: g.schema.Properties(),
	}
	snap.Terms = make([]rdf.Term, g.d.Len())
	for i := range snap.Terms {
		snap.Terms[i] = g.d.Decode(dict.ID(i + 1))
	}
	if err := columnar.Write(w, snap); err != nil {
		return fmt.Errorf("graph: snapshot encode: %w", err)
	}
	return nil
}

// SaveSnapshot writes the snapshot to a file, atomically and crash-durably
// (columnar.WriteFileAtomic): concurrent saves never clobber each other
// mid-write, and a crash at any point leaves either the old snapshot or
// the new one, never a partial file at path.
func (g *Graph) SaveSnapshot(path string) error {
	return columnar.WriteFileAtomic(path, g.WriteSnapshot)
}

// ReadSnapshot reconstructs a graph from a columnar snapshot stream (see
// internal/durable/columnar), whose sections load with per-column
// parallelism. The rebuilt dictionary assigns the identical IDs, and
// re-closing the (already closed) schema is idempotent, so the result is
// indistinguishable from the original. Anything else — the gob format of
// the early repo included — is refused by its magic, and short reads are
// hard errors: a truncated snapshot never loads as a smaller graph.
func ReadSnapshot(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.Peek(len(columnar.Magic))
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("graph: snapshot header: %w", io.ErrUnexpectedEOF)
		}
		return nil, fmt.Errorf("graph: snapshot header: %w", err)
	}
	if string(magic) != columnar.Magic {
		return nil, fmt.Errorf("graph: not a snapshot (bad magic %q)", string(magic))
	}
	snap, err := columnar.Read(br)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	return buildFromSnapshot(snap)
}

// buildFromSnapshot validates decoded snapshot components and assembles
// the graph.
func buildFromSnapshot(snap *columnar.Snapshot) (*Graph, error) {
	d := dict.New()
	for i, term := range snap.Terms {
		if !term.Valid() {
			return nil, fmt.Errorf("graph: snapshot term %d invalid: %#v", i+1, term)
		}
		if id := d.Encode(term); id != dict.ID(i+1) {
			return nil, fmt.Errorf("graph: snapshot term table has duplicates (term %d)", i+1)
		}
	}
	n := dict.ID(len(snap.Terms))
	checkTriple := func(t dict.Triple, what string) error {
		if t.S == dict.None || t.P == dict.None || t.O == dict.None ||
			t.S > n || t.P > n || t.O > n {
			return fmt.Errorf("graph: snapshot %s triple references unknown id: %+v", what, t)
		}
		return nil
	}
	b := schema.NewBuilder(d)
	for _, id := range snap.Classes {
		if id == dict.None || id > n {
			return nil, fmt.Errorf("graph: snapshot class id %d unknown", id)
		}
		b.DeclareClass(d.Decode(id))
	}
	for _, id := range snap.Properties {
		if id == dict.None || id > n {
			return nil, fmt.Errorf("graph: snapshot property id %d unknown", id)
		}
		b.DeclareProperty(d.Decode(id))
	}
	for _, t := range snap.Schema {
		if err := checkTriple(t, "schema"); err != nil {
			return nil, err
		}
		decoded := d.DecodeTriple(t)
		if !b.AddTriple(decoded) {
			return nil, fmt.Errorf("graph: snapshot schema triple is not a constraint: %s", decoded)
		}
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	// A data triple never declares a constraint (AddData's rule), so D is
	// the disjoint union DataCount counts on.
	var constraint []dict.ID
	for _, p := range []rdf.Term{rdf.SubClassOf, rdf.SubPropertyOf, rdf.Domain, rdf.Range} {
		if id, ok := d.Lookup(p); ok {
			constraint = append(constraint, id)
		}
	}
	for _, t := range snap.Data {
		if err := checkTriple(t, "data"); err != nil {
			return nil, err
		}
		if slices.Contains(constraint, t.P) {
			return nil, fmt.Errorf("graph: snapshot data triple declares a constraint: %s", d.DecodeTriple(t))
		}
	}
	// Snapshots written after the interval encoding are already in DFS
	// order, so its remap is the identity; older snapshots get re-encoded.
	return assemble(d, b.Close(), snap.Data), nil
}

// LoadSnapshot reads a snapshot file.
func LoadSnapshot(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}
