package graph

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/rdf"
)

const sample = `
@prefix ex: <http://example.org/> .
ex:Book rdfs:subClassOf ex:Publication .
ex:writtenBy rdfs:domain ex:Book .
ex:doi1 a ex:Book .
ex:doi1 ex:writtenBy _:b1 .
`

func TestParseSplitsSchemaFromData(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if g.DataCount() != 2 {
		t.Fatalf("want 2 data triples, got %d", g.DataCount())
	}
	c, p, sc, _, dom, _ := g.Schema().Size()
	if c != 2 || p != 1 || sc != 1 || dom != 1 {
		t.Fatalf("schema sizes wrong: %v", g.Schema())
	}
}

func TestAllTriplesIncludesClosedSchema(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	all := g.AllTriples()
	if len(all) != g.DataCount()+len(g.Schema().Triples()) {
		t.Fatalf("AllTriples length %d != data %d + schema %d", len(all), g.DataCount(), len(g.Schema().Triples()))
	}
	for i := 1; i < len(all); i++ {
		if CompareTriples(all[i-1], all[i]) >= 0 {
			t.Fatal("AllTriples not sorted/deduped")
		}
	}
}

func TestFromTriplesRejectsIllFormed(t *testing.T) {
	bad := []rdf.Triple{rdf.NewTriple(rdf.NewLiteral("x"), rdf.NewIRI("p"), rdf.NewIRI("o"))}
	if _, err := FromTriples(bad); err == nil {
		t.Fatal("ill-formed triple must be rejected")
	}
}

func TestFromTriplesRejectsBuiltinConstraint(t *testing.T) {
	bad := []rdf.Triple{rdf.NewTriple(rdf.NewIRI("p"), rdf.SubPropertyOf, rdf.Type)}
	if _, err := FromTriples(bad); err == nil {
		t.Fatal("constraining rdf:type must be rejected")
	}
}

func TestAddData(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	n, before := g.DataCount(), g.AllTriples()
	kept := slices.Clone(before)
	doi2 := rdf.NewTriple(rdf.NewIRI("http://example.org/doi2"), rdf.Type, rdf.NewIRI("http://example.org/Book"))
	added, err := g.AddData([]rdf.Triple{doi2})
	if err != nil {
		t.Fatal(err)
	}
	if g.DataCount() != n+1 || len(added) != 1 || g.Dict().DecodeTriple(added[0]) != doi2 {
		t.Fatalf("want %d triples and doi2 reported added, got %d and %v", n+1, g.DataCount(), added)
	}
	// Duplicates are set-semantics no-ops, within a batch and against the
	// graph: only what is new is reported, and the data stays sorted.
	doi0 := rdf.NewTriple(rdf.NewIRI("http://example.org/doi0"), rdf.Type, rdf.NewIRI("http://example.org/Book"))
	added, err = g.AddData([]rdf.Triple{doi2, doi0, doi2, doi0})
	if err != nil {
		t.Fatal(err)
	}
	if g.DataCount() != n+2 || len(added) != 1 || g.Dict().DecodeTriple(added[0]) != doi0 {
		t.Fatalf("want %d triples and doi0 alone reported added, got %d and %v", n+2, g.DataCount(), added)
	}
	if all := g.AllTriples(); !slices.IsSortedFunc(all, CompareTriples) || len(all) != g.DataCount()+len(g.Schema().Triples()) {
		t.Fatalf("D not sorted, or not data plus closure, after merge: %v", all)
	}
	// A write replaces D; the one published before it is never written.
	if !slices.Equal(before, kept) {
		t.Fatalf("AddData changed the D it replaced: %v, was %v", before, kept)
	}
}

func TestAddDataRejectsSchemaTriples(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	bad := []rdf.Triple{rdf.NewTriple(rdf.NewIRI("http://c"), rdf.SubClassOf, rdf.NewIRI("http://d"))}
	if _, err := g.AddData(bad); err == nil {
		t.Fatal("schema triple insertion must be rejected")
	}
}

func TestVal(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	vals := g.Val()
	want := map[string]bool{}
	for _, v := range vals {
		want[v.String()] = true
	}
	for _, needed := range []string{"<http://example.org/doi1>", "_:b1", "<http://example.org/Publication>"} {
		if !want[needed] {
			t.Errorf("Val missing %s", needed)
		}
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.nt")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if g.DataCount() != 2 {
		t.Fatalf("want 2 data triples, got %d", g.DataCount())
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.nt")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestDecodedDataRoundTrip(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	dec := g.DecodedData()
	if len(dec) != g.DataCount() {
		t.Fatal("decode length mismatch")
	}
	for _, tr := range dec {
		if !tr.WellFormed() {
			t.Fatalf("decoded triple ill-formed: %v", tr)
		}
	}
}

func TestStringSummary(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.String(), "data:2") {
		t.Fatalf("unexpected summary %q", g.String())
	}
}

func TestParseError(t *testing.T) {
	if _, err := ParseString("<broken"); err == nil {
		t.Fatal("syntax error must propagate")
	}
}

func TestRemoveData(t *testing.T) {
	g, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	n, before := g.DataCount(), g.AllTriples()
	kept := slices.Clone(before)
	book := rdf.NewTriple(rdf.NewIRI("http://example.org/doi1"), rdf.Type, rdf.NewIRI("http://example.org/Book"))
	unknown := rdf.NewTriple(rdf.NewIRI("http://x"), rdf.NewIRI("http://y"), rdf.NewIRI("http://z"))
	// Known terms, absent triple: must not be reported removed.
	absent := rdf.NewTriple(rdf.NewIRI("http://example.org/doi1"), rdf.Type, rdf.NewIRI("http://example.org/Publication"))
	removed, err := g.RemoveData([]rdf.Triple{book, unknown, absent, book})
	if err != nil || len(removed) != 1 || g.Dict().DecodeTriple(removed[0]) != book {
		t.Fatalf("removed=%v err=%v", removed, err)
	}
	if g.DataCount() != n-1 || !slices.Equal(before, kept) {
		t.Fatalf("data count %d, want %d; D replaced was %v, now %v", g.DataCount(), n-1, kept, before)
	}
	// Already gone: no-op.
	removed, err = g.RemoveData([]rdf.Triple{book})
	if err != nil || len(removed) != 0 || g.DataCount() != n-1 {
		t.Fatalf("second removal: removed=%v err=%v count=%d", removed, err, g.DataCount())
	}
	// Schema triple rejected.
	if _, err := g.RemoveData([]rdf.Triple{
		rdf.NewTriple(rdf.NewIRI("http://a"), rdf.SubClassOf, rdf.NewIRI("http://b")),
	}); err == nil {
		t.Fatal("schema removal must be rejected")
	}
}
