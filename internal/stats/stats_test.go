package stats

import (
	"maps"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dict"
	"repro/internal/storage"
)

func buildStats(triples [][3]dict.ID) (*Stats, *storage.Store, *dict.Dict) {
	d := dict.New()
	ts := make([]dict.Triple, len(triples))
	for i, t := range triples {
		ts[i] = dict.Triple{S: t[0], P: t[1], O: t[2]}
	}
	st := storage.Build(d, ts)
	return Collect(st), st, d
}

func TestCollectBasics(t *testing.T) {
	s, _, _ := buildStats([][3]dict.ID{
		{1, 10, 100}, {1, 10, 101}, {2, 10, 100}, {2, 11, 100}, {3, 11, 100},
	})
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.DistinctSubjects() != 3 || s.DistinctProperties() != 2 || s.DistinctObjects() != 2 {
		t.Fatalf("distincts: %d %d %d", s.DistinctSubjects(), s.DistinctProperties(), s.DistinctObjects())
	}
	ps, ok := s.Property(10)
	if !ok || ps.Count != 3 || ps.DistinctS != 2 || ps.DistinctO != 2 {
		t.Fatalf("property 10 stats: %+v", ps)
	}
	if _, ok := s.Property(99); ok {
		t.Fatal("unknown property must report absent")
	}
}

func TestPatternCardExactShapes(t *testing.T) {
	s, st, _ := buildStats([][3]dict.ID{
		{1, 10, 100}, {1, 10, 101}, {2, 10, 100}, {2, 11, 100},
	})
	shapes := []storage.Pattern{
		{}, {S: 1}, {P: 10}, {O: 100}, {S: 1, P: 10}, {P: 10, O: 100}, {S: 1, P: 10, O: 100},
	}
	for _, pat := range shapes {
		var buf [3]storage.IDRange
		if got, want := s.PatternCard(pat), float64(st.CountRange(pat.Range(&buf))); got != want {
			t.Errorf("PatternCard(%+v) = %v, want %v", pat, got, want)
		}
	}
}

func TestPatternCardSOIndependence(t *testing.T) {
	s, _, _ := buildStats([][3]dict.ID{
		{1, 10, 100}, {1, 11, 100}, {2, 10, 101}, {2, 11, 102},
	})
	// (s=1, ?, o=100): count(s=1)=2, count(o=100)=2, N=4 → 1.
	if got := s.PatternCard(storage.Pattern{S: 1, O: 100}); got != 1 {
		t.Fatalf("independence estimate = %v, want 1", got)
	}
}

func TestDistinctVar(t *testing.T) {
	s, _, _ := buildStats([][3]dict.ID{
		{1, 10, 100}, {2, 10, 100}, {3, 10, 101}, {1, 11, 100},
	})
	// (?, 10, ?): 3 distinct subjects, 2 distinct objects.
	if got := s.DistinctVar(storage.Pattern{P: 10}, 's'); got != 3 {
		t.Fatalf("V(s | p=10) = %v", got)
	}
	if got := s.DistinctVar(storage.Pattern{P: 10}, 'o'); got != 2 {
		t.Fatalf("V(o | p=10) = %v", got)
	}
	// Bound position → 1.
	if got := s.DistinctVar(storage.Pattern{S: 1, P: 10}, 's'); got != 1 {
		t.Fatalf("bound V = %v", got)
	}
	// Capped by cardinality.
	if got := s.DistinctVar(storage.Pattern{P: 10, O: 101}, 's'); got > 1 {
		t.Fatalf("V must be capped by card, got %v", got)
	}
	// Empty pattern position estimates from global distincts.
	if got := s.DistinctVar(storage.Pattern{}, 'p'); got != 2 {
		t.Fatalf("V(p) = %v", got)
	}
}

func TestTopValuesAndPairs(t *testing.T) {
	s2, _, _ := buildStats([][3]dict.ID{
		{1, 10, 100}, {2, 10, 100}, {3, 10, 101}, {4, 11, 100},
	})
	top := s2.TopValues('p', 1)
	if len(top) != 1 || top[0].ID != 10 || top[0].Count != 3 {
		t.Fatalf("top property wrong: %+v", top)
	}
	pairs := s2.TopPairsPO(2)
	if len(pairs) != 2 || pairs[0].P != 10 || pairs[0].O != 100 || pairs[0].Count != 2 {
		t.Fatalf("top pairs wrong: %+v", pairs)
	}
}

func TestEmptyStats(t *testing.T) {
	s, _, _ := buildStats(nil)
	if s.N() != 0 || s.PatternCard(storage.Pattern{}) != 0 {
		t.Fatal("empty store stats wrong")
	}
	if got := s.DistinctVar(storage.Pattern{}, 's'); got != 0 {
		t.Fatalf("V over empty = %v", got)
	}
}

func TestSummaryRenders(t *testing.T) {
	d := dict.New()
	a := d.EncodeIRI("http://a")
	p := d.EncodeIRI("http://p")
	b := d.EncodeIRI("http://b")
	st := storage.Build(d, []dict.Triple{{S: a, P: p, O: b}})
	s := Collect(st)
	out := s.Summary(d, 3)
	if !strings.Contains(out, "triples: 1") || !strings.Contains(out, "http://p") {
		t.Fatalf("summary: %q", out)
	}
}

// Property: per-property counts sum to N, and distinct counts never exceed
// the property count.
func TestPropertyStatsConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var ts [][3]dict.ID
		for i := 0; i < 10+r.Intn(150); i++ {
			ts = append(ts, [3]dict.ID{
				dict.ID(1 + r.Intn(10)), dict.ID(50 + r.Intn(5)), dict.ID(1 + r.Intn(12)),
			})
		}
		s, st, _ := buildStats(ts)
		sum := 0
		for p := dict.ID(50); p < 56; p++ {
			ps, ok := s.Property(p)
			if !ok {
				continue
			}
			sum += ps.Count
			if ps.DistinctS > ps.Count || ps.DistinctO > ps.Count {
				return false
			}
			var buf [3]storage.IDRange
			if ps.Count != st.CountRange(storage.Pattern{P: p}.Range(&buf)) {
				return false
			}
		}
		return sum == s.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Apply must give, field by field, what Collect gives on the new store —
// across keys that appear, disappear and are shared by several delta
// triples, and properties that come and go.
func TestApplyMatchesCollect(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	random := func(n int) []dict.Triple {
		ts := make([]dict.Triple, n)
		for i := range ts {
			ts[i] = dict.Triple{S: dict.ID(1 + r.Intn(6)), P: dict.ID(10 + r.Intn(4)), O: dict.ID(1 + r.Intn(6))}
		}
		return ts
	}
	for trial := 0; trial < 500; trial++ {
		prev := storage.Build(dict.New(), random(r.Intn(30)))
		var added, removed []dict.Triple
		for _, x := range random(r.Intn(10)) {
			if prev.Contains(x) {
				removed = append(removed, x)
			} else {
				added = append(added, x)
			}
		}
		next := prev.Apply(prev.SPO().Apply(added, removed), added, removed)
		got, want := Collect(prev).Apply(next, added, removed), Collect(next)
		if got.store != Source(next) || got.n != want.n || got.distinctS != want.distinctS ||
			got.distinctP != want.distinctP || got.distinctO != want.distinctO || !maps.Equal(got.props, want.props) {
			t.Fatalf("trial %d: %v +%v -%v:\n applied   %+v\n collected %+v", trial, prev.Triples(), added, removed, *got, *want)
		}
	}
}
