package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/lubm"
)

// miniConfig keeps the experiments fast in unit tests.
func miniConfig() Config {
	return Config{Profile: lubm.Mini(), Seed: 42, Timeout: 20 * time.Second}
}

func TestTableFormatting(t *testing.T) {
	tb := Table{Header: []string{"a", "bbbb"}}
	tb.Add("x", 12)
	tb.Add("longer", time.Millisecond*1500)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "1.50s") {
		t.Fatalf("duration formatting wrong:\n%s", out)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0"},
		{500 * time.Microsecond, "500µs"},
		{2500 * time.Microsecond, "2.5ms"},
		{3 * time.Second, "3.00s"},
	}
	for _, c := range cases {
		if got := formatDuration(c.d); got != c.want {
			t.Errorf("formatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestE1Mini(t *testing.T) {
	res, err := E1(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Combos < 100000 {
		t.Fatalf("Example 1 blow-up missing: %d combos", res.Combos)
	}
	if len(res.Runs) < 4 {
		t.Fatalf("want ≥4 strategies, got %d", len(res.Runs))
	}
	// All feasible strategies must agree on the answer count.
	count := -1
	for _, r := range res.Runs {
		if r.Err != nil {
			continue
		}
		if count == -1 {
			count = r.Rows
		} else if r.Rows != count {
			t.Fatalf("strategy %s found %d rows, others %d", r.Strategy, r.Rows, count)
		}
	}
	if !strings.Contains(res.String(), "E1") {
		t.Fatal("report header missing")
	}
}

func TestE1IncludesUCQ(t *testing.T) {
	cfg := miniConfig()
	cfg.IncludeUCQ = true
	res, err := E1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Runs {
		if strings.Contains(string(r.Strategy), "UCQ") {
			found = true
		}
	}
	if !found {
		t.Fatal("UCQ strategy missing with IncludeUCQ")
	}
}

func TestE2Mini(t *testing.T) {
	res, err := E2(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 4 {
		t.Fatalf("want 4 scenarios, got %d", len(res.Sections))
	}
	out := res.String()
	for _, name := range []string{"lubm", "insee", "ign", "dblp"} {
		if !strings.Contains(out, "["+name+"]") {
			t.Errorf("report missing scenario %s", name)
		}
	}
}

func TestE3Mini(t *testing.T) {
	res, err := E3(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no measurements")
	}
	// Complete strategies must be marked complete everywhere they ran.
	for _, row := range res.Rows {
		if row.Run.Err != nil {
			continue
		}
		switch row.Run.Strategy {
		case engine.Sat, engine.RefSCQ, engine.RefGCov, engine.Dat:
			if !row.Complete {
				t.Fatalf("%s/%s: %s marked incomplete", row.Scenario, row.Query, row.Run.Strategy)
			}
		}
	}
	if len(res.IncompleteGaps()) == 0 {
		t.Fatal("expected at least one completeness gap for the incomplete strategy")
	}
}

func TestE4Mini(t *testing.T) {
	res, err := E4(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explored) < 2 {
		t.Fatalf("GCov should explore several covers, got %d", len(res.Explored))
	}
	if len(res.Fragments.Rows) == 0 || len(res.Operators.Rows) == 0 {
		t.Fatal("introspection tables empty")
	}
	// The estimate must be an upper bound within a sane factor of actual
	// on at least one fragment (sanity of the model wiring, not accuracy).
	if !strings.Contains(res.String(), "final cover") {
		t.Fatal("report incomplete")
	}
}

func TestE5Mini(t *testing.T) {
	res, err := E5(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 5 {
		t.Fatalf("want 5 variants, got %d", len(res.Table.Rows))
	}
	// Row 0 is the base; row 1 (+degree subprops) must have more CQs,
	// rows 3-4 (dropped constraints) fewer.
	base := atoiCell(t, res.Table.Rows[0][1])
	enriched := atoiCell(t, res.Table.Rows[1][1])
	dropped := atoiCell(t, res.Table.Rows[3][1])
	if enriched <= base {
		t.Fatalf("adding subproperties must grow the UCQ: %d vs %d", enriched, base)
	}
	if dropped >= base {
		t.Fatalf("dropping domain/range must shrink the UCQ: %d vs %d", dropped, base)
	}
}

func atoiCell(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("cell %q is not a number", s)
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func TestE6Mini(t *testing.T) {
	res, err := E6(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.DerivedTriples <= 0 {
		t.Fatal("saturation must derive triples on LUBM")
	}
	if res.GrowthPercent <= 0 {
		t.Fatal("growth must be positive")
	}
	if res.BatchSize <= 0 {
		t.Fatal("batch must be non-empty")
	}
	if !strings.Contains(res.String(), "saturation") {
		t.Fatal("report incomplete")
	}
	// The paper's "Ref: zero per update", measured: at every size the first
	// answer after a write arrives sooner under Ref than under Sat.
	if len(res.Updates) != 3 {
		t.Fatalf("%d update rows, want 3 sizes", len(res.Updates))
	}
	for _, u := range res.Updates {
		if u.RefInsert <= 0 || u.RefInsert >= u.SatInsert || u.RefDelete <= 0 || u.RefDelete >= u.SatDelete {
			t.Fatalf("at %d triples Ref answers %v/%v after an insert/delete, Sat %v/%v",
				u.DataTriples, u.RefInsert, u.RefDelete, u.SatInsert, u.SatDelete)
		}
	}
}

func TestAblationMini(t *testing.T) {
	res, err := Ablation(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 5 {
		t.Fatalf("want 5 ablation rows, got %d", len(res.Table.Rows))
	}
	if s := res.String(); !strings.Contains(s, "INLJ + hash") || !strings.Contains(s, "hash joins only") || !strings.Contains(s, "cover search") {
		t.Fatal("report incomplete")
	}
}

func TestE7Mini(t *testing.T) {
	res, err := E7(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 100 { // Bell(6)=203 partitions minus prunes, plus GCov
		t.Fatalf("sweep too small: %d covers", len(res.Points))
	}
	if res.SpreadFactor < 2 {
		t.Fatalf("cover space should spread evaluation times, got %.1fx", res.SpreadFactor)
	}
	if res.RankCorrelation <= 0 {
		t.Fatalf("cost model must correlate positively with runtime, got %.2f", res.RankCorrelation)
	}
	if res.GCovRank == 0 {
		t.Fatal("GCov pick missing from the sweep")
	}
	if !strings.Contains(res.String(), "Spearman") {
		t.Fatal("report incomplete")
	}
}

func TestSpearman(t *testing.T) {
	if got := spearman([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}); got < 0.999 {
		t.Fatalf("perfect correlation = %v", got)
	}
	if got := spearman([]float64{1, 2, 3, 4}, []float64{40, 30, 20, 10}); got > -0.999 {
		t.Fatalf("perfect anticorrelation = %v", got)
	}
	if got := spearman([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("constant sample correlation = %v", got)
	}
}

func TestReportStrings(t *testing.T) {
	cfg := miniConfig()
	e3, err := E3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e3.String(), "E3") {
		t.Fatal("E3 report header missing")
	}
	e5, err := E5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e5.String(), "E5") {
		t.Fatal("E5 report header missing")
	}
	if truncate("abcdef", 3) != "abc…" || truncate("ab", 5) != "ab" {
		t.Fatal("truncate wrong")
	}
}
