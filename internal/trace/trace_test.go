package trace

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("x")
	if sp != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	// All of these must be no-ops, not panics.
	sp.SetInt("k", 1)
	sp.SetStr("k", "v")
	sp.SetFloat("k", 1.5)
	sp.SetBool("k", true)
	sp.End()
	if c := sp.Child("y"); c != nil {
		t.Fatal("nil span must hand out nil children")
	}
	if _, ok := sp.Attr("k"); ok {
		t.Fatal("nil span has no attrs")
	}
	sp.Visit(func(string, int, time.Duration, []Attr) { t.Fatal("nil span visits nothing") })
	if Render(sp, RenderOptions{}) != "" || ToJSON(sp) != nil {
		t.Fatal("nil span renders empty")
	}
	if tr.Root() != nil || tr.Dropped() != 0 || tr.SpanCount() != 0 {
		t.Fatal("nil tracer must report zero state")
	}
}

func TestSpanTreeAndAttrs(t *testing.T) {
	tr := New(0)
	root := tr.StartSpan("query")
	root.SetStr("strategy", "ref-gcov")
	eval := root.Child("eval")
	scan := eval.Child("scan")
	scan.SetStr("atom", "x type Student")
	scan.SetFloat("est_rows", 120.5)
	scan.SetInt("rows", 118)
	scan.End()
	eval.SetInt("rows", 118)
	eval.End()
	root.End()

	if tr.SpanCount() != 3 {
		t.Fatalf("span count %d, want 3", tr.SpanCount())
	}
	a, ok := scan.Attr("est_rows")
	if !ok || !a.IsNumber() || a.Number() != 120.5 {
		t.Fatalf("est_rows attr = %+v ok=%v", a, ok)
	}
	if root.Duration() <= 0 || !strings.Contains(root.Name(), "query") {
		t.Fatalf("root not ended: dur=%v", root.Duration())
	}

	// Overwriting an attr must replace, not append.
	scan.SetInt("rows", 119)
	names := 0
	scan.Visit(func(_ string, _ int, _ time.Duration, attrs []Attr) {
		for _, a := range attrs {
			if a.Key == "rows" {
				names++
				if a.Number() != 119 {
					t.Fatalf("rows = %v, want 119", a.Number())
				}
			}
		}
	})
	if names != 1 {
		t.Fatalf("rows attr appears %d times, want 1", names)
	}
}

func TestRenderDeterministicWithoutTiming(t *testing.T) {
	tr := New(0)
	root := tr.StartSpan("select")
	root.SetStr("cover", "{1,3}{2}")
	f := root.Child("fragment")
	f.SetInt("idx", 0)
	f.Child("scan").SetFloat("est_rows", 42)
	root.Child("project").SetInt("cols", 2)

	got := Render(root, RenderOptions{})
	want := "select cover={1,3}{2}\n" +
		"├─ fragment idx=0\n" +
		"│  └─ scan est_rows=42\n" +
		"└─ project cols=2\n"
	if got != want {
		t.Fatalf("render mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	// Rendering twice is identical (timing disabled).
	if again := Render(root, RenderOptions{}); again != got {
		t.Fatal("render not deterministic")
	}
}

func TestRenderQuotesSpacedStrings(t *testing.T) {
	tr := New(0)
	root := tr.StartSpan("scan")
	root.SetStr("atom", "x rdf:type ub:Student")
	got := Render(root, RenderOptions{})
	if !strings.Contains(got, `atom="x rdf:type ub:Student"`) {
		t.Fatalf("spaced attr not quoted: %q", got)
	}
}

func TestBoundedSpansDrop(t *testing.T) {
	tr := New(4)
	root := tr.StartSpan("root")
	var kept int
	for i := 0; i < 10; i++ {
		if root.Child("c") != nil {
			kept++
		}
	}
	if kept != 3 { // root + 3 children = 4
		t.Fatalf("kept %d children, want 3", kept)
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped %d, want 7", tr.Dropped())
	}
	// Children of dropped spans silently vanish too.
	var nilChild *Span
	if got := nilChild.Child("grandchild"); got != nil {
		t.Fatal("child of dropped span must be nil")
	}
}

func TestToJSONShape(t *testing.T) {
	tr := New(0)
	root := tr.StartSpan("query")
	root.SetStr("requestId", "abc")
	sc := root.Child("scan")
	sc.SetFloat("est_rows", 10)
	sc.SetInt("rows", 12)
	sc.End()
	root.End()

	j := ToJSON(root)
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var back SpanJSON
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "query" || back.Attrs["requestId"] != "abc" {
		t.Fatalf("round-trip lost data: %+v", back)
	}
	scan := back.Find("scan")
	if scan == nil {
		t.Fatal("scan not found")
	}
	if scan.Attrs["est_rows"].(float64) != 10 || scan.Attrs["rows"].(float64) != 12 {
		t.Fatalf("scan attrs: %+v", scan.Attrs)
	}
	if got := back.AttrNames(); len(got) != 1 || got[0] != "requestId" {
		t.Fatalf("attr names: %v", got)
	}
}

func TestPhaseMillis(t *testing.T) {
	n := &SpanJSON{Name: "answer", Children: []*SpanJSON{
		{Name: "eval", DurMillis: 2},
		{Name: "fragment", Children: []*SpanJSON{{Name: "eval", DurMillis: 3}}},
	}}
	if got := n.PhaseMillis("eval"); got != 5 {
		t.Fatalf("PhaseMillis = %v, want 5", got)
	}
	if got := n.PhaseMillis("missing"); got != 0 {
		t.Fatalf("PhaseMillis(missing) = %v", got)
	}
}

// Concurrent children and attribute writes from many goroutines must be
// safe (run under -race) and never exceed the bound.
func TestConcurrentSpans(t *testing.T) {
	tr := New(256)
	root := tr.StartSpan("root")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c := root.Child("cq")
				c.SetInt("rows", int64(i))
				c.End()
			}
		}(w)
	}
	wg.Wait()
	if n := tr.SpanCount(); n > 256 {
		t.Fatalf("span count %d exceeds bound", n)
	}
	if tr.SpanCount()+int(tr.Dropped()) != 801 {
		t.Fatalf("kept %d + dropped %d != 801", tr.SpanCount(), tr.Dropped())
	}
	_ = Render(root, RenderOptions{Timing: true})
	_ = ToJSON(root)
}

// text is a Text that counts how often it is formatted.
type text struct {
	s string
	n *int
}

func (t text) String() string { *t.n++; return t.s }

// A SetText attribute reads as a SetStr of its formatted value through
// every reader, and is formatted by the readers only.
func TestTextReadsAsStr(t *testing.T) {
	for _, v := range []string{"x", "x rdf:type ub:Student", "", "tab\there", `q"uote`} {
		formatted := 0
		lazy, eager := New(0), New(0)
		for _, tr := range []*Tracer{lazy, eager} {
			root := tr.StartSpan("answer")
			root.SetInt("rows", 3)
			c := root.Child("scan")
			if tr == lazy {
				c.SetText("atom", text{v, &formatted})
			} else {
				c.SetStr("atom", v)
			}
			c.SetFloat("est_rows", 2.5)
		}
		if formatted != 0 {
			t.Fatalf("%q: formatted %d times before anything read it", v, formatted)
		}
		opts := RenderOptions{}
		if got, want := Render(lazy.Root(), opts), Render(eager.Root(), opts); got != want {
			t.Errorf("%q: Render %q, want %q", v, got, want)
		}
		got, _ := json.Marshal(ToJSON(lazy.Root()))
		want, _ := json.Marshal(ToJSON(eager.Root()))
		if string(got) != string(want) {
			t.Errorf("%q: ToJSON %s, want %s", v, got, want)
		}
		var visited [2][]string
		for i, tr := range []*Tracer{lazy, eager} {
			tr.Root().Visit(func(name string, depth int, _ time.Duration, attrs []Attr) {
				for _, a := range attrs {
					visited[i] = append(visited[i], fmt.Sprint(name, depth, a.Key, a.IsNumber(), a.Number(), a.String(), a.Value()))
				}
			})
		}
		if !slices.Equal(visited[0], visited[1]) {
			t.Errorf("%q: Visit %q, want %q", v, visited[0], visited[1])
		}
		if formatted == 0 {
			t.Errorf("%q: the readers never formatted the text", v)
		}
	}
}

// Four goroutines open, annotate and end spans across many chunk
// boundaries: the bound and the drop count stay exact, and every span
// renders with its attributes. Run under -race.
func TestSlabConcurrentChunks(t *testing.T) {
	const workers, each, bound = 4, 300, 1000
	tr := New(bound)
	tr.chunkCap = 3
	root := tr.StartSpan("root")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c := root.Child("cq")
				c.SetInt("w", int64(w))
				c.SetInt("i", int64(i))
				c.SetText("q", text{fmt.Sprint("q", w, ".", i), new(int)})
				c.SetStr("extra", "overflow")
				if g := c.Child("scan"); g != nil {
					g.SetInt("rows", int64(i))
					g.End()
				}
				c.End()
			}
		}(w)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(Render(root, RenderOptions{}), "\n"), "\n")
	kept, dropped := tr.SpanCount(), int(tr.Dropped())
	if len(lines) != kept || kept != bound {
		t.Fatalf("rendered %d spans, kept %d under a bound of %d", len(lines), kept, bound)
	}
	seen := map[string]bool{}
	for _, l := range lines[1:] {
		f := strings.Fields(strings.TrimLeft(l, "├└│─ "))
		switch f[0] {
		case "cq":
			if len(f) != 5 || !strings.HasPrefix(f[1], "w=") || !strings.HasPrefix(f[2], "i=") ||
				f[3] != "q=q"+f[1][2:]+"."+f[2][2:] || f[4] != "extra=overflow" {
				t.Fatalf("cq span renders %q", l)
			}
			if seen[f[3]] {
				t.Fatalf("%s rendered twice", f[3])
			}
			seen[f[3]] = true
		case "scan":
			if len(f) != 2 || !strings.HasPrefix(f[1], "rows=") {
				t.Fatalf("scan span renders %q", l)
			}
		default:
			t.Fatalf("unexpected line %q", l)
		}
	}
	// Every cq was asked for, and a scan under each cq kept.
	if asked := 1 + workers*each + len(seen); kept+dropped != asked {
		t.Fatalf("kept %d + dropped %d, %d asked for", kept, dropped, asked)
	}
}

// Spans come from chunks: opening them costs at most one allocation per
// eight spans.
func TestSpansAmortized(t *testing.T) {
	const spans = 1024
	allocs := testing.AllocsPerRun(20, func() {
		tr := New(spans)
		root := tr.StartSpan("root")
		for i := 1; i < spans; i++ {
			c := root.Child("c")
			c.SetInt("rows", int64(i))
			c.End()
		}
	})
	if allocs > spans/8 {
		t.Fatalf("%v allocations for %d spans", allocs, spans)
	}
	t.Logf("%v allocations for %d spans", allocs, spans)
}
