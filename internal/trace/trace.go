// Package trace is a dependency-free, allocation-light span tracer for
// one query's lifecycle: a bounded tree of named spans, each with a start
// time, a duration and a small set of typed attributes. The engine opens
// spans for parse/reformulate/plan/eval, the executor opens one span per
// operator (scan, join, union, projection) recording the cost model's
// estimated cardinality next to the actual row count — the raw material
// for EXPLAIN ANALYZE and for slow-query forensics.
//
// Every method tolerates a nil receiver: a nil *Tracer hands out nil
// *Spans whose methods are no-ops, so instrumented code never branches on
// "tracing enabled" and the disabled path costs one pointer test.
//
// A request pays for its trace where something reads it. Spans come from
// chunks the tracer owns and never moves, each span holds its first
// attributes inline, and a Text attribute (SetText) is formatted only by
// the readers that print it: Render, ToJSON, Attr.String and Attr.Value.
// Visit hands its callback each span's own attributes, valid only during
// the call.
//
// A Tracer and its spans are safe for concurrent use (parallel UCQ
// branches record into the same tree); the span count is bounded, so a
// 300k-CQ reformulation cannot make a trace unbounded — excess spans are
// counted as dropped instead of recorded.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DefaultMaxSpans bounds a tracer's span tree when no explicit bound is
// given: generous enough for every operator of a cover-based plan, small
// enough that a huge UCQ cannot balloon a request's memory.
const DefaultMaxSpans = 4096

type attrKind uint8

const (
	kindStr attrKind = iota
	kindInt
	kindFloat
	kindBool
	kindText
)

// Text is a string attribute value formatted only when something reads it:
// Render, ToJSON, Attr.String and Attr.Value call String, and nothing else
// does. What a Text refers to must not change while the tracer may still be
// read.
type Text interface{ String() string }

// Attr is one typed key/value attribute on a span.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	text Text
	num  float64
}

// IsNumber reports whether the attribute holds an int or float value.
func (a Attr) IsNumber() bool { return a.kind == kindInt || a.kind == kindFloat }

// Number returns the numeric value (0 for string attributes).
func (a Attr) Number() float64 { return a.num }

// Value returns the attribute value as a JSON-friendly any.
func (a Attr) Value() any {
	switch a.kind {
	case kindInt:
		return int64(a.num)
	case kindFloat:
		return a.num
	case kindBool:
		return a.num != 0
	default:
		return a.String()
	}
}

// String renders the value compactly (integers without a fraction, floats
// with a few significant digits).
func (a Attr) String() string {
	switch a.kind {
	case kindInt:
		return strconv.FormatInt(int64(a.num), 10)
	case kindFloat:
		return formatFloat(a.num)
	case kindBool:
		if a.num != 0 {
			return "true"
		}
		return "false"
	case kindText:
		return a.text.String()
	default:
		return a.str
	}
}

func formatFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatFloat(f, 'f', 0, 64)
	}
	return strconv.FormatFloat(f, 'g', 4, 64)
}

// inlineAttrs is how many attributes a span holds without an allocation of
// its own.
const inlineAttrs = 3

// Span is one node of the trace tree. All methods are nil-tolerant and
// safe for concurrent use.
type Span struct {
	t     *Tracer
	name  string
	start time.Duration // since the tracer's epoch
	dur   time.Duration
	ended bool
	// attrs is inline[:n] until a span outgrows inline, then a slice of
	// its own.
	attrs  []Attr
	inline [inlineAttrs]Attr
	// The children, in the order they were opened.
	first, last, next *Span
}

// Tracer owns one bounded span tree. Its spans come from chunks it
// allocates and never moves: the first holds firstChunk spans, each next one
// twice its predecessor's, up to maxChunk, and never more than the bound
// has room for.
type Tracer struct {
	mu       sync.Mutex
	root     *Span
	epoch    time.Time
	free     []Span // what the current chunk has not handed out
	chunk    int    // the current chunk's size
	chunkCap int    // the largest chunk: maxChunk, smaller in tests
	count    int
	max      int
	dropped  int64
}

// The chunk sizes, in spans.
const (
	firstChunk = 8
	maxChunk   = 256
)

// New returns a tracer bounding its tree to maxSpans spans
// (DefaultMaxSpans when maxSpans <= 0).
func New(maxSpans int) *Tracer {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Tracer{max: maxSpans, chunkCap: maxChunk, epoch: time.Now()}
}

// StartSpan opens a span: the tree's root if none exists yet, a child of
// the root otherwise. Returns nil on a nil tracer or when the span budget
// is exhausted.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == nil {
		t.root = t.newSpanLocked(name)
		return t.root
	}
	return t.childLocked(t.root, name)
}

// Root returns the root span (nil until the first StartSpan).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}

// Dropped returns how many spans were discarded because the tree was full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SpanCount returns how many spans the tree currently holds.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// newSpanLocked hands out the next span of the current chunk, starting a
// chunk when it is used up. The caller has checked the bound.
func (t *Tracer) newSpanLocked(name string) *Span {
	if len(t.free) == 0 {
		t.chunk = min(max(2*t.chunk, firstChunk), t.chunkCap, t.max-t.count)
		t.free = make([]Span, t.chunk)
	}
	s := &t.free[0]
	t.free = t.free[1:]
	t.count++
	s.t, s.name, s.start = t, name, time.Since(t.epoch)
	return s
}

func (t *Tracer) childLocked(parent *Span, name string) *Span {
	if t.count >= t.max {
		t.dropped++
		return nil
	}
	s := t.newSpanLocked(name)
	if parent.last == nil {
		parent.first = s
	} else {
		parent.last.next = s
	}
	parent.last = s
	return s
}

// Child opens a sub-span. Nil-tolerant: a nil span returns nil, so a
// dropped or disabled parent silently disables its whole subtree.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.t.childLocked(s, name)
}

// End records the span's duration (first call wins).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if !s.ended {
		s.dur = time.Since(s.t.epoch) - s.start
		s.ended = true
	}
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the recorded duration (zero until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.dur
}

func (s *Span) setAttr(a Attr) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == a.Key {
			s.attrs[i] = a
			return
		}
	}
	if s.attrs == nil {
		s.attrs = s.inline[:0]
	}
	s.attrs = append(s.attrs, a)
}

// SetStr sets a string attribute.
func (s *Span) SetStr(key, v string) { s.setAttr(Attr{Key: key, kind: kindStr, str: v}) }

// SetText sets a string attribute whose value is v's String, made only
// when something reads the attribute.
func (s *Span) SetText(key string, v Text) { s.setAttr(Attr{Key: key, kind: kindText, text: v}) }

// SetInt sets an integer attribute.
func (s *Span) SetInt(key string, v int64) { s.setAttr(Attr{Key: key, kind: kindInt, num: float64(v)}) }

// SetFloat sets a float attribute.
func (s *Span) SetFloat(key string, v float64) { s.setAttr(Attr{Key: key, kind: kindFloat, num: v}) }

// SetBool sets a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	n := 0.0
	if v {
		n = 1
	}
	s.setAttr(Attr{Key: key, kind: kindBool, num: n})
}

// Attr returns the named attribute.
func (s *Span) Attr(key string) (Attr, bool) {
	if s == nil {
		return Attr{}, false
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// Visit walks the subtree rooted at s in tree order, calling fn with each
// span's name, recorded duration and attributes. The attributes are the
// span's own: valid only during the call, and not to be written. The walk
// holds the tracer's lock: fn must not call back into the same tracer.
func (s *Span) Visit(fn func(name string, depth int, dur time.Duration, attrs []Attr)) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.visitLocked(0, fn)
}

func (s *Span) visitLocked(depth int, fn func(string, int, time.Duration, []Attr)) {
	fn(s.name, depth, s.dur, s.attrs[:len(s.attrs):len(s.attrs)])
	for c := s.first; c != nil; c = c.next {
		c.visitLocked(depth+1, fn)
	}
}

// --- rendering ---------------------------------------------------------------

// RenderOptions controls the text rendering.
type RenderOptions struct {
	// Timing appends each span's wall-clock duration. Leave false for
	// deterministic output (EXPLAIN without ANALYZE, golden tests).
	Timing bool
}

// Render draws the subtree rooted at s as an indented tree, one span per
// line: name, key=value attributes and (with Timing) the duration.
func Render(s *Span, opts RenderOptions) string {
	if s == nil {
		return ""
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	var sb strings.Builder
	renderLocked(&sb, s, "", "", opts)
	return sb.String()
}

func renderLocked(sb *strings.Builder, s *Span, prefix, childPrefix string, opts RenderOptions) {
	sb.WriteString(prefix)
	sb.WriteString(s.name)
	for _, a := range s.attrs {
		sb.WriteByte(' ')
		sb.WriteString(a.Key)
		sb.WriteByte('=')
		val := a.String()
		if (a.kind == kindStr || a.kind == kindText) && strings.ContainsAny(val, " \t") {
			val = strconv.Quote(val)
		}
		sb.WriteString(val)
	}
	if opts.Timing && s.dur > 0 {
		fmt.Fprintf(sb, " (%s)", formatDur(s.dur))
	}
	sb.WriteByte('\n')
	for c := s.first; c != nil; c = c.next {
		if c.next == nil {
			renderLocked(sb, c, childPrefix+"└─ ", childPrefix+"   ", opts)
		} else {
			renderLocked(sb, c, childPrefix+"├─ ", childPrefix+"│  ", opts)
		}
	}
}

func formatDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(d)/float64(time.Second))
	}
}

// --- JSON --------------------------------------------------------------------

// SpanJSON is the JSON shape of one span subtree.
type SpanJSON struct {
	Name      string         `json:"name"`
	DurMillis float64        `json:"durMillis,omitempty"`
	Attrs     map[string]any `json:"attrs,omitempty"`
	Children  []*SpanJSON    `json:"children,omitempty"`
}

// ToJSON converts the subtree rooted at s into its JSON shape.
func ToJSON(s *Span) *SpanJSON {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return toJSONLocked(s)
}

func toJSONLocked(s *Span) *SpanJSON {
	out := &SpanJSON{
		Name:      s.name,
		DurMillis: round3(float64(s.dur) / float64(time.Millisecond)),
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value()
		}
	}
	for c := s.first; c != nil; c = c.next {
		out.Children = append(out.Children, toJSONLocked(c))
	}
	return out
}

func round3(f float64) float64 { return math.Round(f*1000) / 1000 }

// Find returns the first span in n's subtree (depth-first, n included)
// whose name matches, or nil. It operates on the JSON shape so callers can
// inspect traces without holding tracer locks.
func (n *SpanJSON) Find(name string) *SpanJSON {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// PhaseMillis sums the durations of every span named name in n's subtree —
// the per-phase breakdown (reformulate / plan / eval) benchmark reports
// use.
func (n *SpanJSON) PhaseMillis(name string) float64 {
	if n == nil {
		return 0
	}
	total := 0.0
	if n.Name == name {
		total += n.DurMillis
	}
	for _, c := range n.Children {
		total += c.PhaseMillis(name)
	}
	return total
}

// AttrNames returns the sorted attribute keys (test helper).
func (n *SpanJSON) AttrNames() []string {
	if n == nil {
		return nil
	}
	out := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
