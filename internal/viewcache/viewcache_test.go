package viewcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/query"
)

func atomOf(s, p, o query.Arg) query.Atom { return query.Atom{S: s, P: p, O: o} }

// typeCQ builds the fragment query  head(v) :- v <p> <cls>  with the given
// head variable name and constant IDs.
func typeCQ(v string, p, cls dict.ID) query.CQ {
	return query.NewCQ([]string{v}, []query.Atom{
		atomOf(query.Variable(v), query.Constant(p), query.Constant(cls)),
	})
}

// rel builds a one-column relation with rows 0..n-1.
func rel(v string, n int) *exec.Relation {
	r := exec.NewRelation([]string{v})
	for i := 0; i < n; i++ {
		r.Append([]dict.ID{dict.ID(i + 1)})
	}
	return r
}

func evalN(counter *atomic.Int64, v string, n int) func() (*exec.Relation, error) {
	return func() (*exec.Relation, error) {
		counter.Add(1)
		return rel(v, n), nil
	}
}

// constCost is a fixed-cost admission estimator.
func constCost(c float64) func() float64 { return func() float64 { return c } }

// A fragment is keyed by its query: alpha-equivalent queries — variables
// renamed, atoms reordered — share a key; another constant or another head
// order is another key.
func TestSignatureCanonicalization(t *testing.T) {
	a := typeCQ("x", 10, 20)
	if Signature(a) != Signature(typeCQ("z", 10, 20)) {
		t.Fatalf("signatures differ for alpha-equivalent fragments")
	}
	if Signature(a) == Signature(typeCQ("x", 10, 21)) {
		t.Fatalf("signatures collide across different constants")
	}
	v := query.Variable
	c := query.Constant
	xy := query.NewCQ([]string{"x", "y"}, []query.Atom{atomOf(v("x"), c(1), v("y")), atomOf(v("y"), c(2), c(3))})
	renamed := query.NewCQ([]string{"z", "w"}, []query.Atom{atomOf(v("w"), c(2), c(3)), atomOf(v("z"), c(1), v("w"))})
	if Signature(xy) != Signature(renamed) {
		t.Fatalf("signatures differ for a renamed, reordered fragment")
	}
	if Signature(xy) == Signature(query.NewCQ([]string{"y", "x"}, xy.Atoms)) {
		t.Fatalf("signatures collide across head orders")
	}
}

func TestHitReturnsRenamedImmutableView(t *testing.T) {
	c := New(Config{MinCost: -1})
	var evals atomic.Int64
	r1, out, err := c.GetOrEval(typeCQ("x", 10, 20), "", constCost(1000), nil, evalN(&evals, "x", 3))
	if err != nil || out.Hit || !out.Stored {
		t.Fatalf("first call: out=%+v err=%v", out, err)
	}
	if r1.Len() != 3 {
		t.Fatalf("first result rows = %d", r1.Len())
	}
	// Same fragment spelled with a different head variable: must hit and
	// come back renamed.
	r2, out, err := c.GetOrEval(typeCQ("z", 10, 20), "", constCost(1000), nil, evalN(&evals, "z", 3))
	if err != nil || !out.Hit {
		t.Fatalf("second call: out=%+v err=%v", out, err)
	}
	if len(r2.Vars) != 1 || r2.Vars[0] != "z" {
		t.Fatalf("hit vars = %v, want [z]", r2.Vars)
	}
	if evals.Load() != 1 {
		t.Fatalf("evals = %d, want 1", evals.Load())
	}
	// Mutating the returned view must not reach the cached copy.
	r2.Append([]dict.ID{99})
	r3, out, err := c.GetOrEval(typeCQ("y", 10, 20), "", constCost(1000), nil, evalN(&evals, "y", 3))
	if err != nil || !out.Hit {
		t.Fatalf("third call: out=%+v err=%v", out, err)
	}
	if r3.Len() != 3 {
		t.Fatalf("cached copy corrupted: rows = %d, want 3", r3.Len())
	}
}

func TestCostAdmissionBypass(t *testing.T) {
	m := metrics.NewRegistry()
	c := New(Config{MinCost: 100, Metrics: m})
	var evals atomic.Int64
	for i := 0; i < 2; i++ {
		_, out, err := c.GetOrEval(typeCQ("x", 10, 20), "", constCost(5), nil, evalN(&evals, "x", 3))
		if err != nil {
			t.Fatal(err)
		}
		if out.Hit || out.Shared || out.Stored {
			t.Fatalf("cheap fragment interacted with cache: %+v", out)
		}
	}
	if evals.Load() != 2 || c.Len() != 0 {
		t.Fatalf("evals=%d len=%d, want 2 evals and empty cache", evals.Load(), c.Len())
	}
	if m.Counter("viewcache.bypass").Value() != 2 {
		t.Fatalf("bypass counter = %d", m.Counter("viewcache.bypass").Value())
	}
	// Unknown cost (negative) is admitted.
	_, out, err := c.GetOrEval(typeCQ("x", 10, 20), "", constCost(-1), nil, evalN(&evals, "x", 3))
	if err != nil || !out.Stored {
		t.Fatalf("unknown-cost fragment not admitted: %+v err=%v", out, err)
	}
}

// TestHitSkipsCostEstimation pins the lazy-admission contract: estimating a
// large reformulation costs real time, so the estimator must run on the
// first miss only — never on a hit.
func TestHitSkipsCostEstimation(t *testing.T) {
	c := New(Config{MinCost: 1})
	var evals, estimates atomic.Int64
	counting := func() float64 { estimates.Add(1); return 1000 }
	q := typeCQ("x", 10, 20)
	if _, out, err := c.GetOrEval(q, "", counting, nil, evalN(&evals, "x", 3)); err != nil || !out.Stored {
		t.Fatalf("miss not stored: %+v err=%v", out, err)
	}
	if estimates.Load() != 1 {
		t.Fatalf("miss ran estimator %d times, want 1", estimates.Load())
	}
	for i := 0; i < 3; i++ {
		if _, out, err := c.GetOrEval(q, "", counting, nil, evalN(&evals, "x", 3)); err != nil || !out.Hit {
			t.Fatalf("expected hit: %+v err=%v", out, err)
		}
	}
	if estimates.Load() != 1 {
		t.Fatalf("hits ran the estimator (%d calls total, want 1)", estimates.Load())
	}
	// A nil estimator means unknown cost and is admitted, not dereferenced.
	if _, out, err := c.GetOrEval(typeCQ("x", 10, 21), "", nil, nil, evalN(&evals, "x", 3)); err != nil || !out.Stored {
		t.Fatalf("nil-estimator fragment not admitted: %+v err=%v", out, err)
	}
}

// TestPrecomputedKey pins the key fast path: a caller holding a reused plan
// passes Signature(q) precomputed, and lookups keyed either way land on the
// same entry; malformed keys fall back to deriving the signature.
func TestPrecomputedKey(t *testing.T) {
	c := New(Config{MinCost: -1})
	var evals atomic.Int64
	q := typeCQ("x", 10, 20)
	sig := Signature(q)
	if _, out, err := c.GetOrEval(q, sig, constCost(1000), nil, evalN(&evals, "x", 3)); err != nil || !out.Stored {
		t.Fatalf("keyed miss not stored: %+v err=%v", out, err)
	}
	// Derived-key lookup of the same fragment must hit the keyed entry.
	if _, out, err := c.GetOrEval(q, "", constCost(1000), nil, evalN(&evals, "x", 3)); err != nil || !out.Hit {
		t.Fatalf("derived-key lookup missed keyed entry: %+v err=%v", out, err)
	}
	// Keyed lookup of an alpha-renamed spelling must hit too.
	if r, out, err := c.GetOrEval(typeCQ("z", 10, 20), sig, constCost(1000), nil, evalN(&evals, "z", 3)); err != nil || !out.Hit || r.Vars[0] != "z" {
		t.Fatalf("keyed renamed lookup: %+v err=%v", out, err)
	}
	// A malformed (non-signature-length) key is ignored, not trusted.
	if _, out, err := c.GetOrEval(q, "bogus", constCost(1000), nil, evalN(&evals, "x", 3)); err != nil || !out.Hit {
		t.Fatalf("malformed key not rederived: %+v err=%v", out, err)
	}
	if evals.Load() != 1 {
		t.Fatalf("evals = %d, want 1", evals.Load())
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	m := metrics.NewRegistry()
	c := New(Config{Shards: 1, MaxBytes: 1 << 20, MaxEntryBytes: 100, MinCost: -1, Metrics: m})
	var evals atomic.Int64
	// 100 rows × 4 bytes ≫ 100-byte cap.
	_, out, err := c.GetOrEval(typeCQ("x", 10, 20), "", constCost(1000), nil, evalN(&evals, "x", 100))
	if err != nil || out.Stored {
		t.Fatalf("oversized entry admitted: %+v err=%v", out, err)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("len=%d bytes=%d after rejection", c.Len(), c.Bytes())
	}
	if m.Counter("viewcache.reject").Value() != 1 {
		t.Fatalf("reject counter = %d", m.Counter("viewcache.reject").Value())
	}
}

func TestLRUEviction(t *testing.T) {
	m := metrics.NewRegistry()
	// One shard, room for roughly three 10-row entries (121 bytes each).
	c := New(Config{Shards: 1, MaxBytes: 400, MaxEntryBytes: 200, MinCost: -1, Metrics: m})
	var evals atomic.Int64
	for i := 0; i < 4; i++ {
		_, out, err := c.GetOrEval(typeCQ("x", 10, dict.ID(100+i)), "", constCost(1000), nil, evalN(&evals, "x", 10))
		if err != nil || !out.Stored {
			t.Fatalf("entry %d not stored: %+v err=%v", i, out, err)
		}
	}
	if m.Counter("viewcache.evict").Value() == 0 {
		t.Fatalf("no evictions under budget pressure")
	}
	if c.Bytes() > 400 {
		t.Fatalf("resident bytes %d exceed budget", c.Bytes())
	}
	// The least recently used fragment (i=0) must be gone: re-requesting it
	// evaluates again; the most recent (i=3) must still hit.
	before := evals.Load()
	_, out, _ := c.GetOrEval(typeCQ("x", 10, 103), "", constCost(1000), nil, evalN(&evals, "x", 10))
	if !out.Hit {
		t.Fatalf("most recent entry evicted: %+v", out)
	}
	_, out, _ = c.GetOrEval(typeCQ("x", 10, 100), "", constCost(1000), nil, evalN(&evals, "x", 10))
	if out.Hit {
		t.Fatalf("least recent entry survived eviction")
	}
	if evals.Load() != before+1 {
		t.Fatalf("evals = %d, want %d", evals.Load(), before+1)
	}
	if m.Gauge("viewcache.bytes").Value() != c.Bytes() || m.Gauge("viewcache.entries").Value() != int64(c.Len()) {
		t.Fatalf("gauges out of sync with cache state")
	}
}

func TestInvalidateDropsEntriesAndBumpsGeneration(t *testing.T) {
	c := New(Config{MinCost: -1})
	var evals atomic.Int64
	q := typeCQ("x", 10, 20)
	if _, out, _ := c.GetOrEval(q, "", constCost(1000), nil, evalN(&evals, "x", 3)); !out.Stored {
		t.Fatalf("not stored: %+v", out)
	}
	g := c.gen.Load()
	if got := c.Invalidate(); got != g+1 || c.gen.Load() != g+1 {
		t.Fatalf("generation %d (returned %d), want %d", c.gen.Load(), got, g+1)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("entries survived Invalidate: len=%d bytes=%d", c.Len(), c.Bytes())
	}
	if _, out, _ := c.GetOrEval(q, "", constCost(1000), nil, evalN(&evals, "x", 3)); out.Hit {
		t.Fatalf("hit after Invalidate")
	}
	if evals.Load() != 2 {
		t.Fatalf("evals = %d, want 2", evals.Load())
	}
}

func TestMidFlightInvalidationNotStored(t *testing.T) {
	c := New(Config{MinCost: -1})
	q := typeCQ("x", 10, 20)
	// The update lands while the evaluation is in progress: the result
	// describes the pre-update database and must not be admitted.
	_, out, err := c.GetOrEval(q, "", constCost(1000), nil, func() (*exec.Relation, error) {
		c.Invalidate()
		return rel("x", 3), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stored {
		t.Fatalf("stale result admitted: %+v", out)
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry resident after mid-flight invalidation")
	}
}

// A reader answers only from its own generation (At): a reader of an older
// version neither sees a newer version's entry, nor drops it, nor leaves an
// entry of its own; the newer reader keeps its entry and never sees what the
// older one evaluated.
func TestReaderSeesOnlyItsGeneration(t *testing.T) {
	c := New(Config{MinCost: -1})
	q := typeCQ("x", 10, 20)
	var evals atomic.Int64
	get := func(fc exec.FragmentCache, n int) (*exec.Relation, exec.CacheOutcome) {
		t.Helper()
		r, out, err := fc.GetOrEval(q, "", constCost(1000), nil, evalN(&evals, "x", n))
		if err != nil {
			t.Fatal(err)
		}
		return r, out
	}

	older := c.At(0)
	newer := c.At(c.Invalidate())
	if _, out := get(newer, 2); !out.Stored {
		t.Fatalf("newer reader's fill not stored: %+v", out)
	}
	if r, out := get(older, 1); out.Hit || out.Stored || r.Len() != 1 {
		t.Fatalf("older reader got %d rows (%+v), want its own 1, evaluated and not stored", r.Len(), out)
	}
	if r, out := get(newer, 2); !out.Hit || r.Len() != 2 {
		t.Fatalf("newer reader got %d rows (%+v), want its resident 2", r.Len(), out)
	}

	// The older reader first, after the newer version is published.
	older, newer = newer, c.At(c.Invalidate())
	if r, out := get(older, 2); out.Stored || r.Len() != 2 {
		t.Fatalf("older reader got %d rows (%+v), want its own 2, not stored", r.Len(), out)
	}
	if r, out := get(newer, 3); out.Hit || r.Len() != 3 {
		t.Fatalf("newer reader got %d rows (%+v), want its own 3", r.Len(), out)
	}
	if evals.Load() != 4 {
		t.Fatalf("evals = %d, want 4", evals.Load())
	}
}

func TestSingleflightExactlyOneEval(t *testing.T) {
	m := metrics.NewRegistry()
	c := New(Config{MinCost: -1, Metrics: m})
	q := typeCQ("x", 10, 20)
	const n = 8
	var evals atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*exec.Relation, n)
	outcomes := make([]exec.CacheOutcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, out, err := c.GetOrEval(q, "", constCost(1000), nil, func() (*exec.Relation, error) {
				evals.Add(1)
				close(started)
				<-release
				return rel("x", 5), nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			results[i], outcomes[i] = r, out
		}(i)
	}
	<-started
	// Give the other goroutines a moment to join the flight, then let the
	// leader finish.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if evals.Load() != 1 {
		t.Fatalf("evals = %d, want exactly 1", evals.Load())
	}
	want := rel("x", 5)
	for i, r := range results {
		if r == nil || !r.Equal(want) {
			t.Fatalf("goroutine %d got wrong relation", i)
		}
	}
	shared := 0
	for _, out := range outcomes {
		if out.Shared {
			shared++
		}
	}
	if got := m.Counter("viewcache.singleflight_shared").Value(); got != int64(shared) || shared == 0 {
		t.Fatalf("singleflight_shared counter=%d, outcomes=%d", got, shared)
	}
}

func TestWaiterUnblocksOnStopError(t *testing.T) {
	c := New(Config{MinCost: -1})
	q := typeCQ("x", 10, 20)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, _ = c.GetOrEval(q, "", constCost(1000), nil, func() (*exec.Relation, error) {
			close(started)
			<-release
			return rel("x", 3), nil
		})
	}()
	<-started
	stopErr := errors.New("caller canceled")
	var stopped atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrEval(q, "", constCost(1000), func() error {
			if stopped.Load() {
				return stopErr
			}
			return nil
		}, func() (*exec.Relation, error) { return rel("x", 3), nil })
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	stopped.Store(true)
	select {
	case err := <-done:
		if !errors.Is(err, stopErr) {
			t.Fatalf("waiter returned %v, want stop error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("waiter did not unblock on stop error")
	}
	close(release)
}

func TestLeaderErrorWaiterFallsBack(t *testing.T) {
	c := New(Config{MinCost: -1})
	q := typeCQ("x", 10, 20)
	release := make(chan struct{})
	started := make(chan struct{})
	boom := errors.New("leader budget exceeded")
	go func() {
		_, _, _ = c.GetOrEval(q, "", constCost(1000), nil, func() (*exec.Relation, error) {
			close(started)
			<-release
			return nil, boom
		})
	}()
	<-started
	done := make(chan struct{})
	var got *exec.Relation
	go func() {
		defer close(done)
		r, _, err := c.GetOrEval(q, "", constCost(1000), nil, func() (*exec.Relation, error) {
			return rel("x", 3), nil
		})
		if err != nil {
			t.Errorf("waiter fallback failed: %v", err)
			return
		}
		got = r
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("waiter did not fall back after leader error")
	}
	if got == nil || got.Len() != 3 {
		t.Fatalf("waiter fallback result wrong: %v", got)
	}
}

func TestConcurrentMixedWorkloadRace(t *testing.T) {
	c := New(Config{Shards: 4, MaxBytes: 1 << 16, MinCost: -1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := typeCQ("x", 10, dict.ID(100+i%16))
				if g == 0 && i%25 == 0 {
					c.Invalidate()
					continue
				}
				r, _, err := c.GetOrEval(q, "", constCost(1000), nil, func() (*exec.Relation, error) {
					return rel("x", i%7+1), nil
				})
				if err != nil {
					t.Errorf("GetOrEval: %v", err)
					return
				}
				_ = r.Len()
			}
		}(g)
	}
	wg.Wait()
}

func TestSignatureDistributesAcrossShards(t *testing.T) {
	c := New(Config{Shards: 8, MinCost: -1})
	hit := map[*shard]bool{}
	for i := 0; i < 64; i++ {
		hit[c.shard(Signature(typeCQ("x", 10, dict.ID(i))))] = true
	}
	if len(hit) < 4 {
		t.Fatalf("signatures landed on only %d/8 shards", len(hit))
	}
}

func TestMetricsCounters(t *testing.T) {
	m := metrics.NewRegistry()
	c := New(Config{MinCost: -1, Metrics: m})
	q := typeCQ("x", 10, 20)
	var evals atomic.Int64
	for i := 0; i < 3; i++ {
		if _, _, err := c.GetOrEval(q, "", constCost(1000), nil, evalN(&evals, "x", 2)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Counter("viewcache.miss").Value() != 1 {
		t.Fatalf("miss = %d, want 1", m.Counter("viewcache.miss").Value())
	}
	if m.Counter("viewcache.hit").Value() != 2 {
		t.Fatalf("hit = %d, want 2", m.Counter("viewcache.hit").Value())
	}
	if m.Gauge("viewcache.entries").Value() != 1 {
		t.Fatalf("entries gauge = %d", m.Gauge("viewcache.entries").Value())
	}
	if fmt.Sprintf("%d", m.Gauge("viewcache.bytes").Value()) == "0" {
		t.Fatalf("bytes gauge is zero with a resident entry")
	}
}

// A bound fragment's key is its shape's signature hashed with the values in
// its slots: a key per binding, the same key for the same binding, the plain
// signature for a fragment with no slot — and always a key GetOrEval takes
// as given.
func TestBoundSignature(t *testing.T) {
	sig := Signature(query.NewCQ([]string{"x"}, []query.Atom{{S: query.Variable("x"), P: query.Constant(7), O: query.Param(1)}}))
	params := []dict.ID{11, 12, 13}
	if got := BoundSignature(sig, params, nil); got != sig {
		t.Fatal("a fragment without slots must keep its signature")
	}
	a, b := BoundSignature(sig, params, []int{1}), BoundSignature(sig, []dict.ID{11, 99, 13}, []int{1})
	if a == sig || a == b || len(a) != len(sig) {
		t.Fatalf("bound keys %x and %x of signature %x", a, b, sig)
	}
	if again := BoundSignature(sig, []dict.ID{0, 12}, []int{1}); again != a {
		t.Fatal("only the values in the fragment's slots may enter its key")
	}
}
