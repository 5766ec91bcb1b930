package durable

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }

func rec(op Op, n int, tag string) Record {
	r := Record{Op: op}
	for i := 0; i < n; i++ {
		r.Triples = append(r.Triples, rdf.Triple{
			S: iri(fmt.Sprintf("%s-s%d", tag, i)),
			P: iri("p"),
			O: rdf.NewLangLiteral("v"+tag, "en"),
		})
	}
	return r
}

func replayAll(t *testing.T, dir string, from int) ([]Record, ReplayStats) {
	t.Helper()
	var got []Record
	stats, err := ReplayWAL(dir, from, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	return got, stats
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		rec(OpInsert, 3, "a"),
		rec(OpDelete, 1, "b"),
		rec(OpSchema, 2, "c"),
	}
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := replayAll(t, dir, 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
	if stats.TornTail {
		t.Fatal("clean log reported torn tail")
	}
}

// TestWALGroupCommitConcurrent hammers Append from many goroutines; every
// acknowledged record must replay, order within the log must be a valid
// serialization (we only check the multiset here — order across goroutines
// is not defined).
func TestWALGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				if err := w.Append(rec(OpInsert, 1, fmt.Sprintf("w%d-%d", i, k))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir, 1)
	if len(got) != writers*per {
		t.Fatalf("replayed %d records, want %d", len(got), writers*per)
	}
	seen := map[string]bool{}
	for _, r := range got {
		seen[r.Triples[0].S.Value] = true
	}
	if len(seen) != writers*per {
		t.Fatalf("replay lost records: %d distinct of %d", len(seen), writers*per)
	}
}

func TestWALTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(rec(OpInsert, 2, fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := walSegPath(dir, 1)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail at every offset inside the final record's frame: the
	// first four records must always survive.
	for cut := len(full) - 1; cut > len(full)-20; cut-- {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, stats := replayAll(t, dir, 1)
		if len(got) < 4 {
			t.Fatalf("cut %d: torn tail destroyed complete records (%d survive)", cut, len(got))
		}
		if len(got) == 4 && !stats.TornTail {
			t.Fatalf("cut %d: tear not reported", cut)
		}
	}
}

// TestWALInteriorCorruptionIsHardError flips a byte in the middle of the
// first record while more records follow: that is corruption of
// acknowledged history, never a tolerable tear.
func TestWALInteriorCorruptionIsHardError(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(rec(OpInsert, 2, fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := walSegPath(dir, 1)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), full...)
	mut[10] ^= 0x40
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayWAL(dir, 1, func(Record) error { return nil }); err == nil {
		t.Fatal("interior corruption replayed without error")
	}
}

// TestWALInteriorSegmentTearIsHardError: a torn tail is only legal on the
// last segment. The same truncation on an earlier segment is a hard error.
func TestWALInteriorSegmentTearIsHardError(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec(OpInsert, 2, "seg1")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec(OpInsert, 2, "seg2")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := walSegPath(dir, 1)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayWAL(dir, 1, func(Record) error { return nil }); err == nil {
		t.Fatal("interior segment tear replayed without error")
	}
}

func TestWALRotationAndFrom(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec(OpInsert, 1, "old")); err != nil {
		t.Fatal(err)
	}
	cut, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if cut != 2 {
		t.Fatalf("cut segment %d, want 2", cut)
	}
	if err := w.Append(rec(OpInsert, 1, "new")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir, cut)
	if len(got) != 1 || got[0].Triples[0].S.Value != iri("new-s0").Value {
		t.Fatalf("replay from cut returned %+v", got)
	}
	all, _ := replayAll(t, dir, 1)
	if len(all) != 2 {
		t.Fatalf("full replay returned %d records, want 2", len(all))
	}
}

// TestWALReopenStartsFreshSegment: opening over an existing directory must
// never append to a recovered segment — a prior torn tail stays at a
// segment end where the replayer tolerates it.
func TestWALReopenStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec(OpInsert, 1, "first")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.ActiveSegment(); got != 2 {
		t.Fatalf("reopen landed on segment %d, want 2", got)
	}
	if err := w2.Append(rec(OpInsert, 1, "second")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir, 1)
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want 2", len(got))
	}
}

func TestWALSegmentSizeRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncNone, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := w.Append(rec(OpInsert, 3, fmt.Sprintf("big%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := walSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected size-based rotation, got %d segments", len(segs))
	}
	got, _ := replayAll(t, dir, 1)
	if len(got) != 20 {
		t.Fatalf("replayed %d records across segments, want 20", len(got))
	}
}

func TestRecordPayloadCorruptionRejected(t *testing.T) {
	payload := encodeRecordPayload(nil, rec(OpInsert, 2, "x"))
	if _, err := decodeRecordPayload(payload); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decodeRecordPayload(payload[:cut]); err == nil {
			t.Fatalf("truncated payload (%d of %d bytes) accepted", cut, len(payload))
		}
	}
	if _, err := decodeRecordPayload(append(payload, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	bad := append([]byte(nil), payload...)
	bad[0] = 99
	if _, err := decodeRecordPayload(bad); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// FuzzWALRecord: a record payload is bytes read back from disk, so the
// decoder must answer any of them with a record or an error — never a
// panic — allocate within a bound of the input's size, and decode the
// re-encoding of any record it accepts to the same record.
func FuzzWALRecord(f *testing.F) {
	for _, r := range []Record{rec(OpInsert, 2, "i"), rec(OpDelete, 1, "d"), rec(OpSchema, 0, "s")} {
		f.Add(encodeRecordPayload(nil, r))
	}
	both := Record{Op: OpInsert, Triples: []rdf.Triple{{S: iri("s"), P: iri("p"),
		O: rdf.Term{Kind: rdf.Literal, Value: "v", Datatype: "http://www.w3.org/2001/XMLSchema#string", Lang: "en"}}}}
	f.Add(encodeRecordPayload(nil, both))
	whole := encodeRecordPayload(nil, rec(OpInsert, 3, "t"))
	f.Add(whole[:len(whole)/2])
	tripleSize := uint64(reflect.TypeOf(rdf.Triple{}).Size())
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			got    Record
			err    error
			before runtime.MemStats
			after  runtime.MemStats
			grew   = ^uint64(0)
		)
		// The least of three decodes: the fuzzing engine's own goroutines
		// allocate meanwhile, now and then.
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&before)
			got, err = decodeRecordPayload(data)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		// The triple slice, the strings copied out of data, and slack for
		// error text.
		if limit := uint64(len(data))/minTripleBytes*tripleSize + uint64(len(data)) + 4<<10; grew > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes, over %d", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		again, err := decodeRecordPayload(encodeRecordPayload(nil, got))
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip changed the record:\n%+v\n%+v", got, again)
		}
	})
}

func TestParseSyncMode(t *testing.T) {
	for s, want := range map[string]SyncMode{"always": SyncAlways, "interval": SyncInterval, "none": SyncNone} {
		got, err := ParseSyncMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseSyncMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

func TestWALIntervalModeFlushes(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec(OpInsert, 1, "i")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(walSegPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("http://example.org/i-s0")) {
		t.Fatal("interval-mode append not written on close")
	}
}
