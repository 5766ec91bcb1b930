package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/durable/columnar"
	"repro/internal/metrics"
)

// On-disk WAL layout: numbered segment files in the data directory,
//
//	wal-00000001.seg
//	wal-00000002.seg   <- active (highest number)
//
// each a sequence of framed records:
//
//	record := payloadLen(uvarint) payload crc32c(4 bytes LE, over payload)
//
// A crash mid-append leaves a torn record at the tail of the last
// segment; the replayer tolerates exactly that (complete prefix wins,
// like the journal reader). Opening the WAL always starts a *new*
// segment, so a recovered torn tail is never appended after — interior
// corruption stays impossible by construction and is a hard error when
// seen.
const (
	walSegPrefix = "wal-"
	walSegSuffix = ".seg"

	// maxWALRecordBytes bounds one record (256 MiB): a corrupt length
	// varint must not drive allocation.
	maxWALRecordBytes = 256 << 20
)

var walCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncMode selects when appended records are fsynced.
type SyncMode int

const (
	// SyncAlways fsyncs every group-committed batch before acknowledging
	// the appends in it: an acknowledged write survives kill -9.
	SyncAlways SyncMode = iota
	// SyncInterval acknowledges after the buffered write and fsyncs on a
	// timer (100ms): bounded loss window, much higher throughput.
	SyncInterval
	// SyncNone never fsyncs; durability is whatever the OS page cache
	// grants. For bulk loads that end in a checkpoint.
	SyncNone
)

// ParseSyncMode maps the -wal-sync flag values.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("durable: unknown sync mode %q (want always, interval or none)", s)
	}
}

func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "none"
	}
}

// syncEvery is the fsync cadence under SyncInterval.
const syncEvery = 100 * time.Millisecond

// WALOptions configures OpenWAL.
type WALOptions struct {
	// Mode is the fsync policy (default SyncAlways).
	Mode SyncMode
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 64 MiB).
	SegmentBytes int64
	// Metrics, when non-nil, receives the wal.* instrument family.
	Metrics *metrics.Registry
}

// WAL is the write-ahead log. Appends from concurrent writers are group
// committed: each caller stages its encoded record and blocks while a
// single flusher goroutine writes and fsyncs the whole batch — N writers
// under load amortize to one fsync.
type WAL struct {
	dir      string
	mode     SyncMode
	segLimit int64
	m        *metrics.Registry

	// mu guards the staging state shared between appenders and the
	// flusher. File I/O happens outside mu, in the flusher goroutine
	// only, so appends can stage while an fsync is in flight.
	mu      sync.Mutex
	pending []byte
	nStaged int
	waiters []chan error
	rotates []chan rotateResult
	closed  bool

	// Flusher-owned; no lock.
	f        *os.File
	seg      int
	size     int64
	unsynced bool

	flushC chan struct{}
	stopC  chan struct{}
	doneC  chan struct{}
}

type rotateResult struct {
	seg int
	err error
}

// OpenWAL opens (or creates) the WAL in dir and starts the flusher. A new
// segment numbered one past the highest existing segment is created
// immediately; recovered segments are never appended to.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := walSegments(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	w := &WAL{
		dir:      dir,
		mode:     opts.Mode,
		segLimit: opts.SegmentBytes,
		m:        opts.Metrics,
		seg:      next,
		flushC:   make(chan struct{}, 1),
		stopC:    make(chan struct{}),
		doneC:    make(chan struct{}),
	}
	if err := w.openSegment(next); err != nil {
		return nil, err
	}
	go w.flusher()
	return w, nil
}

// walSegments lists segment numbers in dir, ascending.
func walSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, walSegPrefix) || !strings.HasSuffix(name, walSegSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, walSegPrefix), walSegSuffix))
		if err != nil || n <= 0 {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

func walSegPath(dir string, seg int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", walSegPrefix, seg, walSegSuffix))
}

// openSegment creates the segment file and durably records its directory
// entry. Flusher-side only (and once from OpenWAL before the flusher
// starts).
func (w *WAL) openSegment(seg int) error {
	f, err := os.OpenFile(walSegPath(w.dir, seg), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := columnar.SyncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.size = f, 0
	w.mu.Lock()
	w.seg = seg
	w.mu.Unlock()
	w.m.Gauge("wal.segment").Set(int64(seg))
	w.m.Gauge("wal.bytes").Set(0)
	return nil
}

// Append logs one record and blocks until it is acknowledged per the sync
// mode: under SyncAlways that means the batch containing it has been
// fsynced. Safe for concurrent use; concurrent appends share a flush.
func (w *WAL) Append(rec Record) error { return <-w.AppendAsync(rec) }

// AppendAsync stages one record for the next group commit and returns
// the acknowledgment channel (buffered: the flusher never blocks on it).
// Staging order is the on-disk order — callers that must serialize log
// order against in-memory apply order stage under their own lock and
// wait for the acknowledgment after releasing it.
func (w *WAL) AppendAsync(rec Record) <-chan error {
	payload := encodeRecordPayload(nil, rec)
	var frame []byte
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = append(frame, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, walCastagnoli))
	frame = append(frame, crc[:]...)

	ch := make(chan error, 1)
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		ch <- fmt.Errorf("durable: wal is closed")
		return ch
	}
	w.pending = append(w.pending, frame...)
	w.nStaged++
	w.waiters = append(w.waiters, ch)
	w.mu.Unlock()
	w.kick()
	return ch
}

// kick wakes the flusher; a full signal buffer means a wake-up is already
// due, and the flusher drains all staged work each pass.
func (w *WAL) kick() {
	select {
	case w.flushC <- struct{}{}:
	default:
	}
}

// Rotate closes the active segment (fsyncing it first) and opens the
// next, returning the new segment's number: records appended after Rotate
// returns land in a segment >= that number. The checkpoint protocol uses
// this as its cut point.
func (w *WAL) Rotate() (int, error) {
	ch := make(chan rotateResult, 1)
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, fmt.Errorf("durable: wal is closed")
	}
	w.rotates = append(w.rotates, ch)
	w.mu.Unlock()
	w.kick()
	res := <-ch
	return res.seg, res.err
}

// Close flushes staged records, fsyncs and closes the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.doneC
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.stopC)
	<-w.doneC
	return nil
}

// flusher is the only goroutine touching the segment file. Each pass
// takes everything staged since the last pass — that batching is the
// group commit.
func (w *WAL) flusher() {
	defer close(w.doneC)
	var timer *time.Timer
	var timerC <-chan time.Time
	for {
		if w.mode == SyncInterval && w.unsynced && timerC == nil {
			timer = time.NewTimer(syncEvery)
			timerC = timer.C
		}
		select {
		case <-w.flushC:
			w.flushOnce()
		case <-timerC:
			timerC = nil
			w.syncNow()
		case <-w.stopC:
			w.flushOnce()
			if w.mode != SyncNone {
				w.syncNow()
			}
			w.f.Close()
			if timer != nil {
				timer.Stop()
			}
			return
		}
	}
}

// flushOnce writes one staged batch and acknowledges its waiters, then
// serves rotation requests, then rotates itself if the segment outgrew
// the limit.
func (w *WAL) flushOnce() {
	w.mu.Lock()
	batch := w.pending
	waiters := w.waiters
	rotates := w.rotates
	n := w.nStaged
	w.pending = nil
	w.waiters = nil
	w.rotates = nil
	w.nStaged = 0
	w.mu.Unlock()

	if len(batch) > 0 {
		err := w.writeBatch(batch, n)
		for _, ch := range waiters {
			ch <- err
		}
	}
	for _, ch := range rotates {
		seg, err := w.rotate()
		ch <- rotateResult{seg: seg, err: err}
	}
	if w.size >= w.segLimit {
		if _, err := w.rotate(); err != nil {
			w.m.Counter("wal.rotate_errors").Inc()
		}
	}
}

func (w *WAL) writeBatch(batch []byte, n int) error {
	if _, err := w.f.Write(batch); err != nil {
		w.m.Counter("wal.write_errors").Inc()
		return fmt.Errorf("durable: wal write: %w", err)
	}
	w.size += int64(len(batch))
	w.unsynced = true
	w.m.Counter("wal.records").Add(int64(n))
	w.m.Counter("wal.batches").Inc()
	w.m.Gauge("wal.bytes").Set(w.size)
	if w.mode == SyncAlways {
		return w.syncNow()
	}
	return nil
}

func (w *WAL) syncNow() error {
	if !w.unsynced {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.m.Counter("wal.sync_errors").Inc()
		return fmt.Errorf("durable: wal fsync: %w", err)
	}
	w.unsynced = false
	w.m.Counter("wal.fsyncs").Inc()
	return nil
}

// rotate finishes the active segment durably and opens the next.
func (w *WAL) rotate() (int, error) {
	if w.mode != SyncNone {
		if err := w.syncNow(); err != nil {
			return 0, err
		}
	}
	if err := w.f.Close(); err != nil {
		return 0, err
	}
	if err := w.openSegment(w.seg + 1); err != nil {
		return 0, fmt.Errorf("durable: wal rotate: %w", err)
	}
	w.unsynced = false
	w.m.Counter("wal.rotations").Inc()
	return w.seg, nil
}

// ActiveSegment returns the number of the segment new appends land in (or
// later, if a rotation intervenes).
func (w *WAL) ActiveSegment() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seg
}
