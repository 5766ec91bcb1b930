package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/durable/columnar"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rdf"
	"repro/internal/trace"
)

// manifestName is the data directory's root pointer. It is rewritten
// atomically (temp + rename) at every checkpoint; a crash at any point
// leaves either the old manifest (old snapshot + longer WAL replay) or
// the new one — both recover to the same state, because replaying
// already-applied records is idempotent.
const manifestName = "MANIFEST.json"

// Manifest is the durable root: which snapshot to load and the first WAL
// segment to replay on top of it.
type Manifest struct {
	// Snapshot is the snapshot file name inside the data directory;
	// empty means no snapshot yet (recovery starts from an empty graph).
	Snapshot string `json:"snapshot"`
	// WALFrom is the lowest WAL segment number still needed; segments
	// below it were captured by the snapshot and may be pruned.
	WALFrom int `json:"walFrom"`
}

// Applier receives replayed WAL records. *engine.Engine satisfies it —
// the interface exists so this package need not import the engine.
type Applier interface {
	InsertData(ts []rdf.Triple) error
	DeleteData(ts []rdf.Triple) (int, error)
	UpdateSchema(add []rdf.Triple) error
}

// Options configures Open.
type Options struct {
	// SyncMode is the WAL fsync policy.
	SyncMode SyncMode
	// SegmentBytes is the WAL rotation threshold (default 64 MiB).
	SegmentBytes int64
	// CheckpointBytes triggers an automatic checkpoint once this many
	// bytes accumulate in the WAL since the last one. <= 0 disables
	// automatic checkpoints (explicit /v1/admin/checkpoint still works).
	CheckpointBytes int64
	// Metrics, when non-nil, receives the wal.* and recovery.* families.
	Metrics *metrics.Registry
}

// Manager ties the pieces together: it owns the data directory layout
// (manifest + snapshot + WAL segments), runs recovery at boot, appends to
// the WAL during serving, and checkpoints.
//
// Locking: Manager.mu only guards the manifest and the appended-bytes
// accounting; it is never held across I/O. Snapshot consistency during a
// checkpoint is the caller's job — the HTTP layer holds its state lock in
// read mode so queries proceed while updates pause.
type Manager struct {
	dir             string
	wal             *WAL
	m               *metrics.Registry
	checkpointBytes int64

	mu            sync.Mutex
	manifest      Manifest
	appended      int64
	checkpointing bool
}

// ErrLegacyManifest refuses a data directory checkpointed in the
// base-plus-shards layout: a manifest listing data-only snapshot files
// under "shards" next to a base file that holds no data. That layout is no
// longer read; a build that writes single-file checkpoints and still reads
// it must checkpoint the directory first.
var ErrLegacyManifest = errors.New("durable: manifest lists base-plus-shards snapshot files, a layout no longer read: checkpoint the directory with a build that writes single-file checkpoints and still reads it")

// Open prepares the data directory: reads the manifest (or initializes a
// fresh one) and opens the WAL on a new segment. It does NOT load the
// graph — call LoadGraph then Replay, so the caller controls where the
// replayed records apply. A legacy manifest is ErrLegacyManifest, returned
// before anything in the directory is written.
func Open(dir string, opts Options) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man := Manifest{WALFrom: 1}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		// Without this check the base file would load as the whole graph,
		// data-less.
		onDisk := struct {
			*Manifest
			Shards []string `json:"shards"`
		}{Manifest: &man}
		if err := json.Unmarshal(raw, &onDisk); err != nil {
			return nil, fmt.Errorf("durable: manifest corrupt: %w", err)
		}
		if len(onDisk.Shards) > 0 {
			return nil, fmt.Errorf("%w (%s)", ErrLegacyManifest, filepath.Join(dir, manifestName))
		}
		if man.WALFrom < 1 {
			man.WALFrom = 1
		}
	case os.IsNotExist(err):
		// Fresh directory: empty manifest, replay whatever segments exist.
	default:
		return nil, err
	}
	w, err := OpenWAL(dir, WALOptions{
		Mode:         opts.SyncMode,
		SegmentBytes: opts.SegmentBytes,
		Metrics:      opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return &Manager{
		dir:             dir,
		wal:             w,
		m:               opts.Metrics,
		checkpointBytes: opts.CheckpointBytes,
		manifest:        man,
	}, nil
}

// LoadGraph loads the manifest's snapshot (an empty graph when none
// exists yet). The snapshot's columnar sections decode with per-column
// parallelism inside graph.LoadSnapshot.
func (mgr *Manager) LoadGraph(tr *trace.Tracer) (*graph.Graph, error) {
	man := mgr.CurrentManifest()
	span := tr.StartSpan("recovery.load_snapshot")
	defer span.End()
	start := time.Now()
	if man.Snapshot == "" {
		span.SetStr("snapshot", "none")
		return graph.ParseString("")
	}
	g, err := graph.LoadSnapshot(filepath.Join(mgr.dir, man.Snapshot))
	if err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: %w", man.Snapshot, err)
	}
	span.SetStr("snapshot", man.Snapshot)
	span.SetInt("triples", int64(g.DataCount()))
	mgr.m.Counter("recovery.snapshots_loaded").Inc()
	mgr.m.Gauge("recovery.snapshot_ms").Set(time.Since(start).Milliseconds())
	return g, nil
}

// Replay feeds the WAL tail (segments >= the manifest's WALFrom) through
// the applier, in append order. Call after LoadGraph, with an applier
// built over the loaded graph; after it returns, re-fetch the graph from
// the applier — a replayed schema update rebuilds it.
func (mgr *Manager) Replay(apply Applier, tr *trace.Tracer) (ReplayStats, error) {
	mgr.mu.Lock()
	from := mgr.manifest.WALFrom
	mgr.mu.Unlock()
	span := tr.StartSpan("recovery.replay_wal")
	defer span.End()
	start := time.Now()
	stats, err := ReplayWAL(mgr.dir, from, func(rec Record) error {
		switch rec.Op {
		case OpInsert:
			return apply.InsertData(rec.Triples)
		case OpDelete:
			_, derr := apply.DeleteData(rec.Triples)
			return derr
		case OpSchema:
			return apply.UpdateSchema(rec.Triples)
		default:
			return fmt.Errorf("durable: replay: unknown op %d", rec.Op)
		}
	})
	span.SetInt("records", int64(stats.Records))
	span.SetInt("segments", int64(stats.Segments))
	if stats.TornTail {
		span.SetStr("torn_tail", "true")
		mgr.m.Counter("recovery.torn_tails").Inc()
	}
	mgr.m.Counter("recovery.replayed_records").Add(int64(stats.Records))
	mgr.m.Gauge("recovery.replay_ms").Set(time.Since(start).Milliseconds())
	return stats, err
}

// Append logs one update record; it returns once the record is
// acknowledged per the sync mode. The caller must have already applied
// (or be about to apply, under its own serialization) the same update
// in-memory — append order must match apply order.
func (mgr *Manager) Append(rec Record) error { return <-mgr.Stage(rec) }

// Stage queues one record for the next group commit and returns its
// acknowledgment channel. The HTTP layer stages under its state lock (so
// log order equals apply order) and waits after releasing it, letting
// concurrent updates share one fsync.
func (mgr *Manager) Stage(rec Record) <-chan error {
	ch := mgr.wal.AppendAsync(rec)
	mgr.mu.Lock()
	// Rough size accounting for the auto-checkpoint trigger; exactness
	// doesn't matter, only the order of magnitude.
	for _, t := range rec.Triples {
		mgr.appended += int64(len(t.S.Value) + len(t.P.Value) + len(t.O.Value) + 16)
	}
	mgr.mu.Unlock()
	return ch
}

// ShouldCheckpoint reports whether enough WAL bytes accumulated since the
// last checkpoint to warrant one. It flips back only after Checkpoint
// runs.
func (mgr *Manager) ShouldCheckpoint() bool {
	if mgr.checkpointBytes <= 0 {
		return false
	}
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return mgr.appended >= mgr.checkpointBytes && !mgr.checkpointing
}

// Checkpoint makes the current graph durable and truncates the WAL:
//
//  1. rotate the WAL — the new segment's number is the cut; every record
//     the snapshot will contain lives in a segment below it
//  2. write the snapshot (atomic temp + fsync + rename)
//  3. swap the manifest to (new snapshot, WALFrom = cut)
//  4. prune segments below the cut and the previous snapshot
//
// The caller must guarantee g is not mutated concurrently (the HTTP
// layer holds its state lock in read mode, pausing updates). A crash
// between any two steps recovers correctly: the old manifest replays
// more WAL over the old snapshot, and replay is idempotent. Concurrent
// checkpoints coalesce — the second caller gets ErrCheckpointBusy.
func (mgr *Manager) Checkpoint(g *graph.Graph) (retErr error) {
	mgr.mu.Lock()
	if mgr.checkpointing {
		mgr.mu.Unlock()
		return ErrCheckpointBusy
	}
	mgr.checkpointing = true
	mgr.mu.Unlock()
	defer func() {
		mgr.mu.Lock()
		mgr.checkpointing = false
		if retErr == nil {
			mgr.appended = 0
		}
		mgr.mu.Unlock()
	}()

	start := time.Now()
	cut, err := mgr.wal.Rotate()
	if err != nil {
		mgr.m.Counter("wal.checkpoint_errors").Inc()
		return fmt.Errorf("durable: checkpoint rotate: %w", err)
	}
	snapName := fmt.Sprintf("snapshot-%08d.col", cut)
	if err := g.SaveSnapshot(filepath.Join(mgr.dir, snapName)); err != nil {
		mgr.m.Counter("wal.checkpoint_errors").Inc()
		return fmt.Errorf("durable: checkpoint snapshot: %w", err)
	}
	mgr.mu.Lock()
	prev := mgr.manifest
	next := Manifest{Snapshot: snapName, WALFrom: cut}
	mgr.mu.Unlock()
	if err := mgr.writeManifest(next); err != nil {
		mgr.m.Counter("wal.checkpoint_errors").Inc()
		return fmt.Errorf("durable: checkpoint manifest: %w", err)
	}
	mgr.mu.Lock()
	mgr.manifest = next
	mgr.mu.Unlock()
	mgr.prune(prev, cut)
	mgr.m.Counter("wal.checkpoints").Inc()
	mgr.m.Gauge("wal.checkpoint_ms").Set(time.Since(start).Milliseconds())
	return nil
}

// ErrCheckpointBusy reports a checkpoint already in flight.
var ErrCheckpointBusy = fmt.Errorf("durable: checkpoint already in progress")

// writeManifest swaps the manifest atomically and fsyncs file + directory.
func (mgr *Manager) writeManifest(man Manifest) error {
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return columnar.WriteFileAtomic(filepath.Join(mgr.dir, manifestName), func(w io.Writer) error {
		_, err := w.Write(append(raw, '\n'))
		return err
	})
}

// prune removes WAL segments captured by the new snapshot and the
// previous snapshot file. Best-effort: leftovers cost disk, not
// correctness, and the next checkpoint retries.
func (mgr *Manager) prune(prev Manifest, cut int) {
	segs, err := walSegments(mgr.dir)
	if err != nil {
		return
	}
	for _, seg := range segs {
		if seg < cut {
			if os.Remove(walSegPath(mgr.dir, seg)) == nil {
				mgr.m.Counter("wal.segments_pruned").Inc()
			}
		}
	}
	if prev.Snapshot != "" && prev.Snapshot != mgr.CurrentManifest().Snapshot {
		os.Remove(filepath.Join(mgr.dir, prev.Snapshot))
	}
}

// CurrentManifest returns a copy of the in-memory manifest; callers use
// it to distinguish a fresh data directory (no snapshot yet) from a
// recovered one.
func (mgr *Manager) CurrentManifest() Manifest {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return mgr.manifest
}

// Close flushes and closes the WAL.
func (mgr *Manager) Close() error { return mgr.wal.Close() }

// Dir returns the data directory path.
func (mgr *Manager) Dir() string { return mgr.dir }
