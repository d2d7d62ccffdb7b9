// durable.go is the crash-safe shell around Service: a Durable logs
// every batch to the WAL before applying it, checkpoints the full
// state every CheckpointEvery batches, and recovers from a data dir by
// loading the checkpoint and replaying the WAL tail. The paper's
// defect slack lets the *coloring* absorb bounded damage; this layer
// gives the *process* the same property — a kill at any instant loses
// at most the unsynced tail, and what recovers is byte-identical to
// the uninterrupted run at the recovered version.
package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// DurableOptions tunes the durability layer (colord -data-dir,
// -wal-sync, -checkpoint-every).
type DurableOptions struct {
	// Dir is the data directory holding the checkpoint and WAL
	// segments. Required.
	Dir string
	// Sync is the WAL durability mode; the zero value is SyncOff, so
	// set SyncBatch explicitly for the usual process-crash guarantee.
	Sync SyncMode
	// CheckpointEvery is the number of batches between checkpoints
	// (bounding replay length); 0 means 256.
	CheckpointEvery int
	// SegmentBytes rotates the WAL at this segment size; 0 means 16 MiB.
	SegmentBytes int64
	// BeforeReplay, when set, runs after the checkpoint is restored
	// and before WAL replay begins — the hook colord uses to start
	// serving lock-free reads (readiness false) while recovery is
	// still replaying. pending is the number of batches about to
	// replay; the service must only be read, not written.
	BeforeReplay func(s *Service, pending int)
}

// DurabilityStats is the durability section of /v1/stats, safe to
// read concurrently with the writer.
type DurabilityStats struct {
	SyncMode              string `json:"sync_mode"`
	WALSegment            int    `json:"wal_segment"`
	WALRecords            int64  `json:"wal_records"`
	WALBytes              int64  `json:"wal_bytes"`
	Checkpoints           int64  `json:"checkpoints"`
	LastCheckpointVersion uint64 `json:"last_checkpoint_version"`
	CheckpointEvery       int    `json:"checkpoint_every"`
	RecoveredBatches      int    `json:"recovered_batches"`
	RecoveredOps          int    `json:"recovered_ops"`
	// WALTailDiscarded describes the torn tail recovery dropped, empty
	// when the log was clean.
	WALTailDiscarded string `json:"wal_tail_discarded,omitempty"`
}

// RecoveryInfo is the account of one OpenDurable: where the
// checkpoint stood, how much WAL replayed on top of it, and what (if
// anything) was discarded as a torn tail.
type RecoveryInfo struct {
	CheckpointVersion uint64
	Version           uint64 // recovered service version after replay
	ReplayedBatches   int
	ReplayedOps       int
	SkippedRecords    int // pre-checkpoint records in surviving segments
	// Tail is non-nil when a torn or corrupted record ended the
	// replay; everything before it recovered cleanly.
	Tail *WALTailError
}

// Durable is a Service whose batches survive crashes. All writes go
// through its ApplyBatch; reads go to Service() — they stay lock-free
// snapshot loads, untouched by the logging.
type Durable struct {
	svc  *Service
	opts DurableOptions

	mu        sync.Mutex
	wal       *walWriter
	dead      bool
	sinceCkpt int

	// lock-free mirrors for DurabilityStats
	walSegment    atomic.Int64
	walRecords    atomic.Int64
	walBytes      atomic.Int64
	checkpoints   atomic.Int64
	lastCkpt      atomic.Uint64
	recoveredB    int
	recoveredOps  int
	tailDiscarded string
}

// ckptEvery resolves the checkpoint cadence.
func (d *Durable) ckptEvery() int {
	if d.opts.CheckpointEvery > 0 {
		return d.opts.CheckpointEvery
	}
	return 256
}

// Service returns the wrapped service for the read path (Color,
// Snapshot, Stats, …). Do not call its ApplyBatch directly — writes
// that bypass the WAL are not recovered.
func (d *Durable) Service() *Service { return d.svc }

// NewDurable wraps an already-constructed service in a fresh data
// dir: the current state is checkpointed immediately (so recovery
// never needs the construction inputs), and the WAL opens for the
// first batch. A dir that already holds a checkpoint is refused —
// reopen it with OpenDurable instead.
func NewDurable(svc *Service, dopts DurableOptions) (*Durable, error) {
	if dopts.Dir == "" {
		return nil, fmt.Errorf("service: durable service needs a data dir")
	}
	if err := os.MkdirAll(dopts.Dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dopts.Dir, checkpointFile)); err == nil {
		return nil, fmt.Errorf("service: data dir %s already holds a checkpoint; open it with OpenDurable", dopts.Dir)
	}
	// No checkpoint means nothing in this dir was ever durable (the
	// v0 checkpoint lands before the first batch) — clear stale
	// segments a crashed initialization may have left.
	if names, err := listWALSegments(dopts.Dir); err == nil {
		for _, name := range names {
			os.Remove(filepath.Join(dopts.Dir, name))
		}
	}
	w, err := openWALWriter(dopts.Dir, dopts.Sync, dopts.SegmentBytes)
	if err != nil {
		return nil, err
	}
	d := &Durable{svc: svc, opts: dopts, wal: w}
	cs := svc.stateImage()
	cs.walSegment = w.index
	if err := writeCheckpoint(dopts.Dir, cs); err != nil {
		w.close()
		return nil, err
	}
	d.checkpoints.Add(1)
	d.lastCkpt.Store(cs.version)
	d.syncCounters()
	return d, nil
}

// OpenDurable recovers a durable service from its data dir: load the
// checkpoint, replay the WAL tail (torn or corrupted records discard
// the rest of the log, cleanly), and reopen the WAL for appending. A
// dir without a checkpoint returns os.ErrNotExist — the caller
// decides whether that means "initialize fresh". opts must match the
// options the service ran under (they are not persisted).
func OpenDurable(opts Options, dopts DurableOptions) (*Durable, *RecoveryInfo, error) {
	cs, err := readCheckpoint(dopts.Dir)
	if err != nil {
		return nil, nil, err
	}
	svc, err := restoreService(cs, opts)
	if err != nil {
		return nil, nil, err
	}
	records, tail, err := readWALDir(dopts.Dir)
	if err != nil {
		return nil, nil, err
	}
	info := &RecoveryInfo{CheckpointVersion: cs.version, Tail: tail}
	pending := 0
	for _, rec := range records {
		if rec.Version > cs.version {
			pending++
		}
	}
	if dopts.BeforeReplay != nil {
		dopts.BeforeReplay(svc, pending)
	}
	next := cs.version + 1
	for _, rec := range records {
		if rec.Version <= cs.version {
			info.SkippedRecords++
			continue
		}
		if rec.Version != next {
			// A contiguity break past a CRC-valid record can only come
			// from outside interference; treat it as a torn tail rather
			// than replaying out of order.
			info.Tail = &WALTailError{Reason: TornBadPayload,
				Cause: fmt.Errorf("%w: version %d after %d", ErrWALRecord, rec.Version, next-1)}
			break
		}
		if _, err := svc.ApplyBatch(rec.Ops); err != nil && !errors.Is(err, ErrOp) {
			return nil, nil, fmt.Errorf("service: replaying batch %d: %w", rec.Version, err)
		}
		next++
		info.ReplayedBatches++
		info.ReplayedOps += len(rec.Ops)
	}
	info.Version = svc.Version()
	w, err := openWALWriter(dopts.Dir, dopts.Sync, dopts.SegmentBytes)
	if err != nil {
		return nil, nil, err
	}
	d := &Durable{
		svc: svc, opts: dopts, wal: w,
		recoveredB: info.ReplayedBatches, recoveredOps: info.ReplayedOps,
	}
	if tail := info.Tail; tail != nil {
		d.tailDiscarded = tail.Error()
	}
	d.lastCkpt.Store(cs.version)
	d.syncCounters()
	return d, info, nil
}

// ApplyBatch logs the batch to the WAL (honoring the sync mode), then
// applies it to the service. An op-level rejection (ErrOp) is a
// client error and replays deterministically; a WAL write failure or
// an internal apply failure marks the Durable dead — the in-memory
// state can no longer be trusted to match the log, so every further
// write returns ErrWALCrashed until the dir is reopened through
// recovery.
func (d *Durable) ApplyBatch(ops []Op) (BatchReport, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead {
		return BatchReport{}, ErrWALCrashed
	}
	version := d.svc.Version() + 1
	payload := EncodeWALBatch(version, ops)
	if err := d.wal.append(payload); err != nil {
		d.dead = true
		d.syncCounters()
		return BatchReport{}, err
	}
	d.syncCounters()
	rep, opErr := d.svc.ApplyBatch(ops)
	if opErr != nil && !errors.Is(opErr, ErrOp) {
		d.dead = true
		return rep, opErr
	}
	d.sinceCkpt++
	if d.sinceCkpt >= d.ckptEvery() {
		if err := d.checkpointLocked(); err != nil {
			d.dead = true
			return rep, err
		}
	}
	return rep, opErr
}

// checkpointLocked rotates the WAL (flushing and fsyncing the old
// segment), writes the checkpoint atomically, and deletes the
// segments it superseded. Caller holds d.mu.
func (d *Durable) checkpointLocked() error {
	if err := d.wal.rotate(); err != nil {
		return err
	}
	cs := d.svc.stateImage()
	cs.walSegment = d.wal.index
	if err := writeCheckpoint(d.opts.Dir, cs); err != nil {
		return err
	}
	if err := removeWALSegmentsBefore(d.opts.Dir, d.wal.index); err != nil {
		return err
	}
	d.sinceCkpt = 0
	d.checkpoints.Add(1)
	d.lastCkpt.Store(cs.version)
	d.syncCounters()
	return nil
}

// Close shuts the durable service down cleanly: a final checkpoint
// (unless the WAL already crashed), so a restart replays nothing, and
// a synced WAL close.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal == nil {
		return nil
	}
	var err error
	if !d.dead {
		err = d.checkpointLocked()
	}
	if cerr := d.wal.close(); err == nil {
		err = cerr
	}
	d.wal = nil
	return err
}

// Abort simulates a process kill: file handles drop, buffered bytes
// are lost, no checkpoint, no sync. The chaos harness's exit path;
// after Abort only OpenDurable can revive the data dir.
func (d *Durable) Abort() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dead = true
	if d.wal != nil {
		d.wal.abort()
		d.wal = nil
	}
}

// ArmCrash arms a deterministic simulated crash: the appendIndex-th
// WAL append (0-based, counting from now) writes only draw%len bytes
// of its record and fails with ErrWALCrashed. Chaos-harness
// instrumentation — a real deployment never calls this.
func (d *Durable) ArmCrash(appendIndex int, draw uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal != nil {
		d.wal.crash = &crashPlan{appendIndex: d.wal.appends + appendIndex, draw: draw}
	}
}

// syncCounters mirrors the writer's counters into the lock-free
// stats fields. Caller holds d.mu.
func (d *Durable) syncCounters() {
	if d.wal == nil {
		return
	}
	d.walSegment.Store(int64(d.wal.index))
	d.walRecords.Store(d.wal.records)
	d.walBytes.Store(d.wal.bytes)
}

// DurabilityStats returns the durability counters, lock-free.
func (d *Durable) DurabilityStats() DurabilityStats {
	return DurabilityStats{
		SyncMode:              d.opts.Sync.String(),
		WALSegment:            int(d.walSegment.Load()),
		WALRecords:            d.walRecords.Load(),
		WALBytes:              d.walBytes.Load(),
		Checkpoints:           d.checkpoints.Load(),
		LastCheckpointVersion: d.lastCkpt.Load(),
		CheckpointEvery:       d.ckptEvery(),
		RecoveredBatches:      d.recoveredB,
		RecoveredOps:          d.recoveredOps,
		WALTailDiscarded:      d.tailDiscarded,
	}
}
