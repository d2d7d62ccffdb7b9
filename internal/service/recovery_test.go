// recovery_test.go is the crash-recovery differential over explicit
// kill points — every batch boundary, seed-drawn mid-record tears, a
// flipped byte, an unsynced (SyncOff) kill — each run through the chaos
// harness's one kill loop (runChaosPoint), plus the lifecycle paths
// around it: clean close and reopen, reads during replay, and refusing
// to re-initialize a data dir. Every recovered state must diff clean
// (RefState.Diff) against an uninterrupted reference run at the
// recovered version. This is the process-level analogue of the paper's
// locality claim: damage is bounded, detected, and repaired exactly.
package service

import (
	"errors"
	"testing"

	"listcolor/internal/adversary"
	"listcolor/internal/coloring"
	"listcolor/internal/graph"
)

// killFixture is a churnScript over a ring and its reference run.
type killFixture struct {
	base   *graph.CSR
	inst   *coloring.Instance
	script [][]Op
	refs   []RefState
}

func newKillFixture(t *testing.T, nodes, batches, batchSize int, seed int64) killFixture {
	t.Helper()
	f := killFixture{base: graph.StreamedRing(nodes)}
	f.inst = slackInstance(f.base)
	f.script = churnScript(f.base, batches, batchSize, seed)
	fillSetLists(f.script, f.inst.Space)
	refs, err := referenceRun(f.base, f.inst, f.script)
	if err != nil {
		t.Fatal(err)
	}
	f.refs = refs
	return f
}

// kill runs one kill point through the harness in a fresh data dir.
func (f killFixture) kill(t *testing.T, pt adversary.ChaosPoint, dopts DurableOptions) *RecoveryInfo {
	t.Helper()
	dopts.Dir = t.TempDir()
	info, err := runChaosPoint(pt, f.base, f.inst, f.script, f.refs, dopts)
	if err != nil {
		t.Fatalf("%s kill at batch %d (draw %#x): %v", pt.Mode, pt.Batch, pt.Draw, err)
	}
	return info
}

// apply writes batches through d, tolerating op-level rejections.
func apply(t *testing.T, d *Durable, script [][]Op) {
	t.Helper()
	for _, ops := range script {
		if _, err := d.ApplyBatch(ops); err != nil && !errors.Is(err, ErrOp) {
			t.Fatalf("apply: %v", err)
		}
	}
}

// mustNewDurable wraps a fresh service in a fresh data dir.
func mustNewDurable(t *testing.T, base *graph.CSR, dir string, opts Options, dopts DurableOptions) *Durable {
	t.Helper()
	dopts.Dir = dir
	d, err := NewDurable(mustService(t, base, slackInstance(base), opts), dopts)
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	return d
}

// TestDurableLifecycle: the plain path — apply, close cleanly, reopen,
// nothing to replay, state intact, and writes resume.
func TestDurableLifecycle(t *testing.T) {
	f := newKillFixture(t, 48, 10, 8, 11)
	dopts := DurableOptions{Dir: t.TempDir(), Sync: SyncBatch, CheckpointEvery: 4}
	d := mustNewDurable(t, f.base, dopts.Dir, Options{}, dopts)
	apply(t, d, f.script[:6])
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	d2, info, err := OpenDurable(Options{}, dopts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// A clean close checkpoints, so nothing replays.
	if info.ReplayedBatches != 0 || info.Tail != nil {
		t.Fatalf("clean reopen replayed %d batches, tail %v", info.ReplayedBatches, info.Tail)
	}
	if err := f.refs[6].Diff(d2.Service()); err != nil {
		t.Fatalf("clean reopen: %v", err)
	}
	apply(t, d2, f.script[6:])
	if err := f.refs[len(f.script)].Diff(d2.Service()); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	// Stats surface sanity.
	ds := d2.DurabilityStats()
	if ds.SyncMode != "batch" || ds.Checkpoints == 0 {
		t.Fatalf("durability stats: %+v", ds)
	}
}

// TestDurableRefusesReinit: NewDurable on a dir that already holds a
// checkpoint must refuse rather than clobber durable state.
func TestDurableRefusesReinit(t *testing.T) {
	base := graph.StreamedRing(16)
	dir := t.TempDir()
	d := mustNewDurable(t, base, dir, Options{}, DurableOptions{})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := NewDurable(mustService(t, base, slackInstance(base), Options{}), DurableOptions{Dir: dir})
	if err == nil {
		t.Fatal("NewDurable clobbered an existing data dir")
	}
}

// TestRecoveryKillPointDifferential kills the writer at every batch
// boundary, including after the last batch. A SyncBatch log loses
// nothing, so each recovery lands exactly on its kill batch and then
// finishes the script at the reference's final state.
func TestRecoveryKillPointDifferential(t *testing.T) {
	f := newKillFixture(t, 64, 18, 10, 7)
	for kill := 0; kill <= len(f.script); kill++ {
		f.kill(t, adversary.ChaosPoint{Batch: kill, Mode: adversary.ChaosBoundary},
			DurableOptions{Sync: SyncBatch, CheckpointEvery: 5})
	}
}

// TestRecoveryMidRecordTearDifferential kills the writer mid-record:
// the armed crash puts a draw-chosen prefix of batch k's record on
// disk. The append reports ErrWALCrashed, the dead Durable refuses
// further writes, and recovery discards the torn tail, with a typed
// reason, to land exactly on version k.
func TestRecoveryMidRecordTearDifferential(t *testing.T) {
	f := newKillFixture(t, 64, 12, 10, 9)
	for kill := 0; kill < len(f.script); kill++ {
		for _, draw := range []uint64{1, 0x9e3779b97f4a7c15, 1 << 40} {
			f.kill(t, adversary.ChaosPoint{Batch: kill, Mode: adversary.ChaosMidRecord, Draw: draw},
				DurableOptions{Sync: SyncBatch, CheckpointEvery: 4})
		}
	}
}

// TestRecoverySyncOffLosesTailOnly: under SyncOff an abort loses the
// buffered records past the last checkpoint — but what recovers is
// still exactly a reference prefix, never a corrupted hybrid.
func TestRecoverySyncOffLosesTailOnly(t *testing.T) {
	f := newKillFixture(t, 48, 14, 8, 5)
	info := f.kill(t, adversary.ChaosPoint{Batch: len(f.script), Mode: adversary.ChaosBoundary},
		DurableOptions{Sync: SyncOff, CheckpointEvery: 6})
	// Checkpoints flush the log, so at most CheckpointEvery batches are
	// lost — and the last checkpoint is a floor.
	if info.Version < uint64(len(f.script)-6) {
		t.Fatalf("sync=off lost too much: recovered version %d of %d", info.Version, len(f.script))
	}
}

// TestRecoveryReadsDuringReplay: the BeforeReplay hook hands out the
// service while replay is still running — reads must serve the
// checkpoint snapshot immediately, versions only moving forward.
func TestRecoveryReadsDuringReplay(t *testing.T) {
	f := newKillFixture(t, 48, 12, 8, 13)
	dir := t.TempDir()
	d := mustNewDurable(t, f.base, dir, Options{}, DurableOptions{Sync: SyncBatch, CheckpointEvery: 100})
	apply(t, d, f.script)
	d.Abort() // no final checkpoint: everything past v0 replays
	sawPending := -1
	var versions []uint64
	d2, info, err := OpenDurable(Options{}, DurableOptions{
		Dir: dir, Sync: SyncBatch,
		BeforeReplay: func(s *Service, pending int) {
			sawPending = pending
			// Reads are live right now, mid-recovery.
			versions = append(versions, s.Snapshot().Version)
			if _, _, ok := s.Color(3); !ok {
				t.Error("Color read failed during recovery")
			}
		},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d2.Close()
	if sawPending != len(f.script) {
		t.Fatalf("BeforeReplay saw %d pending, want %d", sawPending, len(f.script))
	}
	if info.ReplayedBatches != len(f.script) || info.CheckpointVersion != 0 {
		t.Fatalf("replay accounting: %+v", info)
	}
	if len(versions) != 1 || versions[0] != 0 {
		t.Fatalf("hook versions: %v", versions)
	}
	if ds := d2.DurabilityStats(); ds.RecoveredBatches != len(f.script) {
		t.Fatalf("durability stats after recovery: %+v", ds)
	}
	if err := f.refs[len(f.script)].Diff(d2.Service()); err != nil {
		t.Fatalf("replayed state: %v", err)
	}
}

// TestRecoveryFlippedWALByte: post-crash damage to one byte of an
// already-synced record is caught by the CRC; recovery discards the
// log from that record on and still matches the reference there.
func TestRecoveryFlippedWALByte(t *testing.T) {
	f := newKillFixture(t, 48, 8, 8, 17)
	info := f.kill(t, adversary.ChaosPoint{Batch: len(f.script), Mode: adversary.ChaosFlipByte, Draw: 0x9e3779b97f4a7c15},
		DurableOptions{Sync: SyncBatch, CheckpointEvery: 100})
	if info.Tail == nil || info.Version >= uint64(len(f.script)) {
		t.Fatalf("flip not detected or nothing discarded: %+v", info)
	}
}
