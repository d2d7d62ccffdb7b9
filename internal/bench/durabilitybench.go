package bench

// durabilitybench.go prices the crash-safety layer: the same churn
// script pushed through the durable write path under each WAL sync
// mode (off / batch / always), then a simulated kill and a timed
// recovery. cmd/benchtab -harness renders the entries as the
// `durability` section of BENCH_harness.json; the
// recovery_ms_per_100k_ops column is the replay-cost unit a recovery
// budget (and the checkpoint cadence derived from it) is set against.
// Unlike perfbench's serve workload, it prices every sync mode side by
// side and differences each recovery against a reference replay.

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/service"
)

// DurabilityBenchEntry is one sync mode's measurement: churn
// throughput with the WAL in the write path, then a kill and a timed
// recovery.
type DurabilityBenchEntry struct {
	Workload string `json:"workload"`
	SyncMode string `json:"sync_mode"`
	Nodes    int    `json:"nodes"`
	Updates  int    `json:"updates"`
	Batches  int    `json:"batches"`
	// UpdatesPerSec is applied updates over the churn wall time with
	// WAL logging (and, per mode, syncing) in the write path.
	UpdatesPerSec float64 `json:"updates_per_sec"`
	WALBytes      int64   `json:"wal_bytes"`
	// Recovery: the process is killed (Abort — no final checkpoint, no
	// flush) and the data dir reopened with a timer around OpenDurable.
	RecoveredVersion uint64  `json:"recovered_version"`
	ReplayedBatches  int     `json:"replayed_batches"`
	ReplayedOps      int     `json:"replayed_ops"`
	RecoveryMs       float64 `json:"recovery_ms"`
	// RecoveryMsPer100KOps normalizes replay cost to 10^5 replayed ops
	// (0 when nothing replayed — SyncOff can lose the whole buffered
	// tail between rotations).
	RecoveryMsPer100KOps float64 `json:"recovery_ms_per_100k_ops"`
	// RecoveredIdentical is the recovery differential
	// (service.RefState.Diff) against a fresh reference run of the same
	// script prefix: colors, canonical stats and topology fingerprint
	// equal, and a clean audit — checked on every measurement.
	RecoveredIdentical bool `json:"recovered_identical"`
	Valid              bool `json:"valid"`
}

// DurabilitySyncModes returns the measured WAL sync modes, in the
// order the entries appear.
func DurabilitySyncModes() []service.SyncMode {
	return []service.SyncMode{service.SyncOff, service.SyncBatch, service.SyncAlways}
}

// durabilityWorkload parameterizes the churn script.
type durabilityWorkload struct {
	name    string
	nodes   int
	updates int
	batch   int
}

// DurabilityWorkload returns the measured workload (one shape; the
// sync-mode axis is the interesting one), scaled down under quick.
func DurabilityWorkload(quick bool) durabilityWorkload {
	if quick {
		return durabilityWorkload{name: "ring-durable", nodes: 10_000, updates: 4_000, batch: 200}
	}
	return durabilityWorkload{name: "ring-durable", nodes: 100_000, updates: 40_000, batch: 500}
}

// RunDurabilityBench measures every sync mode over the workload.
func RunDurabilityBench(quick bool) ([]DurabilityBenchEntry, error) {
	w := DurabilityWorkload(quick)
	var out []DurabilityBenchEntry
	for _, mode := range DurabilitySyncModes() {
		e, err := measureDurability(w, mode)
		if err != nil {
			return nil, fmt.Errorf("durability bench %s/%s: %w", w.name, mode, err)
		}
		out = append(out, e)
	}
	return out, nil
}

func measureDurability(w durabilityWorkload, mode service.SyncMode) (DurabilityBenchEntry, error) {
	dir, err := os.MkdirTemp("", "durability-bench-")
	if err != nil {
		return DurabilityBenchEntry{}, err
	}
	defer os.RemoveAll(dir)

	base := graph.StreamedRing(w.nodes)
	space := base.RawMaxDegree() + 4
	if space < 6 {
		space = 6
	}
	svc, err := service.New(base, coloring.FullPalette(base.N(), space, 0), nil, service.Options{})
	if err != nil {
		return DurabilityBenchEntry{}, err
	}
	// A huge checkpoint cadence and small segments: the kill below
	// replays (nearly) the whole script, which is the replay cost being
	// measured; small segments give SyncOff regular flush points so its
	// recovery is not trivially empty.
	dopts := service.DurableOptions{Dir: dir, Sync: mode, CheckpointEvery: 1 << 30, SegmentBytes: 64 << 10}
	d, err := service.NewDurable(svc, dopts)
	if err != nil {
		return DurabilityBenchEntry{}, err
	}
	e := DurabilityBenchEntry{Workload: w.name, SyncMode: mode.String(), Nodes: w.nodes}

	// Phase 1: churn throughput through the durable write path. Every
	// applied batch is kept so the recovered state can be differenced
	// against a reference replay of the same prefix.
	rng := rand.New(rand.NewSource(37))
	var script [][]service.Op
	start := time.Now()
	for e.Updates < w.updates {
		ops := service.EdgeChurnBatch(svc, rng, space, w.batch)
		rep, err := d.ApplyBatch(ops)
		if err != nil {
			return e, err
		}
		script = append(script, ops)
		e.Updates += rep.Applied
		e.Batches++
	}
	wall := time.Since(start).Seconds()
	if wall > 0 {
		e.UpdatesPerSec = float64(e.Updates) / wall
	}
	e.WALBytes = d.DurabilityStats().WALBytes

	// Phase 2: kill and timed recovery.
	d.Abort()
	t0 := time.Now()
	d2, info, err := service.OpenDurable(service.Options{}, dopts)
	recovery := time.Since(t0)
	if err != nil {
		return e, err
	}
	defer d2.Close()
	e.RecoveredVersion = info.Version
	e.ReplayedBatches = info.ReplayedBatches
	e.ReplayedOps = info.ReplayedOps
	e.RecoveryMs = float64(recovery.Nanoseconds()) / 1e6
	if info.ReplayedOps > 0 {
		e.RecoveryMsPer100KOps = e.RecoveryMs * 1e5 / float64(info.ReplayedOps)
	}
	e.Valid = d2.Service().ValidateState() == nil

	// Phase 3: the recovery differential — a fresh service replaying
	// the recovered prefix of the script must match the recovered one.
	ref, err := service.New(graph.StreamedRing(w.nodes), coloring.FullPalette(w.nodes, space, 0), nil, service.Options{})
	if err != nil {
		return e, err
	}
	for _, ops := range script[:info.Version] {
		if _, err := ref.ApplyBatch(ops); err != nil {
			return e, err
		}
	}
	e.RecoveredIdentical = service.CaptureRef(ref).Diff(d2.Service()) == nil
	return e, nil
}
