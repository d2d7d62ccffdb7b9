package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"listcolor/internal/bench"
)

// TestHarnessBenchShape pins the BENCH_harness.json document shape:
// the -harness -quick run must emit JSON that round-trips into
// HarnessBenchReport with no unknown fields, carries the recorded
// sequential baseline plus one entry per quick worker budget (the
// sequential anchor first), and reports every run's tables as
// byte-identical to the sequential run — the scheduler's determinism
// contract — with at least one workload-cache hit proving graph
// reuse. Timing fields are machine-dependent and only checked for
// sanity.
func TestHarnessBenchShape(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-harness", "-quick"}, &out, &errb); code != 0 {
		t.Fatalf("run -harness -quick = %d, stderr: %s", code, errb.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out.Bytes()))
	dec.DisallowUnknownFields()
	var rep bench.HarnessBenchReport
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("BENCH_harness.json shape drifted: %v", err)
	}
	if rep.GeneratedAt == "" || rep.Note == "" {
		t.Error("missing generated_at or note")
	}
	if rep.GOMAXPROCS <= 0 || rep.NumCPU <= 0 {
		t.Errorf("implausible host description: gomaxprocs=%d num_cpu=%d", rep.GOMAXPROCS, rep.NumCPU)
	}
	if len(rep.Baseline) == 0 {
		t.Fatal("recorded baseline missing")
	}
	if rep.Baseline[0].Mode != "sequential" || rep.Baseline[0].Workers != 1 {
		t.Errorf("baseline anchor is %s/workers=%d, want sequential/1", rep.Baseline[0].Mode, rep.Baseline[0].Workers)
	}
	budgets := bench.HarnessWorkerBudgets(true)
	if len(rep.Current) != len(budgets) {
		t.Fatalf("current has %d entries, want %d", len(rep.Current), len(budgets))
	}
	for i, e := range rep.Current {
		if e.Workers != budgets[i] {
			t.Errorf("entry %d: workers = %d, want %d", i, e.Workers, budgets[i])
		}
		wantMode := "parallel"
		if e.Workers == 1 {
			wantMode = "sequential"
		}
		if e.Mode != wantMode {
			t.Errorf("entry %d: mode = %q, want %q", i, e.Mode, wantMode)
		}
		if e.WallMs <= 0 || e.SpeedupVsSequential <= 0 {
			t.Errorf("entry %d: implausible measurement %+v", i, e)
		}
		if !e.TablesIdentical {
			t.Errorf("entry %d (workers=%d): tables diverged from the sequential run", i, e.Workers)
		}
		if e.Cache.Hits == 0 {
			t.Errorf("entry %d (workers=%d): no workload-cache hits — graph reuse is broken", i, e.Workers)
		}
	}
	// The service section: one entry per churn workload, each carrying
	// the acceptance measurements (updates/sec, recolor locality, p99
	// read latency under concurrent write load) and a clean post-run
	// validity scan.
	workloads := bench.ServiceWorkloads(true)
	if len(rep.Service) != len(workloads) {
		t.Fatalf("service section has %d entries, want %d", len(rep.Service), len(workloads))
	}
	for i, e := range rep.Service {
		if e.Workload == "" || e.Nodes <= 0 || e.Updates <= 0 || e.Batches <= 0 {
			t.Errorf("service entry %d: incomplete workload description %+v", i, e)
		}
		if e.UpdatesPerSec <= 0 {
			t.Errorf("service entry %d (%s): updates_per_sec = %v", i, e.Workload, e.UpdatesPerSec)
		}
		if e.LocalityMean <= 0 || e.LocalityP95 < e.LocalityP50 || e.LocalityMax < e.LocalityP95 {
			t.Errorf("service entry %d (%s): implausible locality quantiles %+v", i, e.Workload, e)
		}
		if e.Reads <= 0 || e.ReadP50Us <= 0 || e.ReadP99Us < e.ReadP50Us {
			t.Errorf("service entry %d (%s): implausible read latency %+v", i, e.Workload, e)
		}
		if !e.Valid {
			t.Errorf("service entry %d (%s): post-churn coloring failed the validity scan", i, e.Workload)
		}
	}
	// The durability section: one entry per WAL sync mode in canonical
	// order, each with churn throughput through the durable write path
	// and a timed kill-and-recover that must land identical to the
	// reference replay. SyncOff may legitimately recover an empty
	// prefix (the buffered tail is the price of the mode); batch and
	// always must replay the full script.
	modes := bench.DurabilitySyncModes()
	if len(rep.Durability) != len(modes) {
		t.Fatalf("durability section has %d entries, want %d", len(rep.Durability), len(modes))
	}
	for i, e := range rep.Durability {
		if e.SyncMode != modes[i].String() {
			t.Errorf("durability entry %d: sync_mode = %q, want %q", i, e.SyncMode, modes[i])
		}
		if e.Workload == "" || e.Nodes <= 0 || e.Updates <= 0 || e.Batches <= 0 || e.UpdatesPerSec <= 0 {
			t.Errorf("durability entry %d: incomplete measurement %+v", i, e)
		}
		if e.WALBytes <= 0 {
			t.Errorf("durability entry %d (%s): no WAL bytes written", i, e.SyncMode)
		}
		if !e.RecoveredIdentical {
			t.Errorf("durability entry %d (%s): recovered state diverged from the reference replay", i, e.SyncMode)
		}
		if !e.Valid {
			t.Errorf("durability entry %d (%s): recovered coloring failed the validity scan", i, e.SyncMode)
		}
		if e.SyncMode != "off" {
			if e.ReplayedBatches != e.Batches || e.RecoveredVersion != uint64(e.Batches) {
				t.Errorf("durability entry %d (%s): replayed %d of %d batches (version %d)",
					i, e.SyncMode, e.ReplayedBatches, e.Batches, e.RecoveredVersion)
			}
			if e.ReplayedOps <= 0 || e.RecoveryMsPer100KOps <= 0 {
				t.Errorf("durability entry %d (%s): implausible recovery account %+v", i, e.SyncMode, e)
			}
		}
	}
}
