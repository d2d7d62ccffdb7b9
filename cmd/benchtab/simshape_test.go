package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"listcolor/internal/bench"
	"listcolor/internal/sim"
)

// TestSimBenchShape pins the BENCH_sim.json document shape: the -sim
// -quick run must emit JSON that round-trips into SimBenchReport with
// no unknown fields, record the host's cores, carry one scale entry per
// (workload, driver) pair, and report plausible throughput and memory
// figures. Timing is machine-dependent and only sanity-checked.
func TestSimBenchShape(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-sim", "-quick"}, &out, &errb); code != 0 {
		t.Fatalf("run -sim -quick = %d, stderr: %s", code, errb.String())
	}
	var rep bench.SimBenchReport
	if err := decodeStrict(out.Bytes(), &rep); err != nil {
		t.Fatalf("BENCH_sim.json shape drifted: %v", err)
	}
	if rep.GeneratedAt == "" || rep.Note == "" {
		t.Error("missing generated_at or note")
	}
	if rep.GOMAXPROCS <= 0 || rep.NumCPU <= 0 {
		t.Errorf("implausible host description: gomaxprocs=%d num_cpu=%d", rep.GOMAXPROCS, rep.NumCPU)
	}
	drivers := len(sim.AllDrivers())
	if want := drivers * len(bench.SimScaleWorkloads(true)); len(rep.Scale) != want {
		t.Fatalf("scale has %d entries, want %d (%d drivers per workload)", len(rep.Scale), want, drivers)
	}
	for _, e := range rep.Scale {
		if e.RoundsPerSec <= 0 || e.Nodes <= 0 || e.Edges <= 0 || e.Shards < 1 ||
			e.HeapLiveBytes == 0 || e.PeakRSSBytes == 0 || e.BytesPerNode <= 0 {
			t.Errorf("scale %s/%s: implausible measurement %+v", e.Workload, e.Driver, e)
		}
	}
}

// TestCommittedSimBenchScaleRows checks that the repo's committed
// BENCH_sim.json and BENCH_harness.json still carry the evidence that
// docs cite. Both must decode with no unknown fields and record the
// host's cores. BENCH_sim.json must keep scale rows at 10⁶ and 10⁷
// nodes with positive round throughput and peak RSS. BENCH_harness.json
// must keep the sequential workers=1 scheduler row first, every row's
// tables byte-identical to it, and one durability row per sync mode
// whose recovery matched the reference replay.
func TestCommittedSimBenchScaleRows(t *testing.T) {
	var simRep bench.SimBenchReport
	readCommitted(t, "../../BENCH_sim.json", &simRep)
	var harnessRep bench.HarnessBenchReport
	readCommitted(t, "../../BENCH_harness.json", &harnessRep)
	for name, cores := range map[string][2]int{
		"BENCH_sim.json":     {simRep.NumCPU, simRep.GOMAXPROCS},
		"BENCH_harness.json": {harnessRep.NumCPU, harnessRep.GOMAXPROCS},
	} {
		if cores[0] < 1 || cores[1] < 1 {
			t.Errorf("committed %s does not record the host's cores: num_cpu=%d gomaxprocs=%d", name, cores[0], cores[1])
		}
	}

	sizes := map[int]bool{}
	for _, e := range simRep.Scale {
		if e.RoundsPerSec <= 0 || e.PeakRSSBytes == 0 {
			t.Errorf("scale row %s/%s lacks throughput or RSS: %+v", e.Workload, e.Driver, e)
		}
		sizes[e.Nodes] = true
	}
	for _, n := range []int{1_000_000, 10_000_000} {
		if !sizes[n] {
			t.Errorf("committed BENCH_sim.json has no scale row at n=%d", n)
		}
	}

	if len(harnessRep.Current) == 0 || harnessRep.Current[0].Workers != 1 || harnessRep.Current[0].Mode != "sequential" {
		t.Errorf("committed BENCH_harness.json lacks its sequential workers=1 anchor row first: %+v", harnessRep.Current)
	}
	for _, e := range harnessRep.Current {
		if !e.TablesIdentical {
			t.Errorf("committed BENCH_harness.json: workers=%d tables diverged from the sequential run", e.Workers)
		}
	}
	modes := bench.DurabilitySyncModes()
	if len(harnessRep.Durability) != len(modes) {
		t.Fatalf("committed BENCH_harness.json has %d durability rows, want %d", len(harnessRep.Durability), len(modes))
	}
	for i, e := range harnessRep.Durability {
		if e.SyncMode != modes[i].String() || !e.RecoveredIdentical {
			t.Errorf("committed BENCH_harness.json durability row %d: sync_mode=%q recovered_identical=%v, want %q and true",
				i, e.SyncMode, e.RecoveredIdentical, modes[i])
		}
	}
}

// readCommitted decodes the committed report at path into v, strictly.
func readCommitted(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read committed %s: %v", path, err)
	}
	if err := decodeStrict(raw, v); err != nil {
		t.Fatalf("committed %s shape drifted: %v", path, err)
	}
}

// decodeStrict decodes one JSON document into v, rejecting unknown
// fields so a renamed or dropped column fails loudly.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
