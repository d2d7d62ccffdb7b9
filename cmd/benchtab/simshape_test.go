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
// no unknown fields, carry one entry per (workload, driver) pair in
// both current and scale sections, and report plausible throughput and
// memory figures. Timing is machine-dependent and only sanity-checked.
func TestSimBenchShape(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-sim", "-quick"}, &out, &errb); code != 0 {
		t.Fatalf("run -sim -quick = %d, stderr: %s", code, errb.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out.Bytes()))
	dec.DisallowUnknownFields()
	var rep bench.SimBenchReport
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("BENCH_sim.json shape drifted: %v", err)
	}
	if rep.GeneratedAt == "" || rep.Note == "" {
		t.Error("missing generated_at or note")
	}
	if len(rep.Baseline) == 0 {
		t.Error("recorded baseline missing")
	}
	drivers := len(sim.AllDrivers())
	if want := drivers * len(bench.SimWorkloads(true)); len(rep.Current) != want {
		t.Fatalf("current has %d entries, want %d (%d drivers per workload)", len(rep.Current), want, drivers)
	}
	for _, e := range rep.Current {
		if e.RoundsPerSec <= 0 || e.NsPerRound <= 0 || e.Nodes <= 0 || e.MsgsPerRound <= 0 {
			t.Errorf("%s/%s: implausible measurement %+v", e.Workload, e.Driver, e)
		}
	}
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

// TestCommittedSimBenchScaleRows checks the repo's BENCH_sim.json
// still carries the web-scale evidence: decodable with no unknown
// fields, with scale rows at 10⁶ and 10⁷ nodes reporting positive
// round throughput and peak RSS.
func TestCommittedSimBenchScaleRows(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Fatalf("read committed BENCH_sim.json: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var rep bench.SimBenchReport
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("committed BENCH_sim.json shape drifted: %v", err)
	}
	sizes := map[int]bool{}
	for _, e := range rep.Scale {
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
}
