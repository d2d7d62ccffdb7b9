package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"listcolor"
	"listcolor/internal/adversary"
	"listcolor/internal/workload"
)

// testOptions are the flag defaults (-p 2 -eps 1 -alpha 0.5 -theta 2
// -seed 1, -space 0).
var testOptions = options{p: 2, eps: 1.0, alpha: 0.5, theta: 2, seed: 1}

// TestRunAllAlgorithms drives every algorithm branch of the CLI's run
// function on a small graph — the smoke test keeping the tool from
// rotting as the library evolves.
func TestRunAllAlgorithms(t *testing.T) {
	g, err := workload.Build("regular", workload.Params{N: 24, Degree: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	algos := []string{
		"linial", "defective", "twosweep", "fast", "csr",
		"degplus1", "nbhood", "edgecolor", "luby", "greedy",
	}
	for _, algo := range algos {
		if err := solve(io.Discard, g, algo, testOptions, true, adversary.Plan{}, false, listcolor.Config{}); err != nil {
			t.Errorf("algo %s: %v", algo, err)
		}
	}
	if err := solve(io.Discard, g, "nosuch", testOptions, false, adversary.Plan{}, false, listcolor.Config{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestRunRepairAllAlgorithms drives every -repair branch under a real
// crash+corrupt plan: each must come back with a nil error (damage is
// reported, never returned).
func TestRunRepairAllAlgorithms(t *testing.T) {
	g, err := workload.Build("regular", workload.Params{N: 24, Degree: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan := adversary.Merge(
		adversary.UniformCrash(g, 7, 0.10, 2, 2),
		adversary.UniformCorrupt(7, 0.10, 1, 0),
	)
	for _, algo := range []string{"twosweep", "fast", "csr", "degplus1", "nbhood", "luby"} {
		if err := solve(io.Discard, g, algo, testOptions, false, plan, true, listcolor.Config{MaxRounds: 400}); err != nil {
			t.Errorf("repair %s: %v", algo, err)
		}
	}
	if err := solve(io.Discard, g, "edgecolor", testOptions, false, plan, true, listcolor.Config{}); err == nil {
		t.Error("-repair accepted an instance-free algorithm")
	}
}

func TestLoadSaveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.el")
	g := listcolor.NewRing(9)
	if err := saveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := loadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 9 || got.M() != 9 {
		t.Errorf("round trip: %v", got)
	}
	if _, err := loadGraph(filepath.Join(dir, "missing.el")); err == nil {
		t.Error("missing file accepted")
	}
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadGraph(path); err == nil {
		t.Error("garbage file accepted")
	}
}

func TestRunWithCongestCap(t *testing.T) {
	g, err := workload.Build("ring", workload.Params{N: 32})
	if err != nil {
		t.Fatal(err)
	}
	// A generous cap should pass; a 1-bit cap should fail.
	if err := solve(io.Discard, g, "linial", testOptions, false, adversary.Plan{}, false, listcolor.Config{BandwidthBits: 64}); err != nil {
		t.Errorf("generous cap failed: %v", err)
	}
	if err := solve(io.Discard, g, "linial", testOptions, false, adversary.Plan{}, false, listcolor.Config{BandwidthBits: 1}); err == nil {
		t.Error("1-bit cap passed")
	}
}

// TestFaultPlanFileRoundTrip exercises the -faults file format: the
// plan the CLI writes to disk parses back bit-identically.
func TestFaultPlanFileRoundTrip(t *testing.T) {
	plan := adversary.Plan{
		Seed: 42,
		Events: []adversary.Event{
			{Kind: adversary.CrashStop, Node: 3, Start: 2},
			{Kind: adversary.Corrupt, From: -1, To: -1, Start: 1, Rate: 0.25},
		},
	}
	data, err := plan.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := adversary.ParsePlan(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != plan.Seed || len(back.Events) != len(plan.Events) || back.Events[1].Rate != 0.25 {
		t.Errorf("round trip mangled the plan: %+v", back)
	}
}
