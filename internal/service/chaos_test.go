package service

import (
	"math/rand"
	"testing"

	"listcolor/internal/adversary"
	"listcolor/internal/coloring"
	"listcolor/internal/graph"
)

// TestRunChaosMatrix runs a scaled-down kill-point matrix end to end:
// every seed-derived kill must recover to a reference-identical state
// with a clean audit. The full 200-point matrix is `make chaos`.
func TestRunChaosMatrix(t *testing.T) {
	points := 40
	if testing.Short() {
		points = 12
	}
	rep, err := RunChaos(ChaosConfig{Seed: 1, Points: points, Log: t.Logf})
	if err != nil {
		t.Fatalf("chaos matrix: %v", err)
	}
	if rep.Failures != 0 || rep.Points != points {
		t.Fatalf("report: %+v", rep)
	}
	// The seed-derived mode draw must exercise more than one damage
	// class at this matrix size.
	if len(rep.PerMode) < 3 {
		t.Fatalf("mode coverage too thin: %+v", rep.PerMode)
	}
	t.Logf("chaos: %+v", rep)
}

// TestRunChaosDeterministic: the same seed yields the same report —
// the whole matrix is a pure function of its config.
func TestRunChaosDeterministic(t *testing.T) {
	a, err := RunChaos(ChaosConfig{Seed: 9, Points: 8, Batches: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(ChaosConfig{Seed: 9, Points: 8, Batches: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.TailsDiscarded != b.TailsDiscarded || a.ReplayedBatches != b.ReplayedBatches {
		t.Fatalf("matrix not deterministic: %+v vs %+v", a, b)
	}
}

// TestChaosScriptDeterministic pins the script generator: same seed,
// same ops, and a different seed diverges.
func TestChaosScriptDeterministic(t *testing.T) {
	base := graph.StreamedRing(64)
	s1 := chaosScript(base, 6, 8, 3)
	s2 := chaosScript(base, 6, 8, 3)
	s3 := chaosScript(base, 6, 8, 4)
	if len(s1) != 6 || len(s1[0]) != 8 {
		t.Fatalf("script shape: %d x %d", len(s1), len(s1[0]))
	}
	same := func(a, b [][]Op) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if len(a[i]) != len(b[i]) {
				return false
			}
			for j := range a[i] {
				if a[i][j].Action != b[i][j].Action || a[i][j].U != b[i][j].U || a[i][j].V != b[i][j].V {
					return false
				}
			}
		}
		return true
	}
	if !same(s1, s2) {
		t.Fatal("same seed diverged")
	}
	if same(s1, s3) {
		t.Fatal("different seeds agree")
	}
}

// TestEdgeChurnBatchTracksPendingToggles: the edge churn generator
// sees its own earlier draws in a batch. On 6 nodes a 40-op batch
// toggles most pairs more than once, so a generator that forgot a
// pending insert would emit a duplicate edge and the batch would be
// rejected; every batch must apply whole and keep degrees ≤ space-2.
func TestEdgeChurnBatchTracksPendingToggles(t *testing.T) {
	const space = 5
	s := mustService(t, graph.StreamedRing(6), coloring.FullPalette(6, space, 0), Options{})
	rng := rand.New(rand.NewSource(1))
	for b := 0; b < 20; b++ {
		ops := EdgeChurnBatch(s, rng, space, 40)
		if rep, err := s.ApplyBatch(ops); err != nil || rep.Applied != len(ops) {
			t.Fatalf("batch %d: applied %d of %d ops: %v", b, rep.Applied, len(ops), err)
		}
		for v := 0; v < s.N(); v++ {
			if d := s.DegreeOf(v); d > space-2 {
				t.Fatalf("batch %d: node %d has degree %d > %d", b, v, d, space-2)
			}
		}
	}
}

// TestChaosPlanValidate: derived plans validate, and validation
// rejects unknown modes and kill points outside the script.
func TestChaosPlanValidate(t *testing.T) {
	p := adversary.NewChaosPlan(5, 24, 16)
	if err := p.Validate(); err != nil {
		t.Fatalf("derived plan invalid: %v", err)
	}
	p.Points[0].Mode = "meteor-strike"
	if err := p.Validate(); err == nil {
		t.Fatal("unknown mode accepted")
	}
	p.Points[0].Mode = adversary.ChaosBoundary
	p.Points[0].Batch = 99
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range batch accepted")
	}
}
