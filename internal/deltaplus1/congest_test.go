package deltaplus1

import (
	"math/rand"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

// TestPipelineCongestCompliant runs the whole (deg+1) pipeline under a
// hard per-message cap of the O(log n + log C) shape: every
// sub-protocol — bootstrap, defective splits, two-sweeps inside the
// Theorem 1.2 solver — must stay within it, or the engine fails the
// run. This is Theorem 1.3's CONGEST claim as an enforced property.
func TestPipelineCongestCompliant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomRegular(120, 6, rng)
	inst := coloring.DegreePlusOne(g, g.MaxDegree()+1, rng)
	// Generous multiple of log(n²) + log C — but a hard cap: a single
	// polynomial-size message would trip it.
	cap := 8 * (sim.BitsFor(g.N()*g.N()) + sim.BitsFor(inst.Space))
	res, err := Solve(g, inst, sim.Config{BandwidthBits: cap})
	if err != nil {
		t.Fatalf("pipeline exceeded the %d-bit CONGEST cap: %v", cap, err)
	}
	if err := coloring.ValidateProperList(g, inst, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxMessageBits > cap {
		t.Errorf("reported max message %d > cap %d", res.Stats.MaxMessageBits, cap)
	}
}

// TestPipelineDriverIndependent pins that the composed pipeline is
// deterministic across engine drivers.
func TestPipelineDriverIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.GNP(60, 0.15, rng)
	inst := coloring.DegreePlusOne(g, g.MaxDegree()+2, rng)
	var prev []int
	for _, driver := range sim.AllDrivers() {
		res, err := Solve(g, inst, sim.Config{Driver: driver})
		if err != nil {
			t.Fatalf("driver %d: %v", driver, err)
		}
		if prev != nil {
			for v := range prev {
				if prev[v] != res.Colors[v] {
					t.Fatalf("driver %d disagrees at node %d", driver, v)
				}
			}
		}
		prev = res.Colors
	}
}
