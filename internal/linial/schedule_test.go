package linial

import (
	"math/rand"
	"testing"
	"testing/quick"

	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

// TestScheduleQuickInvariants fuzzes ProperSchedule and
// DefectiveSchedule jointly across wide parameter ranges.
func TestScheduleQuickInvariants(t *testing.T) {
	f := func(rawM uint32, rawB, rawA uint8) bool {
		m := int(rawM%(1<<22)) + 4
		beta := int(rawB%30) + 1
		alpha := []float64{2, 1, 0.5, 0.25, 0.125}[rawA%5]

		proper := ProperSchedule(m, beta)
		cur := m
		for _, s := range proper {
			if s.AllowFrac != 0 || s.Q <= s.Degree*beta || s.ColorsOut() >= cur {
				return false
			}
			cur = s.ColorsOut()
		}

		def := DefectiveSchedule(m, beta, alpha)
		total := 0.0
		cur = m
		for _, s := range def {
			total += s.AllowFrac
			if s.ColorsOut() >= cur {
				return false
			}
			cur = s.ColorsOut()
		}
		return total <= alpha
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestDefectiveSchedulePanicsOnZeroAlpha pins the guardrail.
func TestDefectiveSchedulePanicsOnZeroAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("alpha = 0 did not panic")
		}
	}()
	DefectiveSchedule(100, 4, 0)
}

// TestReduceOnDirectedStar exercises the oriented reduction where one
// node has ALL the out-degree: the hub must avoid every leaf while the
// leaves (out-degree 0) are unconstrained.
func TestReduceOnDirectedStar(t *testing.T) {
	n := 20
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, v)
	}
	rank := make([]int, n)
	rank[0] = n // hub highest: all arcs hub → leaf
	for v := 1; v < n; v++ {
		rank[v] = v
	}
	d, err := graph.OrientByRank(g, rank)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, n)
	for v := range ids {
		ids[v] = v
	}
	res, err := reduceProperOriented(d, ids, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.IsProperColoring(g, res.Colors); err != nil {
		t.Error(err)
	}
}

// TestReduceStepByStep drives ReduceOn with a single handcrafted step
// and checks the point-value encoding of the new colors.
func TestReduceStepByStep(t *testing.T) {
	g := graph.Ring(6)
	ids := []int{0, 1, 2, 3, 4, 5}
	// One proper step: m = 6, β = Δ = 2, d = 1 ⇒ q > 2 prime with
	// q² ≥ 6: q = 3 gives 9 ≥ 6 ✓ and q > d·β = 2 ✓.
	steps := []Step{{Q: 3, Degree: 1, ColorsIn: 6}}
	res, err := ReduceOn(new(sim.Engine), sim.NewNetwork(g), ids, 6, steps, false, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Palette != 9 {
		t.Errorf("palette = %d, want 9", res.Palette)
	}
	if err := graph.IsProperColoring(g, res.Colors); err != nil {
		t.Error(err)
	}
	for _, c := range res.Colors {
		if c < 0 || c >= 9 {
			t.Errorf("color %d outside [0,9)", c)
		}
	}
}

// TestDefectiveAccumulationAcrossSteps verifies that a multi-step
// defective schedule keeps the TOTAL defect within α·deg even though
// each step adds its own conflicts.
func TestDefectiveAccumulationAcrossSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomRegular(200, 8, rng)
	ids := make([]int, g.N())
	for v := range ids {
		ids[v] = v
	}
	alpha := 0.5
	steps := DefectiveSchedule(g.N(), g.MaxDegree(), alpha)
	if len(steps) < 2 {
		t.Skip("schedule too short to test accumulation")
	}
	res, err := ReduceOn(new(sim.Engine), sim.NewNetwork(g), ids, g.N(), steps, false, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mono := graph.MonochromaticDegree(g, res.Colors)
	for v, m := range mono {
		if float64(m) > alpha*float64(g.Degree(v)) {
			t.Errorf("node %d defect %d > α·deg = %v", v, m, alpha*float64(g.Degree(v)))
		}
	}
}
