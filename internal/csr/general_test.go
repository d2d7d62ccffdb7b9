package csr

import (
	"math"
	"math/rand"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/sim"
	"listcolor/internal/twosweep"
)

// TestReduceSpaceOtherLambdas instantiates Lemma 3.5 with λ ∈ {9, 16}
// (p = 3, 4): the combinator is generic, not hard-wired to λ = 4.
func TestReduceSpaceOtherLambdas(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomRegular(40, 4, rng)
	d := graph.OrientByID(g)
	base, q := properColoring(t, g)
	for _, lambda := range []int{9, 16} {
		p := int(math.Sqrt(float64(lambda)))
		space := lambda * lambda * lambda // three levels
		// κ for the Fast-Two-Sweep inner solver with parameter p:
		// max{p, λ/p} = p, so it needs Σ(d+1) > (1+ε)·p·β. Budget with
		// κ = (1+ε)·p·(1+margin) and run at ε' = ε/2 for strictness.
		eps := 0.5
		kappa := (1 + eps) * float64(p)
		inner := fastTwoSweepSolver(p, eps/2, sim.Config{})
		// Instance with slack κ^3 per unit of out-degree.
		need := math.Pow(kappa, 3)
		inst := coloring.WithOrientedSlack(d, space, need, rng)
		colors, stats, err := reduceSpace(new(sim.Engine), lambda, kappa, inner, d.Oriented, inst, base, q, nil)
		if err != nil {
			t.Fatalf("λ=%d: %v", lambda, err)
		}
		if err := coloring.ValidateOLDC(d, inst, colors); err != nil {
			t.Errorf("λ=%d: %v", lambda, err)
		}
		if stats.Rounds <= 0 {
			t.Errorf("λ=%d: no rounds recorded", lambda)
		}
	}
}

// TestReduceSpaceClusteredLists is the adversarial case for the block
// choice: every node's entire list lives in ONE block, so the choice
// instance degenerates to single-block lists and all slack mass must
// survive the descent.
func TestReduceSpaceClusteredLists(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomRegular(30, 4, rng)
	d := graph.OrientByID(g)
	base, q := properColoring(t, g)
	space := 256
	need := int(math.Ceil(3*math.Sqrt(float64(space)))) + 1
	inst := &coloring.Instance{Space: space, Lists: make([][]int, 30), Defects: make([][]int, 30)}
	for v := 0; v < 30; v++ {
		// All of v's colors inside one random 16-color block.
		blockLo := 16 * rng.Intn(space/16)
		budget := need*d.Outdeg(v) + 1
		k := budget
		if k > 16 {
			k = 16
		}
		if budget < k {
			budget = k
		}
		for i := 0; i < k; i++ {
			inst.Lists[v] = append(inst.Lists[v], blockLo+i)
			inst.Defects[v] = append(inst.Defects[v], 0)
		}
		rem := budget - k
		for i := 0; rem > 0; i = (i + 1) % k {
			inst.Defects[v][i]++
			rem--
		}
	}
	res, err := Solve(d, inst, base, q, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.ValidateOLDC(d, inst, res.Colors); err != nil {
		t.Error(err)
	}
}

// TestReduceSpaceSingleColorSpace covers the k = 0 corner with an
// empty-list rejection.
func TestReduceSpaceSingleColorSpace(t *testing.T) {
	g := graph.Ring(4)
	d := graph.OrientByID(g)
	base, q := properColoring(t, g)
	inner := fastTwoSweepSolver(2, 0.1, sim.Config{})
	bad := &coloring.Instance{Space: 1, Lists: [][]int{{0}, {}, {0}, {0}}, Defects: [][]int{{5}, {}, {5}, {5}}}
	if _, _, err := reduceSpace(new(sim.Engine), 4, 2.5, inner, d.Oriented, bad, base, q, nil); err == nil {
		t.Error("empty list at C=1 accepted")
	}
}

// TestRoundsGrowWithLambdaTradeoff verifies the Lemma 3.5 trade-off:
// larger λ means fewer levels. (Rounds per level grow with λ, so this
// only checks the level count, which the combinator controls exactly.)
func TestLevelCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Ring(16)
	d := graph.OrientByID(g)
	base, q := properColoring(t, g)
	for _, tc := range []struct {
		space      int
		wantLevels int
	}{
		{1, 0}, {4, 1}, {5, 2}, {16, 2}, {17, 3}, {256, 4}, {257, 5},
	} {
		inst := coloring.WithOrientedSlack(d, tc.space, 3*math.Sqrt(float64(tc.space)), rng)
		res, err := Solve(d, inst, base, q, sim.Config{})
		if err != nil {
			t.Fatalf("C=%d: %v", tc.space, err)
		}
		if res.Levels != tc.wantLevels {
			t.Errorf("C=%d: Levels = %d, want %d", tc.space, res.Levels, tc.wantLevels)
		}
		if err := coloring.ValidateOLDC(d, inst, res.Colors); err != nil {
			t.Errorf("C=%d: %v", tc.space, err)
		}
	}
}

// TestInnerSolverErrorPropagates ensures a failing inner solver
// surfaces with context instead of being swallowed.
func TestInnerSolverErrorPropagates(t *testing.T) {
	g := graph.Ring(6)
	d := graph.OrientByID(g)
	base, q := properColoring(t, g)
	failing := func(*sim.Engine, *graph.Oriented, *coloring.Instance, []int, int) ([]int, sim.Result, error) {
		return nil, sim.Result{}, twosweep.ErrSlack
	}
	rng := rand.New(rand.NewSource(4))
	inst := coloring.WithOrientedSlack(d, 64, 24, rng)
	if _, _, err := reduceSpace(new(sim.Engine), 4, 2.5, failing, d.Oriented, inst, base, q, nil); err == nil {
		t.Error("inner failure swallowed")
	}
}
