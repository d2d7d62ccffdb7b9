package classic

import (
	"math/rand"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/linial"
	"listcolor/internal/sim"
)

func properColoring(t testing.TB, g *graph.Graph) ([]int, int) {
	t.Helper()
	res, err := linial.ColorFromIDs(g, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Colors, res.Palette
}

// arbInstance wraps a uniform-defect arbdefective expectation as an
// Instance so the shared validator can be used.
func arbInstance(n, c, d int) *coloring.Instance {
	in := &coloring.Instance{Space: c, Lists: make([][]int, n), Defects: make([][]int, n)}
	full := make([]int, c)
	for i := range full {
		full[i] = i
	}
	defs := make([]int, c)
	for i := range defs {
		defs[i] = d
	}
	for v := 0; v < n; v++ {
		in.Lists[v] = full
		in.Defects[v] = defs
	}
	return in
}

func TestSweepArbMatchesGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{0, 1, 3} {
		g := graph.RandomRegular(60, 6, rng)
		init, q := properColoring(t, g)
		colors, arcs, c, stats, err := SweepArb(g, init, q, d, sim.Config{})
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if err := coloring.ValidateListArbdefective(g, arbInstance(g.N(), c, d),
			coloring.ArbResult{Colors: colors, Arcs: arcs}); err != nil {
			t.Errorf("d=%d: %v", d, err)
		}
		if stats.Rounds > q+1 {
			t.Errorf("d=%d: %d rounds for a single sweep over q=%d classes", d, stats.Rounds, q)
		}
	}
}

func TestSweepArbClaim41(t *testing.T) {
	// Claim 4.1: on a graph of neighborhood independence θ, the
	// d-arbdefective sweep is a (2d+1)·θ-DEFECTIVE coloring.
	rng := rand.New(rand.NewSource(2))
	base := graph.RandomRegular(16, 4, rng)
	lg, _ := graph.LineGraph(base) // θ ≤ 2
	theta := 2
	init, q := properColoring(t, lg)
	for _, d := range []int{0, 1, 2} {
		colors, _, _, _, err := SweepArb(lg, init, q, d, sim.Config{})
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		mono := graph.MonochromaticDegree(lg, colors)
		for v, m := range mono {
			if m > (2*d+1)*theta {
				t.Errorf("d=%d: node %d has defect %d > (2d+1)θ = %d", d, v, m, (2*d+1)*theta)
			}
		}
	}
}

func TestProductDefectiveBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		g *graph.Graph
		c int
	}{
		{graph.RandomRegular(80, 8, rng), 3},
		{graph.GNP(60, 0.2, rng), 4},
		{graph.Ring(30), 2},
	} {
		init, q := properColoring(t, tc.g)
		colors, stats, err := ProductDefective(tc.g, init, q, tc.c, sim.Config{})
		if err != nil {
			t.Fatalf("%v: %v", tc.g, err)
		}
		if mc := graph.MaxColor(colors); mc >= tc.c*tc.c {
			t.Errorf("%v: color %d outside c² = %d", tc.g, mc, tc.c*tc.c)
		}
		allowed := 2 * (tc.g.RawMaxDegree() / tc.c)
		mono := graph.MonochromaticDegree(tc.g, colors)
		for v, m := range mono {
			if m > allowed {
				t.Errorf("%v: node %d defect %d > 2⌊Δ/c⌋ = %d", tc.g, v, m, allowed)
			}
		}
		if stats.Rounds > 2*q+1 {
			t.Errorf("%v: %d rounds for two sweeps over q=%d", tc.g, stats.Rounds, q)
		}
	}
}

func TestProductDefectiveOneColor(t *testing.T) {
	// c = 1: everything monochromatic, defect = deg — still "valid"
	// for the 2⌊Δ/1⌋ bound.
	g := graph.Ring(8)
	init, q := properColoring(t, g)
	colors, _, err := ProductDefective(g, init, q, 1, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range colors {
		if c != 0 {
			t.Error("c=1 must produce the all-zero coloring")
		}
	}
}

func TestInputValidation(t *testing.T) {
	g := graph.Ring(4)
	if _, _, _, _, err := SweepArb(g, []int{0, 0, 1, 0}, 2, 1, sim.Config{}); err == nil {
		t.Error("accepted improper initial coloring")
	}
	if _, _, _, _, err := SweepArb(g, []int{0, 1}, 2, 1, sim.Config{}); err == nil {
		t.Error("accepted short initial coloring")
	}
	if _, _, err := ProductDefective(g, []int{0, 1, 0, 1}, 2, 0, sim.Config{}); err == nil {
		t.Error("accepted c = 0")
	}
	if _, _, err := ProductDefective(g, []int{0, 5, 0, 1}, 2, 2, sim.Config{}); err == nil {
		t.Error("accepted out-of-range initial color")
	}
}

func TestDriversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.GNP(30, 0.3, rng)
	init, q := properColoring(t, g)
	a, _, _, _, err := SweepArb(g, init, q, 2, sim.Config{Driver: sim.Lockstep})
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, _, err := SweepArb(g, init, q, 2, sim.Config{Driver: sim.Workers})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("drivers disagree")
		}
	}
}
