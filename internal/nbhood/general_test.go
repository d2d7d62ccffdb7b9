package nbhood

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

func TestOLDCAsArb(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomRegular(40, 4, rng)
	base, q := properColoring(t, g)
	space := 36
	need := math.Ceil(3 * math.Sqrt(float64(space)))
	inst := coloring.WithSlack(g, space, need+1, rng)
	res, _, err := OLDCAsArb(sim.Config{})(new(sim.Engine), graph.CSRFromGraph(g), inst, base, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.ValidateListArbdefective(g, inst, res); err != nil {
		t.Error(err)
	}
}

func TestGeneralArb2Solver(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// General graphs: no θ bound — GNP and complete graphs included.
	for _, g := range []*graph.Graph{
		graph.GNP(40, 0.3, rng),
		graph.Complete(10),
		graph.Grid(5, 5),
	} {
		base, q := properColoring(t, g)
		inst := coloring.WithSlack(g, 30, 2.3, rng)
		res, _, err := GeneralArb2Solver(sim.Config{})(new(sim.Engine), graph.CSRFromGraph(g), inst, base, q)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if err := coloring.ValidateListArbdefective(g, inst, res); err != nil {
			t.Errorf("%v: %v", g, err)
		}
	}
}

func TestSolveArbGeneralProperColoring(t *testing.T) {
	// Zero-defect (deg+1)-lists on arbitrary graphs → proper coloring,
	// without any neighborhood-independence assumption.
	rng := rand.New(rand.NewSource(3))
	for _, g := range []*graph.Graph{
		graph.GNP(30, 0.3, rng),
		graph.Complete(8),
	} {
		inst := coloring.DegreePlusOne(g, g.MaxDegree()+2, rng)
		res, err := SolveArbGeneral(g, inst, sim.Config{})
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if err := coloring.ValidateProperList(g, inst, res.Arb.Colors); err != nil {
			t.Errorf("%v: %v", g, err)
		}
		if len(res.Arb.Arcs) != 0 {
			t.Errorf("%v: zero-defect run produced arcs", g)
		}
	}
}

func TestSolveArbGeneralWithDefects(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomRegular(36, 6, rng)
	inst := coloring.WithSlack(g, 20, 1.4, rng)
	res, err := SolveArbGeneral(g, inst, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.ValidateListArbdefective(g, inst, res.Arb); err != nil {
		t.Error(err)
	}
}

func TestSolveArbBranch2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Bounded-θ workloads: both branches must be valid; this pins the
	// Equation 20 branch.
	lg, _ := graph.LineGraph(graph.Grid(2, 4))
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		theta int
	}{
		{"ring(14)", graph.Ring(14), 2},
		{"L(grid(2,4))", lg, 2},
	} {
		inst := coloring.WithSlack(tc.g, 18, 1.4, rng)
		res, err := SolveArbBranch2(tc.g, inst, tc.theta, sim.Config{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := coloring.ValidateListArbdefective(tc.g, inst, res.Arb); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestBranchesAgreeOnValidity(t *testing.T) {
	// Both Theorem 1.5 branches and the general solver produce valid
	// results on the same bounded-θ workload (colors may differ).
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%10)*2 + 8
		rng := rand.New(rand.NewSource(seed))
		g := graph.Ring(n)
		inst := coloring.WithSlack(g, 16, 1.3, rng)
		r1, err := SolveArb(g, inst.Clone(), 2, sim.Config{})
		if err != nil || coloring.ValidateListArbdefective(g, inst, r1.Arb) != nil {
			return false
		}
		r2, err := SolveArbBranch2(g, inst.Clone(), 2, sim.Config{})
		if err != nil || coloring.ValidateListArbdefective(g, inst, r2.Arb) != nil {
			return false
		}
		r3, err := SolveArbGeneral(g, inst.Clone(), sim.Config{})
		if err != nil || coloring.ValidateListArbdefective(g, inst, r3.Arb) != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
