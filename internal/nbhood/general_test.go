package nbhood

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/linial"
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

// TestEngineReusedAcrossSolves runs Theorem 1.5's general-graph
// pipeline (SolveArbGeneral: Lemma A.1 over Lemma 4.4 over the
// Theorem 1.2 solver) and Lemma 4.4 over Theorem 1.2 alone
// (SlackReduce2, as GeneralArb2Solver does) on one engine per
// pipeline, a larger instance then a smaller one and the reverse. A
// class step of the outer loop runs a whole inner class loop, and every
// inner class a color space reduction, all borrowing from the same
// engine; each solve must equal the same solve on a fresh engine
// (colors, arcs, stats and span tree), and the pipeline's solves must
// equal SolveArbGeneral's.
func TestEngineReusedAcrossSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	big, small := graph.GNP(40, 0.25, rng), graph.RandomRegular(20, 4, rng)
	// Each case has a slack-1 instance for SolveArbGeneral and a
	// slack-2 one for SlackReduce2.
	cases := []struct {
		g           *graph.Graph
		inst, inst2 *coloring.Instance
	}{
		{big, coloring.DegreePlusOne(big, big.MaxDegree()+2, rng), coloring.WithSlack(big, 30, 2.3, rng)},
		{small, coloring.WithSlack(small, 20, 1.4, rng), coloring.WithSlack(small, 20, 2.5, rng)},
		{big, coloring.WithSlack(big, 30, 1.2, rng), coloring.WithSlack(big, 64, 2.2, rng)},
	}
	type outcome struct {
		arb   coloring.ArbResult
		stats sim.Result
		spans string
	}
	same := func(a, b outcome) bool {
		return slices.Equal(a.arb.Colors, b.arb.Colors) && slices.Equal(a.arb.Arcs, b.arb.Arcs) && a.stats == b.stats && a.spans == b.spans
	}
	// general is SolveArbGeneral on the engine e.
	general := func(e *sim.Engine, g *graph.Graph, inst *coloring.Instance) outcome {
		t.Helper()
		c, span := graph.CSRFromGraph(g), sim.NewSpan("general")
		base, err := linial.ColorCSRFromIDs(e, c, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		arb, stats, err := SlackReduce1(e, c, inst, base.Colors, base.Palette, 2, GeneralArb2Solver(sim.Config{}), sim.Config{Span: span})
		if err != nil {
			t.Fatal(err)
		}
		return outcome{arb, sim.Seq(base.Stats, stats), span.Render(4, 0)}
	}
	lemma44 := func(e *sim.Engine, g *graph.Graph, inst *coloring.Instance) outcome {
		t.Helper()
		base, q := properColoring(t, g)
		mu, span := int(math.Ceil(3*math.Sqrt(float64(inst.Space)))), sim.NewSpan("lemma 4.4")
		arb, stats, err := SlackReduce2(e, graph.CSRFromGraph(g), inst, base, q, mu, OLDCAsArb(sim.Config{}), sim.Config{Span: span})
		if err != nil {
			t.Fatal(err)
		}
		return outcome{arb, stats, span.Render(4, 0)}
	}
	for _, p := range []struct {
		name  string
		solve func(*sim.Engine, *graph.Graph, *coloring.Instance) outcome
	}{{"SolveArbGeneral", general}, {"SlackReduce2", lemma44}} {
		e := new(sim.Engine)
		for i, tc := range cases {
			inst := tc.inst
			if p.name == "SlackReduce2" {
				inst = tc.inst2
			}
			got, want := p.solve(e, tc.g, inst), p.solve(new(sim.Engine), tc.g, inst)
			if !same(got, want) {
				t.Errorf("%s solve %d (n=%d): reused engine %+v, fresh engine %+v", p.name, i, tc.g.N(), got, want)
			}
			if p.name != "SolveArbGeneral" {
				continue
			}
			res, err := SolveArbGeneral(tc.g, tc.inst, sim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Arb.Colors, want.arb.Colors) || !slices.Equal(res.Arb.Arcs, want.arb.Arcs) || res.Stats != want.stats {
				t.Errorf("solve %d: SolveArbGeneral gives %+v %+v, the pipeline on an engine %+v %+v", i, res.Arb, res.Stats, want.arb, want.stats)
			}
		}
	}
}
