package nbhood

import (
	"fmt"
	"math"

	"listcolor/internal/coloring"
	"listcolor/internal/csr"
	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

// OLDCAsArb adapts the Theorem 1.2 OLDC solver into an ArbSolver: the
// graph is oriented by id, the OLDC is solved, and the monochromatic
// edges inherit the input orientation (an OLDC solution IS a valid
// arbdefective solution under its own orientation). The adapter
// requires slack > ⌈3√C⌉ (so that Σ(d+1) ≥ 3√C·β_v holds for the
// id-orientation, whose out-degrees are bounded by the degrees).
func OLDCAsArb(cfg sim.Config) ArbSolver {
	return func(e *sim.Engine, g *graph.CSR, inst *coloring.Instance, base []int, q int) (coloring.ArbResult, sim.Result, error) {
		byID := sim.Borrow[idOrientation](e)
		defer sim.Return(e, byID)
		d := graph.OrientCSRByID(g, &byID.Oriented)
		res, err := csr.SolveOn(e, d, inst, base, q, cfg)
		if err != nil {
			return coloring.ArbResult{}, sim.Result{}, fmt.Errorf("nbhood: OLDC adapter: %w", err)
		}
		var arcs [][2]int
		for v := 0; v < g.N(); v++ {
			for _, u := range d.Out(v) {
				if res.Colors[v] == res.Colors[u] {
					arcs = append(arcs, [2]int{v, u})
				}
			}
		}
		return coloring.ArbResult{Colors: res.Colors, Arcs: arcs}, res.Stats, nil
	}
}

// idOrientation is the orientation by id OLDCAsArb gives each graph
// it solves, borrowed from the solve's engine so that its split
// offsets are re-carved from class to class.
type idOrientation struct{ graph.Oriented }

// GeneralArb2Solver returns a slack-2 list arbdefective solver that
// works on EVERY graph (no neighborhood-independence assumption): it
// reduces slack 2 → μ = ⌈3√C⌉ via Lemma 4.4 and solves the high-slack
// classes with Theorem 1.2. This is the "via the proof of Theorem 1.3"
// solver the Theorem 1.5 proof plugs in at recursion depth i = 1
// (Equation 20).
func GeneralArb2Solver(cfg sim.Config) ArbSolver {
	return func(e *sim.Engine, g *graph.CSR, inst *coloring.Instance, base []int, q int) (coloring.ArbResult, sim.Result, error) {
		mu := int(math.Ceil(3 * math.Sqrt(float64(inst.Space))))
		return SlackReduce2(e, g, inst, base, q, mu, OLDCAsArb(cfg.WithoutSpan()), cfg)
	}
}

// SolveArbGeneral solves a slack-1 list arbdefective instance on an
// arbitrary graph: Lemma A.1 (μ = 2) over the general slack-2 solver.
// Its round complexity is Õ(C·log Δ·polylog C) — the general-graph
// counterpart of SolveArb, trading Theorem 1.5's bounded-θ requirement
// for a higher round count.
func SolveArbGeneral(g *graph.Graph, inst *coloring.Instance, cfg sim.Config) (Result, error) {
	if err := inst.Validate(); err != nil {
		return Result{}, err
	}
	return solveSlack1(g, inst, GeneralArb2Solver(cfg.WithoutSpan()), cfg)
}

// SolveArbBranch2 implements the second branch of Theorem 1.5's
// min{...} (Equation 20): ONE level of slack reduction + color space
// splitting (to space ⌈√C⌉), with the sub-instances solved by the
// general-graph solver — O(θ²·Δ^{1/4}·polylog) rounds instead of the
// quasi-polylog recursion. Preferable when θ is large relative to Δ.
func SolveArbBranch2(g *graph.Graph, inst *coloring.Instance, theta int, cfg sim.Config) (Result, error) {
	if err := inst.Validate(); err != nil {
		return Result{}, err
	}
	if theta < 1 {
		return Result{}, fmt.Errorf("nbhood: theta must be ≥ 1, got %d", theta)
	}
	sub := cfg.WithoutSpan()
	s := &solver{theta: theta, cfg: sub, inner: GeneralArb2Solver(sub)}
	return solveSlack1(g, inst, s.arb2, cfg)
}
