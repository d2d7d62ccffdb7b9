package nbhood

import (
	"fmt"
	"math"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/hypergraph"
	"listcolor/internal/linial"
	"listcolor/internal/sim"
)

// trivialArb solves slack-2 instances over a color space of at most
// two colors in O(1) rounds: with Σ(d_v(x)+1) > 2·deg(v) over ≤ 2
// colors, the best color has d_v(x) ≥ deg(v), so every node picks its
// maximum-defect color and any orientation of the monochromatic edges
// (here: toward the smaller id) respects all defects.
func trivialArb(g *graph.CSR, inst *coloring.Instance) (coloring.ArbResult, sim.Result, error) {
	n := g.N()
	colors := make([]int, n)
	for v := 0; v < n; v++ {
		if inst.ListSize(v) == 0 {
			return coloring.ArbResult{}, sim.Result{}, fmt.Errorf("%w: node %d has an empty list", ErrSlack, v)
		}
		best, bestD := inst.Lists[v][0], inst.Defects[v][0]
		for i := 1; i < inst.ListSize(v); i++ {
			if inst.Defects[v][i] > bestD {
				best, bestD = inst.Lists[v][i], inst.Defects[v][i]
			}
		}
		if bestD < g.Degree(v) {
			return coloring.ArbResult{}, sim.Result{}, fmt.Errorf("%w: node %d max defect %d < deg %d at base (space ≤ 2)",
				ErrSlack, v, bestD, g.Degree(v))
		}
		colors[v] = best
	}
	var arcs [][2]int
	for u := 0; u < n; u++ {
		for _, v := range g.Row(u) {
			if u < v && colors[u] == colors[v] {
				arcs = append(arcs, [2]int{v, u}) // toward smaller id
			}
		}
	}
	return coloring.ArbResult{Colors: colors, Arcs: arcs}, sim.Result{Rounds: 1}, nil
}

// solver carries the fixed parameters of the Theorem 1.5 recursion.
// When inner is nil the recursion is self-referential (the
// (θ·logΔ)^{O(loglogΔ)} branch); setting inner to another slack-2
// solver runs just one splitting level above it (the Equation 20
// branch).
type solver struct {
	theta int
	cfg   sim.Config
	inner ArbSolver
}

// next returns the solver used for the reduced sub-instances: the
// injected inner solver, or arb2 itself for the full recursion.
func (s *solver) next() ArbSolver {
	if s.inner != nil {
		return s.inner
	}
	return s.arb2
}

// arb2 solves slack-2 list arbdefective instances; it is the
// T_A(2, C) of the Theorem 1.5 proof. For C ≤ 2 it uses the O(1)
// base; otherwise it reduces slack 2 → μ = 2σ (Lemma 4.4) and hands
// the high-slack instances to the color space reduction.
func (s *solver) arb2(e *sim.Engine, g *graph.CSR, inst *coloring.Instance, base []int, q int) (coloring.ArbResult, sim.Result, error) {
	if g.M() == 0 {
		return edgelessArb(inst, nil)
	}
	if inst.Space <= 2 {
		return trivialArb(g, inst)
	}
	mu := 2 * Theorem14Slack(s.theta, g.MaxDegree(), 2)
	return SlackReduce2(e, g, inst, base, q, mu, s.spaceReduce, s.cfg)
}

// spaceReduce implements Lemmas 4.5/4.6: it solves instances of slack
// > 2σ (σ = Theorem14Slack(θ, Δ(g), 2)) over color space C by
// splitting into p = ⌈√C⌉ blocks. The block choice is a list defective
// instance of slack > σ over the p block indices, solved via
// Theorem 1.4 whose arbdefective sub-instances recurse into arb2 at
// color space p; the per-block sub-instances have slack > 2 over
// space ⌈C/p⌉ ≤ p and also recurse into arb2.
func (s *solver) spaceReduce(e *sim.Engine, g *graph.CSR, inst *coloring.Instance, base []int, q int) (coloring.ArbResult, sim.Result, error) {
	n := g.N()
	c := inst.Space
	p := int(math.Ceil(math.Sqrt(float64(c))))
	blockSize := (c + p - 1) / p
	sigma := Theorem14Slack(s.theta, g.MaxDegree(), 2)

	// Block-choice instance over space p (Eq. 18/19, with ⌊·⌋ so the
	// per-block slack W_i ≥ d_{v,i}·W/(σ·deg) is exact).
	choice := &coloring.Instance{
		Lists:   make([][]int, n),
		Defects: make([][]int, n),
		Space:   p,
	}
	weights := make([]int, p)
	for v := 0; v < n; v++ {
		w := inst.SlackSum(v)
		if w <= 2*sigma*g.Degree(v) {
			return coloring.ArbResult{}, sim.Result{}, fmt.Errorf("%w: node %d has Σ(d+1)=%d ≤ 2σ·deg=%d (Lemma 4.5)",
				ErrSlack, v, w, 2*sigma*g.Degree(v))
		}
		inst.BlockWeights(v, 0, blockSize, weights)
		for blk, wi := range weights {
			if wi == 0 {
				continue
			}
			dvi := sigma * g.Degree(v) * wi / w // ⌊σ·deg·W_i/W⌋
			choice.Lists[v] = append(choice.Lists[v], blk)
			choice.Defects[v] = append(choice.Defects[v], dvi)
		}
	}
	chosen, choiceStats, err := DefectiveFromArb(e, g, choice, base, q, s.theta, 2, s.next())
	if err != nil {
		return coloring.ArbResult{}, sim.Result{}, fmt.Errorf("nbhood: block choice (C=%d): %w", c, err)
	}
	if err := coloring.ValidateListDefective(g, choice, chosen); err != nil {
		return coloring.ArbResult{}, sim.Result{}, fmt.Errorf("nbhood: block choice invalid: %w", err)
	}
	// Per-block sub-instances run in parallel on disjoint subgraphs;
	// blocks have disjoint color ranges, so no cross-block conflicts
	// and no cross-block arcs.
	colors := make([]int, n)
	var arcs [][2]int
	var blockStats sim.Result
	start, byBlock := bucketByClass(chosen, p)
	for blk := 0; blk < p; blk++ {
		members := byBlock[start[blk]:start[blk+1]]
		if len(members) == 0 {
			continue
		}
		lo := blk * blockSize
		sub, orig := g.Induce(members, &e.Index, nil), members
		subInst := &coloring.Instance{
			Lists:   make([][]int, len(orig)),
			Defects: make([][]int, len(orig)),
			Space:   blockSize,
		}
		for i, v := range orig {
			for li, x := range inst.Lists[v] {
				if x >= lo && x < lo+blockSize {
					subInst.Lists[i] = append(subInst.Lists[i], x-lo)
					subInst.Defects[i] = append(subInst.Defects[i], inst.Defects[v][li])
				}
			}
		}
		res, st, err := s.next()(e, sub, subInst, graph.Restrict(base, orig, nil), q)
		if err != nil {
			return coloring.ArbResult{}, sim.Result{}, fmt.Errorf("nbhood: block %d (C=%d): %w", blk, c, err)
		}
		if err := coloring.ValidateListArbdefective(sub, subInst, res); err != nil {
			return coloring.ArbResult{}, sim.Result{}, fmt.Errorf("nbhood: block %d sub-result: %w", blk, err)
		}
		blockStats = sim.Par(blockStats, st)
		for i, v := range orig {
			colors[v] = res.Colors[i] + lo
		}
		for _, a := range res.Arcs {
			arcs = append(arcs, [2]int{orig[a[0]], orig[a[1]]})
		}
	}
	return coloring.ArbResult{Colors: colors, Arcs: arcs}, sim.Seq(choiceStats, blockStats), nil
}

// ArbSlack2Solver returns the Theorem 1.5 recursion's solver for
// slack-2 list arbdefective instances on graphs of neighborhood
// independence ≤ theta — the T_A(2, C) routine. It is exposed so the
// benchmark harness can exercise the reductions (Theorem 1.4,
// Lemmas 4.4/A.1) with the paper's actual subroutine plugged in.
func ArbSlack2Solver(theta int, cfg sim.Config) ArbSolver {
	s := &solver{theta: theta, cfg: cfg}
	return s.arb2
}

// Result is the output of the Theorem 1.5 pipeline.
type Result struct {
	Arb   coloring.ArbResult
	Stats sim.Result
}

// SolveArb implements Theorem 1.5: it solves a slack-1 list
// arbdefective instance (P_A(1, C)) on a graph of neighborhood
// independence ≤ theta, in (θ·log Δ)^{O(log log Δ)} + O(log* n)
// simulated rounds. With an all-zero-defect (deg+1)-list instance the
// result is a proper list coloring.
func SolveArb(g *graph.Graph, inst *coloring.Instance, theta int, cfg sim.Config) (Result, error) {
	if err := inst.Validate(); err != nil {
		return Result{}, err
	}
	if theta < 1 {
		return Result{}, fmt.Errorf("nbhood: theta must be ≥ 1, got %d", theta)
	}
	s := &solver{theta: theta, cfg: cfg.WithoutSpan()}
	return solveSlack1(g, inst, s.arb2, cfg)
}

// solveSlack1 is the top level shared by SolveArb, SolveArbGeneral and
// SolveArbBranch2: a Linial bootstrap, then Lemma A.1 (μ = 2) over the
// slack-2 solver arb2. The bootstrap and the scales are recorded under
// cfg.Span, and the total on it; arb2 must not record spans.
func solveSlack1(g *graph.Graph, inst *coloring.Instance, arb2 ArbSolver, cfg sim.Config) (Result, error) {
	c, e := graph.CSRFromGraph(g), new(sim.Engine)
	base, err := linial.ColorCSRFromIDs(e, c, cfg.WithoutSpan())
	if err != nil {
		return Result{}, fmt.Errorf("nbhood: bootstrap: %w", err)
	}
	cfg.Span.Child("Linial bootstrap (log* n)").Done(base.Stats)
	arb, stats, err := SlackReduce1(e, c, inst, base.Colors, base.Palette, 2, arb2, cfg)
	if err != nil {
		return Result{}, err
	}
	res := Result{Arb: arb, Stats: sim.Seq(base.Stats, stats)}
	cfg.Span.Done(res.Stats)
	return res, nil
}

// HyperedgeColor properly colors the hyperedges of a rank-r
// hypergraph (intersecting hyperedges get different colors) by
// running the Theorem 1.5 pipeline on its line graph, whose
// neighborhood independence is at most r — the second application the
// paper names for Section 4. The palette has r·(D−1)+1 colors, where
// D is the maximum vertex degree of the hypergraph (every hyperedge
// intersects at most r·(D−1) others), generalizing the (2Δ−1)-edge
// coloring of graphs (r = 2, D = Δ).
func HyperedgeColor(h *hypergraph.Hypergraph, cfg sim.Config) (edgeColors []int, palette int, stats sim.Result, err error) {
	lg := h.LineGraph()
	rank := h.Rank()
	if rank < 2 {
		return nil, 0, sim.Result{}, fmt.Errorf("nbhood: hypergraph has no hyperedges")
	}
	maxVertexDeg := 1
	for v := 0; v < h.N(); v++ {
		if d := h.VertexDegree(v); d > maxVertexDeg {
			maxVertexDeg = d
		}
	}
	palette = rank*(maxVertexDeg-1) + 1
	if lgDelta := lg.RawMaxDegree(); palette < lgDelta+1 {
		palette = lgDelta + 1 // parallel hyperedges can exceed the bound
	}
	res, err := SolveArb(lg, coloring.FullPalette(lg.N(), palette, 0), rank, cfg)
	if err != nil {
		return nil, 0, sim.Result{}, fmt.Errorf("nbhood: hyperedge coloring: %w", err)
	}
	if len(res.Arb.Arcs) > 0 {
		return nil, 0, sim.Result{}, fmt.Errorf("nbhood: hyperedge coloring produced intersecting same-color hyperedges")
	}
	return res.Arb.Colors, palette, res.Stats, nil
}

// EdgeColor computes a (2Δ−1)-edge coloring of g by running the
// Theorem 1.5 pipeline on the line graph of g (neighborhood
// independence ≤ 2). It returns one color per edge of g.Edges(), the
// palette size 2Δ−1, and the simulation statistics.
func EdgeColor(g *graph.Graph, cfg sim.Config) (edgeColors []int, palette int, stats sim.Result, err error) {
	lg, _ := graph.LineGraph(g)
	palette = 2*g.MaxDegree() - 1
	res, err := SolveArb(lg, coloring.FullPalette(lg.N(), palette, 0), 2, cfg)
	if err != nil {
		return nil, 0, sim.Result{}, fmt.Errorf("nbhood: edge coloring: %w", err)
	}
	if len(res.Arb.Arcs) > 0 {
		return nil, 0, sim.Result{}, fmt.Errorf("nbhood: edge coloring produced monochromatic incidences")
	}
	return res.Arb.Colors, palette, res.Stats, nil
}
