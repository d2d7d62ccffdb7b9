package csr

import (
	"fmt"
	"math"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

// Solver solves OLDC instances on (sub)graphs: given an orientation, a
// structurally valid instance, and a proper q-coloring, it returns a
// coloring with at most d_v(x_v) same-colored out-neighbors per node.
// Its runs use the engine set-up e of the calling solve. A Solver
// declares its slack requirement out of band (the κ of Lemma 3.5).
type Solver func(e *sim.Engine, d *graph.Oriented, inst *coloring.Instance, initColors []int, q int) ([]int, sim.Result, error)

// group is one vertex-disjoint recursion cell: the nodes (original
// ids) currently assigned to the color block [blockLo, blockLo+size).
type group struct {
	nodes   []int
	blockLo int
}

// reduceSpace implements Lemma 3.5 (Theorem 3 of [FK23a], specialized
// to this library's solvers): given a Solver a that handles OLDC
// instances over color spaces of size ≤ lambda whenever
// Σ(d_v(x)+1) ≥ β_v·kappa, it solves ARBITRARY color spaces C
// whenever Σ(d_v(x)+1) ≥ β_v·kappa^⌈log_λ C⌉. Solve runs it with
// λ = 4.
//
// The space is padded to λ^k (k = ⌈log_λ C⌉) and recursively split
// into λ blocks per level. Each level, every group of nodes sharing a
// current block solves a λ-color OLDC instance — choosing its
// sub-block, with block defects δ_{v,i} = ⌊W_{v,i}/κ^{j−1}⌋ where
// W_{v,i} is the slack mass of block i — using a. The OLDC guarantee
// (at most δ out-neighbors choose the same block) sustains the
// invariant W ≥ β·κ^j on vertex-disjoint subgraphs, which run in
// parallel. At the bottom, blocks have ≤ λ colors and a assigns the
// final colors directly.
//
// Round cost: ⌈log_λ C⌉ sequential levels, each the parallel maximum
// of the group runs — O(T_a·log_λ C), as Lemma 3.5 states. The levels
// and groups are recorded under cfgSpan when it is non-nil.
func reduceSpace(e *sim.Engine, lambda int, kappa float64, a Solver, d *graph.Oriented, inst *coloring.Instance, initColors []int, q int, cfgSpan *sim.Span) ([]int, sim.Result, error) {
	n := d.N()
	// k = ⌈log_λ C⌉ levels; the space is treated as padded to λ^k.
	k := 0
	for pow := 1; pow < inst.Space; pow *= lambda {
		k++
	}
	out := make([]int, n)
	var total sim.Result
	groups := []group{{nodes: graph.Vertices(n), blockLo: 0}}
	sub := sim.Borrow[flatInstance](e) // every group's λ-color instance, in turn
	defer sim.Return(e, sub)
	for level := k; level >= 1; level-- {
		blockSize := powInt(lambda, level)
		subSize := blockSize / lambda
		// Labels are formatted only under a span: class solves run
		// span-free, and there the labels would be thrown away.
		var levelSpan *sim.Span
		if cfgSpan != nil {
			levelSpan = cfgSpan.Child(fmt.Sprintf("level %d: %d group(s), blocks of %d", level, len(groups), blockSize))
		}
		var levelStats sim.Result
		var next []group
		for _, grp := range groups {
			var grpSpan *sim.Span
			if levelSpan != nil {
				grpSpan = levelSpan.Child(fmt.Sprintf("block@%d (%d nodes)", grp.blockLo, len(grp.nodes)))
			}
			var stats sim.Result
			var err error
			if level == 1 {
				stats, err = solveBase(e, a, d, inst, initColors, q, grp, sub.reset(len(grp.nodes), lambda), out)
			} else {
				var children []group
				children, stats, err = solveChoice(e, a, d, inst, initColors, q, grp, sub.reset(len(grp.nodes), lambda), subSize, kappa, float64(level-1))
				next = append(next, children...)
			}
			if err != nil {
				return nil, sim.Result{}, err
			}
			grpSpan.Done(stats)
			levelStats = sim.Par(levelStats, stats)
		}
		levelSpan.Done(levelStats)
		total = sim.Seq(total, levelStats)
		groups = next
	}
	if k == 0 {
		// C ≤ 1: every node takes its single color (callers validate
		// non-empty lists).
		for v := 0; v < n; v++ {
			if inst.ListSize(v) == 0 {
				return nil, sim.Result{}, fmt.Errorf("csr: node %d has an empty list", v)
			}
			out[v] = inst.Lists[v][0]
		}
	}
	return out, total, nil
}

// solveChoice runs one level's block-choice OLDC on a group and
// returns the child groups.
func solveChoice(e *sim.Engine, a Solver, d *graph.Oriented, inst *coloring.Instance, initColors []int, q int, grp group, choice *flatInstance, subSize int, kappa, levelsBelow float64) ([]group, sim.Result, error) {
	weightDiv := math.Pow(kappa, levelsBelow) // κ^{j-1}
	lambda := choice.Space
	weights := choice.weights[:lambda]
	for i, v := range grp.nodes {
		inst.BlockWeights(v, grp.blockLo, subSize, weights)
		for blk, w := range weights {
			if w == 0 {
				continue // empty block: not a valid choice
			}
			choice.add(i, blk, int(math.Floor(float64(w)/weightDiv)))
		}
	}
	dInd := d.Induce(grp.nodes, &e.Index)
	colors, stats, err := a(e, dInd, &choice.Instance, graph.Restrict(initColors, grp.nodes), q)
	if err != nil {
		return nil, sim.Result{}, fmt.Errorf("csr: block choice (block %d, size %d·%d): %w", grp.blockLo, lambda, subSize, err)
	}
	if err := coloring.ValidateOLDC(dInd, &choice.Instance, colors); err != nil {
		return nil, sim.Result{}, fmt.Errorf("csr: block choice produced invalid OLDC: %w", err)
	}
	// One bucket per block (ValidateOLDC has checked that every block
	// lies in [0, λ)); empty blocks are then dropped in place.
	children := make([]group, lambda)
	for i, blk := range colors {
		children[blk].nodes = append(children[blk].nodes, grp.nodes[i])
	}
	out := children[:0]
	for blk, c := range children {
		if len(c.nodes) > 0 {
			out = append(out, group{nodes: c.nodes, blockLo: grp.blockLo + blk*subSize})
		}
	}
	return out, stats, nil
}

// solveBase assigns actual colors within a block of ≤ lambda colors,
// remapping to [0, lambda) so the inner solver sees a λ-sized space.
func solveBase(e *sim.Engine, a Solver, d *graph.Oriented, inst *coloring.Instance, initColors []int, q int, grp group, sub *flatInstance, out []int) (sim.Result, error) {
	lambda := sub.Space
	for i, v := range grp.nodes {
		for li, x := range inst.Lists[v] {
			if x >= grp.blockLo && x < grp.blockLo+lambda {
				sub.add(i, x-grp.blockLo, inst.Defects[v][li])
			}
		}
	}
	dInd := d.Induce(grp.nodes, &e.Index)
	colors, stats, err := a(e, dInd, &sub.Instance, graph.Restrict(initColors, grp.nodes), q)
	if err != nil {
		return sim.Result{}, fmt.Errorf("csr: base level (block %d): %w", grp.blockLo, err)
	}
	if err := coloring.ValidateOLDC(dInd, &sub.Instance, colors); err != nil {
		return sim.Result{}, fmt.Errorf("csr: base level produced invalid OLDC: %w", err)
	}
	for i, v := range grp.nodes {
		out[v] = colors[i] + grp.blockLo
	}
	return stats, nil
}

// flatInstance is a λ-color sub-instance whose lists and defects are
// windows of two flat arrays, at most λ entries per node. One serves
// every group of a recursion in turn (a Solver keeps no instance past
// its return), borrowed from the solve's engine, so the arrays are
// allocated once per solve, at the largest group.
type flatInstance struct {
	coloring.Instance
	lists, defects []int
	weights        []int // one node's λ block weights, for a block choice
}

// reset empties f for n nodes of a λ-color space and returns it.
func (f *flatInstance) reset(n, lambda int) *flatInstance {
	if cap(f.Lists) < n {
		f.Lists, f.Defects = make([][]int, n), make([][]int, n)
	}
	f.Lists, f.Defects, f.Space = f.Lists[:n], f.Defects[:n], lambda
	clear(f.Lists)
	clear(f.Defects)
	if len(f.lists) < n*lambda {
		f.lists, f.defects = make([]int, n*lambda), make([]int, n*lambda)
	}
	if len(f.weights) < lambda {
		f.weights = make([]int, lambda)
	}
	return f
}

// add appends color x with defect dx to node i's list, which must stay
// ascending.
func (f *flatInstance) add(i, x, dx int) {
	lo, at := i*f.Space, i*f.Space+len(f.Lists[i])
	f.lists[at], f.defects[at] = x, dx
	f.Lists[i], f.Defects[i] = f.lists[lo:at+1:lo+f.Space], f.defects[lo:at+1:lo+f.Space]
}

func powInt(base, exp int) int {
	r := 1
	for i := 0; i < exp; i++ {
		r *= base
	}
	return r
}
