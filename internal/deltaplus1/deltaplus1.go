// Package deltaplus1 computes proper (deg+1)-list colorings in the
// CONGEST model (the problem of Theorem 1.3): every node v has a list
// L_v of at least deg(v)+1 colors from a space of size C = O(Δ) and
// must pick a color differing from all neighbors.
//
// Solve is a Linial bootstrap (O(log* n) rounds, a proper O(Δ²)
// coloring) followed by Lemma A.1's degree-halving loop,
// nbhood.DegreeHalving, at μ = ⌈3√C⌉: an active class member keeps
// slack ≥ μ over its active same-class degree, which is what the
// Theorem 1.2 solver (nbhood.OLDCAsArb over package csr) needs to
// color each class properly in O(log³C + log* q) rounds. Theorem 1.5
// runs the same loop at μ = 2 over its own slack-2 solver.
//
// Complexity note: this is the paper's own Lemma A.1 reduction and
// costs O(C·log Δ) calls of the Theorem 1.2 solver — Õ(Δ·log Δ)
// rounds overall. Theorem 1.3's stronger Õ(√Δ) + O(log* n) bound
// plugs Theorem 1.2 into the framework of [FK23a, Theorem 4], whose
// internals the paper cites but does not describe; EXPERIMENTS.md
// records the measured shape of this implementation against both
// bounds.
package deltaplus1

import (
	"errors"
	"fmt"
	"math"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/linial"
	"listcolor/internal/nbhood"
	"listcolor/internal/sim"
)

// ErrNotDegPlusOne is returned when the instance is not a valid
// (deg+1)-list coloring instance (non-zero defects or short lists).
var ErrNotDegPlusOne = errors.New("deltaplus1: not a (deg+1)-list instance")

// Result is the outcome of a (deg+1)-list coloring run.
type Result struct {
	Colors []int
	Stats  sim.Result
	// Scales is the number of degree-halving scales used.
	Scales int
	// OLDCCalls counts invocations of the Theorem 1.2 solver.
	OLDCCalls int
}

// Check verifies the (deg+1)-list preconditions: zero defects and
// |L_v| ≥ deg(v)+1.
func Check(g *graph.Graph, inst *coloring.Instance) error {
	if inst.N() != g.N() {
		return fmt.Errorf("%w: %d lists for %d nodes", ErrNotDegPlusOne, inst.N(), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if inst.ListSize(v) < g.Degree(v)+1 {
			return fmt.Errorf("%w: node %d has %d colors for degree %d", ErrNotDegPlusOne, v, inst.ListSize(v), g.Degree(v))
		}
		for _, d := range inst.Defects[v] {
			if d != 0 {
				return fmt.Errorf("%w: node %d has non-zero defect", ErrNotDegPlusOne, v)
			}
		}
	}
	return nil
}

// Solve colors the (deg+1)-list instance properly: a Linial bootstrap,
// then nbhood.DegreeHalving at μ = ⌈3√C⌉ with the Theorem 1.2 solver
// (nbhood.OLDCAsArb) on each class. The bootstrap and the scales are
// recorded under cfg.Span, and the total on it.
func Solve(g *graph.Graph, inst *coloring.Instance, cfg sim.Config) (Result, error) {
	if err := inst.Validate(); err != nil {
		return Result{}, err
	}
	if err := Check(g, inst); err != nil {
		return Result{}, err
	}
	sub := cfg.WithoutSpan() // sub-solvers record no spans
	c, e := graph.CSRFromGraph(g), new(sim.Engine)
	base, err := linial.ColorCSRFromIDs(e, c, sub)
	if err != nil {
		return Result{}, fmt.Errorf("deltaplus1: bootstrap: %w", err)
	}
	cfg.Span.Child("Linial bootstrap (log* n)").Done(base.Stats)
	var res Result
	oldc := nbhood.OLDCAsArb(sub)
	counted := func(e *sim.Engine, class *graph.CSR, classInst *coloring.Instance, classBase []int, q int) (coloring.ArbResult, sim.Result, error) {
		res.OLDCCalls++
		return oldc(e, class, classInst, classBase, q)
	}
	mu := int(math.Ceil(3 * math.Sqrt(float64(inst.Space))))
	arb, stats, scales, err := nbhood.DegreeHalving(e, c, inst, base.Colors, base.Palette, mu, counted, cfg)
	if err != nil {
		return Result{}, fmt.Errorf("deltaplus1: %w", err)
	}
	res.Colors, res.Stats, res.Scales = arb.Colors, sim.Seq(base.Stats, stats), scales
	cfg.Span.Done(res.Stats)
	return res, nil
}
