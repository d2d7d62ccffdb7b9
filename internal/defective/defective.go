// Package defective implements Lemma 3.4 of the paper ([Kuh09, KS18]):
// given a proper m-coloring, compute in O(log* m) rounds a coloring
// with O(1/α²) colors in which every node has at most α·β_v
// monochromatic out-neighbors (oriented variant) or at most α·deg(v)
// monochromatic neighbors (undirected variant).
//
// This is the preprocessing step of the Fast-Two-Sweep algorithm
// (Algorithm 2): it replaces the expensive proper q-coloring with a
// cheap defective one, and the Two-Sweep algorithm then runs on the
// subgraph of bichromatic edges with slightly reduced defects.
//
// The implementation delegates to the defect-tolerant polynomial
// color-reduction machinery in package linial, whose per-node hot path
// (received-color table, point-value arrays, coefficient buffers) runs
// on the internal/palette kernel and allocates nothing per round, and
// which records the run's total on cfg.Span.
package defective

import (
	"listcolor/internal/graph"
	"listcolor/internal/linial"
	"listcolor/internal/sim"
)

// ColorOriented computes a defective coloring of the oriented graph d
// from a proper m-coloring: the result has Θ(1/α²) colors and every
// node has at most ⌊α·β_v⌋ out-neighbors of its own color. Runs in
// O(log* m) rounds.
func ColorOriented(d *graph.Digraph, colors []int, m int, alpha float64, cfg sim.Config) (linial.Result, error) {
	return ColorOn(new(sim.Engine), sim.NewOrientedNetwork(d), colors, m, alpha, cfg)
}

// ColorUndirected computes a defective coloring of g from a proper
// m-coloring: the result has Θ(1/α²) colors and every node has at most
// ⌊α·deg(v)⌋ neighbors of its own color. Runs in O(log* m) rounds.
func ColorUndirected(g *graph.Graph, colors []int, m int, alpha float64, cfg sim.Config) (linial.Result, error) {
	return ColorOn(new(sim.Engine), sim.NewNetwork(g), colors, m, alpha, cfg)
}

// ColorOn is ColorOriented on an oriented network and ColorUndirected
// on an unoriented one, run on the engine set-up e of the calling
// solve.
func ColorOn(e *sim.Engine, nw *sim.Network, colors []int, m int, alpha float64, cfg sim.Config) (linial.Result, error) {
	beta := nw.CSR().MaxDegree()
	if o := nw.Oriented(); o != nil {
		beta = o.MaxBeta()
	}
	return linial.ReduceOn(e, nw, colors, m, linial.DefectiveSchedule(m, beta, alpha), nw.Oriented() != nil, cfg)
}

// Palette returns the number of colors the defective coloring will
// use for the given parameters, without running the protocol — the
// K = O(1/α²) that downstream algorithms iterate over.
func Palette(m, beta int, alpha float64) int {
	steps := linial.DefectiveSchedule(m, beta, alpha)
	if len(steps) == 0 {
		return m
	}
	return steps[len(steps)-1].ColorsOut()
}
