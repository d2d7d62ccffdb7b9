package coloring

import (
	"math"

	"listcolor/internal/graph"
)

// Headroom describes how far a coloring sits inside its defect
// budgets: Min is the smallest remaining budget d_v(x_v) − conflicts_v
// over all nodes (negative iff the coloring violates a budget), MinAt
// the node attaining it, and Tight the number of nodes with zero
// remaining budget.
type Headroom struct {
	Min   int
	MinAt int
	Tight int
}

func budgetHeadroom(in *Instance, colors []int, conflicts func(v int) int) (Headroom, error) {
	if err := checkColorsInLists(in, colors); err != nil {
		return Headroom{}, err
	}
	h := Headroom{Min: math.MaxInt, MinAt: -1}
	for v, x := range colors {
		allowed, _ := in.DefectOf(v, x)
		rem := allowed - conflicts(v)
		if rem < h.Min {
			h.Min, h.MinAt = rem, v
		}
		if rem == 0 {
			h.Tight++
		}
	}
	if h.MinAt < 0 { // no nodes
		h.Min = 0
	}
	return h, nil
}

// OLDCHeadroom measures the oriented defect-budget headroom of a
// coloring: remaining budget counts same-colored OUT-neighbors. The
// coloring is OLDC-valid iff Min ≥ 0; conformance checks record Min so
// that a solver drifting toward its budget (or past it, off-by-one
// bugs) is visible with the exact node and margin.
func OLDCHeadroom(d *graph.Digraph, in *Instance, colors []int) (Headroom, error) {
	return budgetHeadroom(in, colors, func(v int) int {
		c := 0
		for _, u := range d.Out(v) {
			if colors[u] == colors[v] {
				c++
			}
		}
		return c
	})
}
