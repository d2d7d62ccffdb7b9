package coloring

import (
	"fmt"

	"listcolor/internal/graph"
)

// checkColorsInLists verifies colors has the right length and every
// node picked a color from its own list; the checks that follow look
// each chosen color's defect up again with DefectOf.
func checkColorsInLists(in *Instance, colors []int) error {
	if len(colors) != in.N() {
		return fmt.Errorf("%w: %d colors for %d nodes", ErrViolation, len(colors), in.N())
	}
	for v, x := range colors {
		if _, ok := in.DefectOf(v, x); !ok {
			return fmt.Errorf("%w: node %d chose color %d ∉ L_v", ErrViolation, v, x)
		}
	}
	return nil
}

// Orientation is the read-only view of an edge orientation that
// ValidateOLDC and the solvers' slack checks read; graph.Digraph and
// its CSR form graph.Oriented satisfy it.
type Orientation interface {
	N() int
	Out(v int) []int
	Outdeg(v int) int
	Beta(v int) int
}

// Adjacency is a Topology that answers edge queries, as graph.Graph
// and graph.CSR do.
type Adjacency interface {
	Topology
	HasEdge(u, v int) bool
}

// ValidateOLDC checks an oriented list defective coloring: every node
// v must have at most d_v(colors[v]) out-neighbors with its color.
func ValidateOLDC(d Orientation, in *Instance, colors []int) error {
	return validateDefects(in, colors, d.Out, "out-neighbors")
}

// ValidateListDefective checks a (plain) list defective coloring:
// every node v must have at most d_v(colors[v]) neighbors with its
// color.
func ValidateListDefective(g Topology, in *Instance, colors []int) error {
	return validateDefects(in, colors, g.Neighbors, "neighbors")
}

// validateDefects checks that every node v has at most d_v(colors[v])
// nodes of its color among rows(v), which the error calls what.
func validateDefects(in *Instance, colors []int, rows func(v int) []int, what string) error {
	if err := checkColorsInLists(in, colors); err != nil {
		return err
	}
	for v := 0; v < in.N(); v++ {
		allowed, _ := in.DefectOf(v, colors[v])
		conflicts := 0
		for _, u := range rows(v) {
			if colors[u] == colors[v] {
				conflicts++
			}
		}
		if conflicts > allowed {
			return fmt.Errorf("%w: node %d color %d has %d conflicting %s > defect %d",
				ErrViolation, v, colors[v], conflicts, what, allowed)
		}
	}
	return nil
}

// ArbResult is the output of a list arbdefective coloring: the colors
// plus an orientation Arcs of the monochromatic edges (each arc (u,v)
// means the monochromatic edge {u,v} is charged to u's defect).
type ArbResult struct {
	Colors []int
	Arcs   [][2]int
}

// ValidateListArbdefective checks a list arbdefective coloring: every
// monochromatic edge must appear in Arcs in exactly one direction, and
// each node v must have at most d_v(colors[v]) outgoing arcs.
func ValidateListArbdefective(g Adjacency, in *Instance, res ArbResult) error {
	if err := checkColorsInLists(in, res.Colors); err != nil {
		return err
	}
	type edge = [2]int
	canon := func(u, v int) edge {
		if u > v {
			u, v = v, u
		}
		return edge{u, v}
	}
	oriented := make(map[edge]bool, len(res.Arcs))
	var outCount []int // stays nil for a proper coloring
	if len(res.Arcs) > 0 {
		outCount = make([]int, in.N())
	}
	for _, a := range res.Arcs {
		u, v := a[0], a[1]
		if !g.HasEdge(u, v) {
			return fmt.Errorf("%w: arc (%d,%d) is not an edge", ErrViolation, u, v)
		}
		if res.Colors[u] != res.Colors[v] {
			return fmt.Errorf("%w: arc (%d,%d) orients a non-monochromatic edge", ErrViolation, u, v)
		}
		e := canon(u, v)
		if oriented[e] {
			return fmt.Errorf("%w: edge {%d,%d} oriented twice", ErrViolation, u, v)
		}
		oriented[e] = true
		outCount[u]++
	}
	// Every monochromatic edge must be covered (in g.Edges order,
	// without materializing the edge list).
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v && res.Colors[u] == res.Colors[v] && !oriented[edge{u, v}] {
				return fmt.Errorf("%w: monochromatic edge {%d,%d} left unoriented", ErrViolation, u, v)
			}
		}
	}
	for v, c := range outCount {
		if allowed, _ := in.DefectOf(v, res.Colors[v]); c > allowed {
			return fmt.Errorf("%w: node %d has %d outgoing monochromatic arcs > defect %d",
				ErrViolation, v, c, allowed)
		}
	}
	return nil
}

// ValidateProperList checks a proper list coloring (all defects
// irrelevant): every node picked from its list and no edge is
// monochromatic.
func ValidateProperList(g *graph.Graph, in *Instance, colors []int) error {
	if err := checkColorsInLists(in, colors); err != nil {
		return err
	}
	return graph.IsProperColoring(g, colors)
}
