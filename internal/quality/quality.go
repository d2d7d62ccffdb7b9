// Package quality computes diagnostic reports about colorings: how
// much of each node's defect budget a solution actually uses, how
// balanced the color classes are, and how far the palette was
// exploited. The reports feed colorsim's -analyze flag and give
// experiments a quality dimension beyond mere validity.
package quality

import (
	"fmt"
	"strings"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/stats"
)

// Report summarizes a list defective coloring against its instance.
type Report struct {
	// ColorsUsed is the number of distinct colors in the solution.
	ColorsUsed int
	// Space is the instance's color space size.
	Space int
	// LargestClass and SmallestClass are the extreme non-empty color
	// class sizes; Imbalance is their ratio.
	LargestClass, SmallestClass int
	// Defect summarizes the realized per-node conflict counts.
	Defect stats.Summary
	// Utilization summarizes conflicts/allowed per node with a non-zero
	// budget (1.0 = budget fully used; conflicts on zero-budget nodes
	// would be validation failures, not utilization).
	Utilization stats.Summary
	// TightNodes counts nodes whose realized conflicts equal their
	// allowed defect exactly.
	TightNodes int
}

// Analyze builds a report for an (undirected) list defective coloring.
// The coloring must already be valid for the instance; call a
// validator first.
func Analyze(g *graph.Graph, inst *coloring.Instance, colors []int) (Report, error) {
	if len(colors) != g.N() {
		return Report{}, fmt.Errorf("quality: %d colors for %d nodes", len(colors), g.N())
	}
	classes := make(map[int]int)
	var defects, utils []float64
	r := Report{Space: inst.Space}
	// Realized per-node conflict counts come from the shared defect-
	// audit kernel (auto worker count — one whole-graph scan instead of
	// a second adjacency walk); the audit fills mono even for off-list
	// nodes, so the error paths below stay intact.
	mono := make([]int, g.N())
	coloring.AuditInto(g, inst, colors, mono, 0)
	for v := 0; v < g.N(); v++ {
		classes[colors[v]]++
		allowed, ok := inst.DefectOf(v, colors[v])
		if !ok {
			return Report{}, fmt.Errorf("quality: node %d wears color %d outside its list", v, colors[v])
		}
		defects = append(defects, float64(mono[v]))
		if allowed > 0 {
			utils = append(utils, float64(mono[v])/float64(allowed))
		}
		if mono[v] == allowed && allowed > 0 {
			r.TightNodes++
		}
	}
	r.ColorsUsed = len(classes)
	r.SmallestClass = g.N()
	for _, sz := range classes {
		if sz > r.LargestClass {
			r.LargestClass = sz
		}
		if sz < r.SmallestClass {
			r.SmallestClass = sz
		}
	}
	if len(classes) == 0 {
		r.SmallestClass = 0
	}
	if len(defects) > 0 {
		r.Defect = stats.Summarize(defects)
	}
	if len(utils) > 0 {
		r.Utilization = stats.Summarize(utils)
	}
	return r, nil
}

// Format renders the report as a short human-readable block.
func (r Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "colors used: %d of %d (largest class %d, smallest %d)\n",
		r.ColorsUsed, r.Space, r.LargestClass, r.SmallestClass)
	fmt.Fprintf(&b, "realized defect: mean %.2f, max %.0f\n", r.Defect.Mean, r.Defect.Max)
	if r.Utilization.N > 0 {
		fmt.Fprintf(&b, "budget utilization (nodes with budget): mean %.0f%%, p90 %.0f%%\n",
			100*r.Utilization.Mean, 100*r.Utilization.P90)
	}
	fmt.Fprintf(&b, "nodes at exactly their budget: %d\n", r.TightNodes)
	return b.String()
}
