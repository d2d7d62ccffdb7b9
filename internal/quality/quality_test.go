package quality

import (
	"math/rand"
	"strings"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
)

func TestAnalyzeProperColoring(t *testing.T) {
	g := graph.Ring(6)
	inst := coloring.ThreeColor(6, 0)
	colors := []int{0, 1, 0, 1, 0, 1}
	r, err := Analyze(g, inst, colors)
	if err != nil {
		t.Fatal(err)
	}
	if r.ColorsUsed != 2 || r.Space != 3 {
		t.Errorf("ColorsUsed=%d Space=%d", r.ColorsUsed, r.Space)
	}
	if r.Defect.Max != 0 || r.TightNodes != 0 {
		t.Errorf("proper coloring should have zero defects: %+v", r.Defect)
	}
	if r.LargestClass != 3 || r.SmallestClass != 3 {
		t.Errorf("class sizes: %d/%d", r.LargestClass, r.SmallestClass)
	}
}

func TestAnalyzeDefective(t *testing.T) {
	// Monochromatic ring with defect budget 2: every node uses its full
	// budget.
	g := graph.Ring(4)
	inst := coloring.ThreeColor(4, 2)
	colors := []int{0, 0, 0, 0}
	r, err := Analyze(g, inst, colors)
	if err != nil {
		t.Fatal(err)
	}
	if r.ColorsUsed != 1 {
		t.Errorf("ColorsUsed = %d", r.ColorsUsed)
	}
	if r.Defect.Mean != 2 || r.Defect.Max != 2 {
		t.Errorf("defect summary: %+v", r.Defect)
	}
	if r.Utilization.Mean != 1 {
		t.Errorf("utilization mean = %v, want 1", r.Utilization.Mean)
	}
	if r.TightNodes != 4 {
		t.Errorf("TightNodes = %d, want 4", r.TightNodes)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	g := graph.Ring(4)
	inst := coloring.ThreeColor(4, 1)
	if _, err := Analyze(g, inst, []int{0, 1}); err == nil {
		t.Error("short coloring accepted")
	}
	if _, err := Analyze(g, inst, []int{0, 1, 0, 9}); err == nil {
		t.Error("off-list color accepted")
	}
}

func TestFormatContainsEverything(t *testing.T) {
	g := graph.Ring(4)
	inst := coloring.ThreeColor(4, 2)
	r, err := Analyze(g, inst, []int{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	out := r.Format()
	for _, want := range []string{"colors used", "realized defect", "utilization", "budget: 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeOnRealRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomRegular(40, 4, rng)
	inst := coloring.WithSlack(g, 30, 2.5, rng)
	// Build a trivially valid coloring: give everyone their
	// highest-defect color, then check Analyze only if it validates.
	colors := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		best, bestD := inst.Lists[v][0], inst.Defects[v][0]
		for i, x := range inst.Lists[v] {
			if inst.Defects[v][i] > bestD {
				best, bestD = x, inst.Defects[v][i]
			}
		}
		colors[v] = best
	}
	if coloring.ValidateListDefective(g, inst, colors) != nil {
		t.Skip("max-defect heuristic not valid on this seed; nothing to analyze")
	}
	r, err := Analyze(g, inst, colors)
	if err != nil {
		t.Fatal(err)
	}
	if r.Utilization.Max > 1 {
		t.Errorf("valid coloring with utilization > 1: %+v", r.Utilization)
	}
}
