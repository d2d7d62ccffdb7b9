package nbhood

import (
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

// Regression tests for the DESIGN.md deviation "Strictness constants":
// Lemma 4.5's block defects use d_{v,i} = ⌊σ·deg·W_i/W⌋, not the
// paper's Eq. 19 ⌈·⌉, so that the per-block slack direction
// W_i ≥ d_{v,i}·W/(σ·deg) holds exactly.

// TestBlockDefectFloorInvariant sweeps the arithmetic over a grid of
// (σ·deg, W_i, W) values: the floor always satisfies
// d_{v,i}·W ≤ σ·deg·W_i, and the ceiling variant violates it whenever
// σ·deg·W_i/W is fractional — which is why the floor deviation exists.
func TestBlockDefectFloorInvariant(t *testing.T) {
	ceilBreaks := false
	for sd := 1; sd <= 40; sd++ { // σ·deg
		for w := 1; w <= 30; w++ {
			for wi := 1; wi <= w; wi++ {
				floor := sd * wi / w
				if floor*w > sd*wi {
					t.Fatalf("floor variant broke the invariant: σ·deg=%d W_i=%d W=%d d=%d", sd, wi, w, floor)
				}
				ceil := (sd*wi + w - 1) / w
				if ceil*w > sd*wi {
					ceilBreaks = true
				}
			}
		}
	}
	if !ceilBreaks {
		t.Error("ceiling variant never violated W_i ≥ d·W/(σ·deg) on the grid; the floor deviation may be unnecessary")
	}
}

// TestArb2AtMinimumSlack drives the slack-2 recursion entry (arb2,
// the production path into spaceReduce's floored block defects) at the
// true minimum slack Σ(d+1) = 2·deg + 1, over a space large enough
// that the Lemma 4.4 + 4.5 splitting actually runs. The floored block
// defects must keep every level solvable and the output valid.
func TestArb2AtMinimumSlack(t *testing.T) {
	g := graph.Ring(8)
	s := &solver{theta: 2, cfg: sim.Config{}}
	c := 9 // space > 2, so arb2 reduces via μ = 2σ and spaceReduce splits into 3 blocks
	inst := &coloring.Instance{Space: c}
	for v := 0; v < g.N(); v++ {
		w := 2*g.Degree(v) + 1 // minimum slack-2 budget: Σ(d+1) = 5
		lists := make([]int, w)
		for i := range lists {
			lists[i] = (v + i) % c // zero-defect lists, deliberately overlapping
		}
		// Lists must be sorted.
		for i := 1; i < len(lists); i++ {
			for j := i; j > 0 && lists[j] < lists[j-1]; j-- {
				lists[j], lists[j-1] = lists[j-1], lists[j]
			}
		}
		inst.Lists = append(inst.Lists, lists)
		inst.Defects = append(inst.Defects, make([]int, w))
	}
	base := make([]int, g.N())
	for v := range base {
		base[v] = v
	}
	res, _, err := s.arb2(new(sim.Engine), graph.CSRFromGraph(g), inst, base, g.N())
	if err != nil {
		t.Fatalf("arb2 at minimum slack 2: %v", err)
	}
	if err := coloring.ValidateListArbdefective(g, inst, res); err != nil {
		t.Fatalf("output invalid: %v", err)
	}
}

// TestSpaceReduceRejectsBelowMinimum pins the strict admission check:
// W = 2σ·deg must be rejected, and the error must name the node.
func TestSpaceReduceRejectsBelowMinimum(t *testing.T) {
	g := graph.Ring(8)
	theta := 2
	s := &solver{theta: theta, cfg: sim.Config{}}
	sigma := Theorem14Slack(theta, g.MaxDegree(), 2)
	c := 9
	inst := &coloring.Instance{Space: c}
	for v := 0; v < g.N(); v++ {
		w := 2 * sigma * g.Degree(v) // one below admission
		lists := make([]int, c)
		defs := make([]int, c)
		per := (w - c) / c
		rem := (w - c) % c
		for i := range lists {
			lists[i] = i
			defs[i] = per
			if i < rem {
				defs[i]++
			}
		}
		inst.Lists = append(inst.Lists, lists)
		inst.Defects = append(inst.Defects, defs)
	}
	base := make([]int, g.N())
	for v := range base {
		base[v] = v
	}
	if _, _, err := s.spaceReduce(new(sim.Engine), graph.CSRFromGraph(g), inst, base, g.N()); err == nil {
		t.Fatal("spaceReduce accepted W = 2σ·deg (needs strict >)")
	}
}
