package nbhood

import (
	"errors"
	"math/rand"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/linial"
	"listcolor/internal/sim"
)

// simpleArb is a sequential-greedy arbdefective solver used as the
// plug-in subroutine when testing the reductions in isolation: it
// processes nodes in id order, picking the color minimizing the
// residual defect usage among already-decided neighbors. It is valid
// for any instance with slack ≥ 1 (a color with d_v(x) ≥ #decided
// same-color neighbors always exists by pigeonhole).
func simpleArb(_ *sim.Engine, g *graph.CSR, inst *coloring.Instance, base []int, q int) (coloring.ArbResult, sim.Result, error) {
	n := g.N()
	colors := make([]int, n)
	var arcs [][2]int
	for v := 0; v < n; v++ {
		counts := make(map[int]int)
		for _, u := range g.Neighbors(v) {
			if u < v {
				counts[colors[u]]++
			}
		}
		chosen := -1
		for i, x := range inst.Lists[v] {
			if counts[x] <= inst.Defects[v][i] {
				chosen = x
				break
			}
		}
		if chosen < 0 {
			return coloring.ArbResult{}, sim.Result{}, errors.New("simpleArb: stuck")
		}
		colors[v] = chosen
		for _, u := range g.Neighbors(v) {
			if u < v && colors[u] == chosen {
				arcs = append(arcs, [2]int{v, u})
			}
		}
	}
	return coloring.ArbResult{Colors: colors, Arcs: arcs}, sim.Result{Rounds: 1}, nil
}

func properColoring(t testing.TB, g *graph.Graph) ([]int, int) {
	t.Helper()
	res, err := linial.ColorFromIDs(g, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Colors, res.Palette
}

func TestDefectiveFromArb(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		theta int
	}{
		{"ring", graph.Ring(20), 2},
		{"lineK4", mustLine(graph.Complete(4)), 2},
		{"lineGrid", mustLine(graph.Grid(3, 3)), 2},
	} {
		g := tc.g
		base, q := properColoring(t, g)
		s := 2
		need := Theorem14Slack(tc.theta, g.MaxDegree(), s)
		inst := coloring.WithSlack(g, 4*need*g.MaxDegree()+20, float64(need)+1, rng)
		colors, _, err := DefectiveFromArb(new(sim.Engine), graph.CSRFromGraph(g), inst, base, q, tc.theta, s, simpleArb)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := coloring.ValidateListDefective(g, inst, colors); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func mustLine(g *graph.Graph) *graph.Graph {
	lg, _ := graph.LineGraph(g)
	return lg
}

func TestDefectiveFromArbSlackRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Ring(10)
	base, q := properColoring(t, g)
	inst := coloring.WithSlack(g, 30, 2, rng) // slack 2 ≪ 21θ(logΔ+1)S
	if _, _, err := DefectiveFromArb(new(sim.Engine), graph.CSRFromGraph(g), inst, base, q, 2, 1, simpleArb); !errors.Is(err, ErrSlack) {
		t.Errorf("err = %v, want ErrSlack", err)
	}
}

func TestSlackReduce2(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomRegular(30, 4, rng)
	base, q := properColoring(t, g)
	inst := coloring.WithSlack(g, 100, 2.2, rng)
	res, _, err := SlackReduce2(new(sim.Engine), graph.CSRFromGraph(g), inst, base, q, 3, simpleArb, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.ValidateListArbdefective(g, inst, res); err != nil {
		t.Error(err)
	}
}

func TestSlackReduce2Rejected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.Ring(10)
	base, q := properColoring(t, g)
	inst := coloring.WithSlack(g, 20, 1.2, rng)
	if _, _, err := SlackReduce2(new(sim.Engine), graph.CSRFromGraph(g), inst, base, q, 3, simpleArb, sim.Config{}); !errors.Is(err, ErrSlack) {
		t.Errorf("err = %v, want ErrSlack", err)
	}
}

func TestSlackReduce1(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range []*graph.Graph{
		graph.Ring(24),
		graph.RandomRegular(30, 4, rng),
		graph.Grid(4, 5),
	} {
		base, q := properColoring(t, g)
		inst := coloring.WithSlack(g, 120, 1.1, rng)
		res, _, err := SlackReduce1(new(sim.Engine), graph.CSRFromGraph(g), inst, base, q, 2, simpleArb, sim.Config{})
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if err := coloring.ValidateListArbdefective(g, inst, res); err != nil {
			t.Errorf("%v: %v", g, err)
		}
	}
}

func TestTrivialArb(t *testing.T) {
	g := graph.Ring(6)
	inst := &coloring.Instance{Space: 2, Lists: make([][]int, 6), Defects: make([][]int, 6)}
	for v := 0; v < 6; v++ {
		inst.Lists[v] = []int{0, 1}
		inst.Defects[v] = []int{2, 2} // Σ(d+1) = 6 > 2·deg = 4
	}
	res, _, err := trivialArb(graph.CSRFromGraph(g), inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.ValidateListArbdefective(g, inst, res); err != nil {
		t.Error(err)
	}
	// Insufficient slack at the base must be rejected.
	bad := &coloring.Instance{Space: 2, Lists: [][]int{{0}}, Defects: [][]int{{0}}}
	gBad := graph.Path(2)
	badFull := &coloring.Instance{Space: 2, Lists: [][]int{{0}, {0}}, Defects: [][]int{{0}, {0}}}
	_ = bad
	if _, _, err := trivialArb(graph.CSRFromGraph(gBad), badFull); !errors.Is(err, ErrSlack) {
		t.Errorf("err = %v, want ErrSlack", err)
	}
}

func TestSolveArbProperOnLineGraphs(t *testing.T) {
	// Zero-defect (deg+1)-list instances on line graphs (θ ≤ 2): the
	// Theorem 1.5 pipeline must produce a proper list coloring.
	rng := rand.New(rand.NewSource(6))
	for _, base := range []*graph.Graph{
		graph.Ring(8),
		graph.Complete(4),
		graph.Grid(2, 4),
	} {
		lg, _ := graph.LineGraph(base)
		inst := coloring.DegreePlusOne(lg, lg.MaxDegree()+3, rng)
		res, err := SolveArb(lg, inst, 2, sim.Config{})
		if err != nil {
			t.Fatalf("L(%v): %v", base, err)
		}
		if err := coloring.ValidateListArbdefective(lg, inst, res.Arb); err != nil {
			t.Errorf("L(%v): %v", base, err)
		}
		if err := coloring.ValidateProperList(lg, inst, res.Arb.Colors); err != nil {
			t.Errorf("L(%v): zero-defect result not proper: %v", base, err)
		}
	}
}

func TestSolveArbWithDefects(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Ring(16) // θ = 2
	inst := coloring.WithSlack(g, 24, 1.5, rng)
	res, err := SolveArb(g, inst, 2, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.ValidateListArbdefective(g, inst, res.Arb); err != nil {
		t.Error(err)
	}
}

func TestEdgeColor(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Ring(10),
		graph.Complete(5),
		graph.Grid(3, 3),
	} {
		edgeColors, palette, _, err := EdgeColor(g, sim.Config{})
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if palette != 2*g.MaxDegree()-1 {
			t.Errorf("%v: palette %d, want 2Δ−1 = %d", g, palette, 2*g.MaxDegree()-1)
		}
		// No two incident edges share a color.
		edges := g.Edges()
		if len(edgeColors) != len(edges) {
			t.Fatalf("%v: %d colors for %d edges", g, len(edgeColors), len(edges))
		}
		for i := range edges {
			if edgeColors[i] < 0 || edgeColors[i] >= palette {
				t.Errorf("%v: edge color %d outside palette", g, edgeColors[i])
			}
			for j := i + 1; j < len(edges); j++ {
				share := edges[i][0] == edges[j][0] || edges[i][0] == edges[j][1] ||
					edges[i][1] == edges[j][0] || edges[i][1] == edges[j][1]
				if share && edgeColors[i] == edgeColors[j] {
					t.Errorf("%v: incident edges %v,%v share color %d", g, edges[i], edges[j], edgeColors[i])
				}
			}
		}
	}
}

func TestTheorem14SlackFormula(t *testing.T) {
	// 21·θ·(⌈logΔ⌉+1)·S
	if got := Theorem14Slack(2, 8, 1); got != 21*2*4 {
		t.Errorf("Theorem14Slack(2,8,1) = %d, want %d", got, 21*2*4)
	}
	if got := Theorem14Slack(1, 2, 3); got != 21*1*2*3 {
		t.Errorf("Theorem14Slack(1,2,3) = %d, want %d", got, 21*6)
	}
}
