package conformance

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/csr"
	"listcolor/internal/deltaplus1"
	"listcolor/internal/graph"
	"listcolor/internal/linial"
	"listcolor/internal/nbhood"
	"listcolor/internal/sim"
	"listcolor/internal/twosweep"
)

// The locality check: the composed solvers are centralized
// orchestrations over real sub-runs, so they are faithful to the
// message-passing model only if a node's output depends on nothing
// beyond the ball its charged rounds could have reached. The test
// perturbs a region of a large-diameter graph, re-solves, and requires
// every node farther than R from the region to keep its color, R being
// the smaller of the two runs' charged rounds. Perturbations keep the
// instance valid and keep n and Δ(G) fixed, so schedules derived from
// global parameters cannot differ; what they catch is a global choice
// made from measured data (say, processing classes in order of their
// global sizes).

// localityGraph is a test graph with diameter well above the charged
// rounds of every solver run on it, and a ~400-node region to perturb.
type localityGraph struct {
	name   string
	g      *graph.Graph
	region []int // ascending
	theta  int   // neighborhood independence bound (Theorem 1.5)
}

func localityGraphs() []localityGraph {
	ring := graph.Ring(4000)
	grid := graph.Grid(4, 3000) // vertex r·3000+c
	var gridRegion []int
	for r := 0; r < 4; r++ {
		for c := 1450; c < 1550; c++ {
			gridRegion = append(gridRegion, r*3000+c)
		}
	}
	// C_n(1..4): Δ = 8 and diameter n/8 = 1,000.
	circ := graph.New(8000)
	for v := 0; v < circ.N(); v++ {
		for k := 1; k <= 4; k++ {
			circ.MustAddEdge(v, (v+k)%circ.N())
		}
	}
	circ.Normalize()
	return []localityGraph{
		{"ring4000", ring, span(2000, 400), 2},
		{"grid4x3000", grid, sortedInts(gridRegion), 4},
		{"circulant8000x8", circ, span(4000, 400), 2},
	}
}

func span(lo, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// localitySolver is one composed solver: inst builds its instance on
// g from rng (the same seed gives the same lists on the same graph),
// and run solves from scratch and returns the colors and the charged
// rounds, bootstrap included.
type localitySolver struct {
	name string
	// skip names a graph whose diameter the solver's charged rounds
	// come too close to for the check to say anything.
	skip string
	// hub marks a solver whose sub-calls read a sub-graph's measured
	// MaxDegree (classes.step's re-bootstrap, DegreeHalving's split),
	// which the hub case aims at.
	hub  bool
	inst func(g *graph.Graph, rng *rand.Rand) *coloring.Instance
	// budgets, if set, builds an instance whose defects carry budget on
	// most nodes, for the defect case (checkDefects).
	budgets func(g *graph.Graph, rng *rand.Rand) *coloring.Instance
	run     func(lg localityGraph, g *graph.Graph, inst *coloring.Instance) ([]int, int, error)
}

func localitySolvers() []localitySolver {
	degPlusOne := func(g *graph.Graph, rng *rand.Rand) *coloring.Instance {
		return coloring.DegreePlusOne(g, 2*g.RawMaxDegree()+1, rng)
	}
	// halfLists is a slack-1 list arbdefective instance with budgets:
	// node v gets ⌈(deg(v)+1)/2⌉ colors of [0, 2Δ+1) and Σ(d+1) =
	// deg(v)+1 spread over them at random.
	halfLists := func(g *graph.Graph, rng *rand.Rand) *coloring.Instance {
		n := g.N()
		inst := &coloring.Instance{Space: 2*g.RawMaxDegree() + 1, Lists: make([][]int, n), Defects: make([][]int, n)}
		for v := range n {
			k := (g.Degree(v) + 2) / 2
			inst.Lists[v] = coloring.SampleColors(inst.Space, k, rng)
			inst.Defects[v] = spreadDefects(k, g.Degree(v)+1-k, rng)
		}
		return inst
	}
	minSlack := func(g *graph.Graph, rng *rand.Rand) *coloring.Instance {
		return coloring.MinSlackOriented(graph.OrientByID(g), 24, 2, 1, rng)
	}
	bootstrap := func(g *graph.Graph) (linial.Result, error) {
		return linial.ColorFromIDs(g, sim.Config{})
	}
	return []localitySolver{
		{
			name: "deltaplus1",
			hub:  true,
			inst: degPlusOne,
			run: func(_ localityGraph, g *graph.Graph, inst *coloring.Instance) ([]int, int, error) {
				res, err := deltaplus1.Solve(g, inst, sim.Config{})
				return res.Colors, res.Stats.Rounds, err
			},
		},
		{
			// Three levels of sweeps over the bootstrap palette charge
			// about 1,700 rounds on the circulant, above its diameter.
			name: "csr",
			skip: "circulant8000x8",
			inst: func(g *graph.Graph, rng *rand.Rand) *coloring.Instance {
				const space = 64
				return coloring.WithOrientedSlack(graph.OrientByID(g), space, 3*math.Sqrt(space), rng)
			},
			// Over 8 colors a budget of ⌈3√8·outdeg⌉+1 overflows the list
			// at every positive out-degree; over 64 the ring's never does.
			budgets: func(g *graph.Graph, rng *rand.Rand) *coloring.Instance {
				const space = 8
				return coloring.WithOrientedSlack(graph.OrientByID(g), space, 3*math.Sqrt(space), rng)
			},
			run: func(_ localityGraph, g *graph.Graph, inst *coloring.Instance) ([]int, int, error) {
				base, err := bootstrap(g)
				if err != nil {
					return nil, 0, err
				}
				res, err := csr.Solve(graph.OrientByID(g), inst, base.Colors, base.Palette, sim.Config{})
				return res.Colors, base.Stats.Rounds + res.Stats.Rounds, err
			},
		},
		{
			name:    "fast-twosweep",
			inst:    minSlack,
			budgets: minSlack,
			run: func(_ localityGraph, g *graph.Graph, inst *coloring.Instance) ([]int, int, error) {
				base, err := bootstrap(g)
				if err != nil {
					return nil, 0, err
				}
				res, err := twosweep.SolveFast(graph.OrientByID(g), inst, base.Colors, base.Palette, 2, 1, sim.Config{})
				return res.Colors, base.Stats.Rounds + res.Stats.Rounds, err
			},
		},
		{
			name:    "SolveArb",
			inst:    degPlusOne,
			budgets: halfLists,
			run: func(lg localityGraph, g *graph.Graph, inst *coloring.Instance) ([]int, int, error) {
				res, err := nbhood.SolveArb(g, inst, lg.theta, sim.Config{})
				return res.Arb.Colors, res.Stats.Rounds, err
			},
		},
		{
			name:    "SolveArbGeneral",
			hub:     true,
			inst:    degPlusOne,
			budgets: halfLists,
			run: func(_ localityGraph, g *graph.Graph, inst *coloring.Instance) ([]int, int, error) {
				res, err := nbhood.SolveArbGeneral(g, inst, sim.Config{})
				return res.Arb.Colors, res.Stats.Rounds, err
			},
		},
		{
			name:    "SolveArbBranch2",
			inst:    degPlusOne,
			budgets: halfLists,
			run: func(lg localityGraph, g *graph.Graph, inst *coloring.Instance) ([]int, int, error) {
				res, err := nbhood.SolveArbBranch2(g, inst, lg.theta, sim.Config{})
				return res.Arb.Colors, res.Stats.Rounds, err
			},
		},
	}
}

// resampleRegion returns inst with the lists and defects of the
// region's nodes replaced by those of a second instance drawn from
// another seed on the same graph: every list stays valid for the
// solver, and n and Δ(G) are untouched.
func resampleRegion(s localitySolver, g *graph.Graph, inst *coloring.Instance, region []int, seed int64) *coloring.Instance {
	other := s.inst(g, rand.New(rand.NewSource(seed)))
	out := inst.Clone()
	for _, v := range region {
		out.Lists[v] = other.Lists[v]
		out.Defects[v] = other.Defects[v]
	}
	return out
}

// spreadDefects returns the defects of a k-color list that holds
// extra units of budget beyond its size, each placed on a color drawn
// at random.
func spreadDefects(k, extra int, rng *rand.Rand) []int {
	d := make([]int, k)
	for ; extra > 0; extra-- {
		d[rng.Intn(k)]++
	}
	return d
}

// redistributeRegion returns inst with each region node's defect
// budget spread anew at random over its unchanged list, so its
// Σ(d+1), every slack precondition, n and Δ(G) stay. It also returns
// how many region nodes' defects changed.
func redistributeRegion(inst *coloring.Instance, region []int, seed int64) (*coloring.Instance, int) {
	rng := rand.New(rand.NewSource(seed))
	out, changed := inst.Clone(), 0
	for _, v := range region {
		k := inst.ListSize(v)
		out.Defects[v] = spreadDefects(k, inst.SlackSum(v)-k, rng)
		if !slices.Equal(out.Defects[v], inst.Defects[v]) {
			changed++
		}
	}
	return out, changed
}

// checkDefects runs the defect case: the solver's budget instance,
// then the same with the region's budgets redistributed. It fails
// when fewer than a quarter of the region's nodes changed defects,
// where the case would say little.
func checkDefects(t *testing.T, lg localityGraph, s localitySolver) {
	inst := s.budgets(lg.g, rand.New(rand.NewSource(1)))
	perturbed, changed := redistributeRegion(inst, lg.region, 3)
	if 4*changed < len(lg.region) {
		t.Fatalf("only %d of %d region nodes changed defects", changed, len(lg.region))
	}
	c1, r1, err := s.run(lg, lg.g, inst)
	if err != nil {
		t.Fatalf("budget instance: %v", err)
	}
	c2, r2, err := s.run(lg, lg.g, perturbed)
	if err != nil {
		t.Fatalf("redistributed defects: %v", err)
	}
	checkLocal(t, lg.g, lg.region, c1, c2, r1, r2)
}

// deleteRegionEdges returns g without every third edge among the
// region's nodes (in g.Edges order). Region nodes lose degree, so
// every instance built for g stays valid on the result; the region is
// a small part of a regular or near-regular graph, so Δ(G) is kept.
func deleteRegionEdges(g *graph.Graph, region []int) *graph.Graph {
	in := make([]bool, g.N())
	for _, v := range region {
		in[v] = true
	}
	out, k := graph.New(g.N()), 0
	for _, e := range g.Edges() {
		if in[e[0]] && in[e[1]] {
			if k++; k%3 == 0 {
				continue
			}
		}
		out.MustAddEdge(e[0], e[1])
	}
	out.Normalize()
	return out
}

// withHub returns a copy of g in which hub also gets edges to the
// nodes of pool, in pool order, until its degree reaches deg.
func withHub(g *graph.Graph, hub, deg int, pool []int) *graph.Graph {
	out := g.Clone()
	for _, u := range pool {
		if out.Degree(hub) >= deg {
			break
		}
		out.MustAddEdge(hub, u)
	}
	out.Normalize()
	return out
}

// distFrom returns every node's hop distance in g from the nearest
// region node.
func distFrom(g *graph.Graph, region []int) []int {
	dist := make([]int, g.N())
	for v := range dist {
		dist[v] = -1
	}
	queue := append([]int(nil), region...)
	for _, v := range region {
		dist[v] = 0
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// checkLocal fails t for every node farther than R = min(r1, r2) hops
// from the region (in the unperturbed g, whose distances the
// perturbed graph only lengthens) whose color differs between the
// runs. It also fails when fewer than a quarter of the nodes lie
// beyond R, where the check would say little.
func checkLocal(t *testing.T, g *graph.Graph, region []int, c1, c2 []int, r1, r2 int) {
	t.Helper()
	r := min(r1, r2)
	dist := distFrom(g, region)
	beyond, changed, far, worst := 0, 0, 0, 0
	for v, d := range dist {
		if d > r {
			beyond++
		}
		if c1[v] != c2[v] {
			changed++
			if d > r {
				far++
				worst = max(worst, d)
			}
		}
	}
	t.Logf("R = %d (rounds %d and %d): %d colors changed, %d of %d nodes lie beyond R", r, r1, r2, changed, beyond, len(dist))
	if 4*beyond < len(dist) {
		t.Fatalf("only %d of %d nodes lie beyond R = %d: the graph is too small for this solver", beyond, len(dist), r)
	}
	if far > 0 {
		t.Errorf("%d of %d changed colors lie beyond R = %d hops of the region (farthest at %d)", far, changed, r, worst)
	}
}

// hubDegree is the degree of both hubs in the hub case: a node far
// from the region has it in both runs and a region node only in the
// perturbed one, so Δ(G) is hubDegree in both.
const hubDegree = 24

// checkHub runs the hub case: the unperturbed graph is lg.g with node
// farHub, far from the region, joined to the nodes after it until it
// is a hub of degree hubDegree; the perturbed graph also joins the
// region's middle node to the region nodes after it until it is a hub
// of the same degree. Only the lists of nodes whose degree grew are
// resampled (on the perturbed graph), so both instances are valid and
// n and Δ(G) stay.
func checkHub(t *testing.T, lg localityGraph, s localitySolver) {
	const farHub = 200
	g0 := withHub(lg.g, farHub, hubDegree, span(farHub+1, hubDegree))
	mid := len(lg.region) / 2
	g1 := withHub(g0, lg.region[mid], hubDegree, lg.region[mid+1:])
	if g0.RawMaxDegree() != hubDegree || g1.RawMaxDegree() != hubDegree || g1.Degree(lg.region[mid]) != hubDegree {
		t.Fatalf("hubs: Δ(G) %d and %d, region hub degree %d, want %d", g0.RawMaxDegree(), g1.RawMaxDegree(), g1.Degree(lg.region[mid]), hubDegree)
	}
	inst0 := s.inst(g0, rand.New(rand.NewSource(1)))
	c0, r0, err := s.run(lg, g0, inst0)
	if err != nil {
		t.Fatalf("far hub only: %v", err)
	}
	other := s.inst(g1, rand.New(rand.NewSource(2)))
	inst1 := inst0.Clone()
	for v := 0; v < g1.N(); v++ {
		if g1.Degree(v) != g0.Degree(v) {
			inst1.Lists[v], inst1.Defects[v] = other.Lists[v], other.Defects[v]
		}
	}
	c1, r1, err := s.run(lg, g1, inst1)
	if err != nil {
		t.Fatalf("region hub: %v", err)
	}
	checkLocal(t, g0, lg.region, c0, c1, r0, r1)
}

// TestLocality perturbs a region of rings, a long grid and a circulant
// and re-solves with every composed solver: resampled lists on the
// region's 400 nodes, and a third of the region's edges deleted. The
// solvers marked hub also run the hub case (checkHub), and those whose
// instances carry budgets the defect case (checkDefects).
func TestLocality(t *testing.T) {
	for _, lg := range localityGraphs() {
		for _, s := range localitySolvers() {
			if s.skip == lg.name {
				continue
			}
			lg, s := lg, s
			t.Run(fmt.Sprintf("%s/%s", lg.name, s.name), func(t *testing.T) {
				t.Parallel()
				inst := s.inst(lg.g, rand.New(rand.NewSource(1)))
				c1, r1, err := s.run(lg, lg.g, inst)
				if err != nil {
					t.Fatalf("unperturbed: %v", err)
				}
				c2, r2, err := s.run(lg, lg.g, resampleRegion(s, lg.g, inst, lg.region, 2))
				if err != nil {
					t.Fatalf("resampled lists: %v", err)
				}
				checkLocal(t, lg.g, lg.region, c1, c2, r1, r2)
				cut := deleteRegionEdges(lg.g, lg.region)
				if cut.RawMaxDegree() != lg.g.RawMaxDegree() {
					t.Fatalf("edge deletion moved Δ(G) from %d to %d", lg.g.RawMaxDegree(), cut.RawMaxDegree())
				}
				c3, r3, err := s.run(lg, cut, inst)
				if err != nil {
					t.Fatalf("deleted edges: %v", err)
				}
				checkLocal(t, lg.g, lg.region, c1, c3, r1, r3)
			})
			if s.hub {
				t.Run(fmt.Sprintf("%s/%s/hub", lg.name, s.name), func(t *testing.T) {
					t.Parallel()
					checkHub(t, lg, s)
				})
			}
			if s.budgets != nil {
				t.Run(fmt.Sprintf("%s/%s/defects", lg.name, s.name), func(t *testing.T) {
					t.Parallel()
					checkDefects(t, lg, s)
				})
			}
		}
	}
}
