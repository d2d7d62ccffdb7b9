package linial

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

// oraclePoly returns the degree+1 base-q digits of m, constant term
// first, with a % and a / per digit. It panics if m does not fit.
func oraclePoly(m, q, degree int) []int {
	coeffs := make([]int, degree+1)
	for i := range coeffs {
		coeffs[i] = m % q
		m /= q
	}
	if m != 0 {
		panic("oracle: value does not fit in q^(degree+1)")
	}
	return coeffs
}

// oracleEval evaluates coeffs at a over F_q by Horner's rule, reducing
// at every step.
func oracleEval(coeffs []int, q, a int) int {
	v := 0
	for i := len(coeffs) - 1; i >= 0; i-- {
		v = (v*a + coeffs[i]) % q
	}
	return v
}

// oracleNode runs a reduction schedule at one node as Linial's step ran
// before the division-free kernel: every color decoded and evaluated
// with a % at each step, every table the node's own, fresh per round.
type oracleNode struct {
	steps    []Step
	avoidOut bool
	out      []int
	color    int
}

func (n *oracleNode) Init(ctx *sim.Context) []sim.Outgoing {
	if len(n.steps) == 0 {
		return nil
	}
	return []sim.Outgoing{{To: sim.Broadcast, Payload: sim.IntPayload{Value: n.color, Domain: n.steps[0].ColorsIn}}}
}

func (n *oracleNode) Round(ctx *sim.Context, round int, inbox []sim.Message) ([]sim.Outgoing, bool) {
	if len(n.steps) == 0 {
		n.out[ctx.ID] = n.color
		return nil, true
	}
	step := n.steps[round-1]
	recv := make(map[int]int, len(inbox))
	for _, m := range inbox {
		if p, ok := m.Payload.(sim.IntPayload); ok {
			recv[m.From] = p.Value
		}
	}
	avoid := ctx.Neighbors
	if n.avoidOut {
		avoid = ctx.Out
	}
	mine := oraclePoly(n.color, step.Q, step.Degree)
	conflicts := make([]int, step.Q)
	for _, u := range avoid {
		c, ok := recv[u]
		if !ok || c < 0 {
			continue // missing: dropped in transit
		}
		theirs := oraclePoly(c, step.Q, step.Degree)
		for a := range conflicts {
			if oracleEval(theirs, step.Q, a) == oracleEval(mine, step.Q, a) {
				conflicts[a]++
			}
		}
	}
	best := 0
	for a, k := range conflicts {
		if k < conflicts[best] {
			best = a
		}
	}
	n.color = best*step.Q + oracleEval(mine, step.Q, best)
	if round == len(n.steps) {
		n.out[ctx.ID] = n.color
		return nil, true
	}
	return []sim.Outgoing{{To: sim.Broadcast, Payload: sim.IntPayload{Value: n.color, Domain: step.ColorsOut()}}}, false
}

// oracleReduce is ReduceOn with oracle nodes on a fresh engine.
func oracleReduce(nw *sim.Network, colors []int, m int, steps []Step, avoidOut bool, cfg sim.Config) (Result, error) {
	out := make([]int, nw.N())
	nodes := make([]sim.Node, nw.N())
	for v := range nodes {
		nodes[v] = &oracleNode{steps: steps, avoidOut: avoidOut, out: out, color: colors[v]}
	}
	stats, err := sim.Run(nw, nodes, cfg)
	if err != nil {
		return Result{}, err
	}
	palette := m
	if len(steps) > 0 {
		palette = steps[len(steps)-1].ColorsOut()
	}
	return Result{Colors: out, Palette: palette, Stats: stats}, nil
}

// TestReduceMatchesOracle holds ReduceOn, on the division-free kernel
// and on run state borrowed from its engine, to the oracle node:
// proper reductions from ids whose first step has degree 1 to 4 (the
// 10⁵-node ring's is (q, d) = (11, 4), the 4-regular graph's (11, 2),
// perfbench solve-wide's), and defective ones with out-neighbor and
// with full conflict sets, each under both drivers, at two receiver
// ranges, and with a DropMessage hook whose lost colors take the
// missing-neighbor path. Every configuration runs all cases on one
// engine, largest first, so each later run re-carves arrays a larger
// run left stale.
func TestReduceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type reduceCase struct {
		name     string
		nw       *sim.Network
		m        int
		steps    []Step
		avoidOut bool
	}
	fromIDs := func(name string, g *graph.Graph) reduceCase {
		return reduceCase{name, sim.NewNetwork(g), g.N(), ProperSchedule(g.N(), g.MaxDegree()), false}
	}
	oriented := graph.OrientByID(graph.RandomRegular(1001, 6, rng))
	cases := []reduceCase{
		fromIDs("ring 100000", graph.Ring(100_000)),
		fromIDs("4-regular 1000", graph.RandomRegular(1000, 4, rng)),
		{"defective oriented 1001", sim.NewOrientedNetwork(oriented), 1001, DefectiveSchedule(1001, oriented.MaxBeta(), 1), true},
		fromIDs("ring 1001", graph.Ring(1001)),
		{"defective 200", sim.NewNetwork(graph.RandomRegular(200, 8, rng)), 200, DefectiveSchedule(200, 8, 0.5), false},
		// ProperSchedule never takes d = 1: q² ≥ m leaves no progress.
		// A hand-made d = 1 step keeps q > d·β and q² ≥ m.
		{"10-regular 100, d = 1", sim.NewNetwork(graph.RandomRegular(100, 10, rng)), 100, []Step{{Q: 11, Degree: 1, ColorsIn: 100}}, false},
	}
	degrees := map[int]bool{}
	for _, c := range cases {
		if len(c.steps) == 0 {
			t.Fatalf("%s: empty schedule", c.name)
		}
		if !c.avoidOut && c.steps[0].AllowFrac == 0 {
			degrees[c.steps[0].Degree] = true
		}
	}
	if len(degrees) != 4 || !degrees[1] || !degrees[2] || !degrees[3] || !degrees[4] {
		t.Fatalf("proper cases start at degrees %v, want 1 to 4", degrees)
	}
	drop := func(round, from, to int) bool { return (31*round+7*from+to)%9 == 0 }
	oracles := map[[2]int]Result{} // by case index and hook
	for _, cfg := range []struct {
		name string
		cfg  sim.Config
	}{
		{"lockstep", sim.Config{Driver: sim.Lockstep}},
		{"workers", sim.Config{Driver: sim.Workers}},
		{"workers/2-shards", sim.Config{Driver: sim.Workers, Shards: 2}},
		{"lockstep/drop", sim.Config{Driver: sim.Lockstep, DropMessage: drop}},
		{"workers/drop", sim.Config{Driver: sim.Workers, DropMessage: drop}},
	} {
		e := new(sim.Engine)
		for i, c := range cases {
			hook := 0
			if cfg.cfg.DropMessage != nil {
				hook = 1
			}
			want, ok := oracles[[2]int{i, hook}]
			if !ok {
				var err error
				want, err = oracleReduce(c.nw, graph.Vertices(c.m, nil), c.m, c.steps, c.avoidOut, cfg.cfg)
				if err != nil {
					t.Fatalf("%s, %s: oracle: %v", c.name, cfg.name, err)
				}
				oracles[[2]int{i, hook}] = want
			}
			got, err := ReduceOn(e, c.nw, graph.Vertices(c.m, nil), c.m, c.steps, c.avoidOut, cfg.cfg)
			if err != nil {
				t.Fatalf("%s, %s: %v", c.name, cfg.name, err)
			}
			if !slices.Equal(got.Colors, want.Colors) || got.Palette != want.Palette || got.Stats != want.Stats {
				t.Errorf("%s, %s: kernel run differs from the oracle (palette %d vs %d, stats %+v vs %+v)",
					c.name, cfg.name, got.Palette, want.Palette, got.Stats, want.Stats)
			}
		}
	}
}

// TestReduceOnReusedEngineAllocs pins what a second ReduceProperCSR on
// one engine allocates: its output, the payloads its nodes send (one
// per node and step) and a constant (the network it builds). The run
// state, the node structs, their scratch and their outboxes come from
// the engine, carved by the first run; allocating them afresh, as every
// run did before, adds five objects and about 344 KB at this size.
func TestReduceOnReusedEngineAllocs(t *testing.T) {
	const extraObjects, extraBytes = 2, 2048
	c := graph.CSRFromGraph(graph.RandomRegular(1000, 4, rand.New(rand.NewSource(1))))
	ids := graph.Vertices(c.N(), nil)
	e := new(sim.Engine)
	var res Result
	run := func() {
		var err error
		if res, err = ReduceProperCSR(e, c, ids, c.N(), sim.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	n, steps := c.N(), len(ProperSchedule(c.N(), c.MaxDegree()))
	objs := testing.AllocsPerRun(3, run)
	if max := float64(1 + n*steps + extraObjects); objs > max {
		t.Errorf("a second run allocates %.0f objects, bound %.0f", objs, max)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	b := (after.TotalAlloc - before.TotalAlloc) / runs
	if max := uint64(8*n + 16*n*steps + extraBytes); b > max {
		t.Errorf("a second run allocates %d bytes, bound %d", b, max)
	}
	t.Logf("a second run on %d nodes, %d step(s), allocates %.0f objects and %d bytes", n, steps, objs, b)
	if len(res.Colors) != n {
		t.Fatalf("%d colors for %d nodes", len(res.Colors), n)
	}
}
