package linial

import (
	"fmt"

	"listcolor/internal/gf"
	"listcolor/internal/graph"
	"listcolor/internal/palette"
	"listcolor/internal/sim"
)

// Result is the output of a color-reduction run.
type Result struct {
	// Colors is the final coloring, one entry per node, in [0, Palette).
	Colors []int
	// Palette is the size of the final color space.
	Palette int
	// Stats are the simulator's round/message/bit counts.
	Stats sim.Result
}

// reduceRun is what every node of one reduction run shares: the
// schedule with each step's reducer, the conflict set, the scratch
// sizes and the output, and the run's arrays: the node structs, the
// engine's view of them, the nodes' scratch and their one-entry
// outboxes. ReduceOn borrows it from the calling solve's engine, so a
// solve's later runs re-carve the arrays instead of allocating them;
// only the output is new per run.
type reduceRun struct {
	steps        []Step
	mods         []gf.Mod // mods[i] reduces modulo steps[i].Q
	avoidOut     bool     // conflict set = out-neighbors (else all neighbors)
	maxQ, maxDeg int
	out          []int
	rn           []reduceNode
	nodes        []sim.Node
	scratch      []int
	sends        []sim.Outgoing // node v's outbox is entry v
}

// reduceNode executes a reduction schedule at one node. All its
// per-round scratch is one slice of the run's scratch array, reused
// every round: the received color per neighbor rank, then the point
// values of its polynomial, the per-point agreement counts and one
// digit buffer. Rounds allocate only the payloads they send.
type reduceNode struct {
	run     *reduceRun
	color   int
	scratch []int
}

var _ sim.Node = (*reduceNode)(nil)

func (n *reduceNode) Init(ctx *sim.Context) []sim.Outgoing {
	if len(n.run.steps) == 0 {
		return nil
	}
	return n.broadcast(ctx.ID, n.run.steps[0].ColorsIn)
}

// broadcast returns node id's one-entry outbox, sending its color from
// a domain of the given size to every neighbor. The engine routes an
// outbox before the node's next step, so every send reuses the entry.
func (n *reduceNode) broadcast(id, domain int) []sim.Outgoing {
	send := n.run.sends[id : id+1 : id+1]
	send[0] = sim.Outgoing{To: sim.Broadcast, Payload: sim.IntPayload{Value: n.color, Domain: domain}}
	return send
}

func (n *reduceNode) Round(ctx *sim.Context, round int, inbox []sim.Message) ([]sim.Outgoing, bool) {
	r := n.run
	if len(r.steps) == 0 {
		r.out[ctx.ID] = n.color
		return nil, true
	}
	step, mod := r.steps[round-1], r.mods[round-1]
	nbr := palette.NewIndex(ctx.Neighbors) // rank over the sorted neighbors
	deg := len(ctx.Neighbors)
	recv := n.scratch[:deg]                                // -1 = missing
	myVals := n.scratch[deg : deg+step.Q]                  // my polynomial at each point
	conflicts := n.scratch[deg+r.maxQ : deg+r.maxQ+step.Q] // per-point agreement counts
	digits := n.scratch[deg+2*r.maxQ : deg+2*r.maxQ+step.Degree+1]
	for i := range recv {
		recv[i] = -1
	}
	for _, m := range inbox {
		j, ok := nbr.Rank(m.From)
		if !ok {
			continue
		}
		// A corrupted payload fails the assertion and is treated as
		// garbage — equivalent to the message having been dropped.
		if p, ok := m.Payload.(sim.IntPayload); ok {
			recv[j] = p.Value
		}
	}
	avoid := ctx.Neighbors
	if r.avoidOut {
		avoid = ctx.Out
	}
	// Evaluate every conflict-relevant neighbor's polynomial at every
	// point and pick the point with the fewest agreements with mine. A
	// neighbor that shares my color (after a defective step, or on a
	// damaged run) agrees at every point: it raises every count by one
	// and never moves the argmin.
	mod.Digits(n.color, digits)
	mod.Values(digits, myVals)
	clear(conflicts)
	for _, u := range avoid {
		j, inNbr := nbr.Rank(u)
		if !inNbr || recv[j] < 0 {
			// A neighbor's color is missing — lost or corrupted in
			// transit. The reliable-network model guarantees this never
			// happens; under fault injection the node degrades
			// deterministically by ignoring that neighbor (its conflicts
			// go uncounted) and lets the validators catch any damage.
			continue
		}
		mod.Digits(recv[j], digits)
		mod.Agreements(digits, myVals, conflicts)
	}
	bestA, bestConflicts := 0, int(^uint(0)>>1)
	for a, c := range conflicts {
		if c < bestConflicts {
			bestA, bestConflicts = a, c
		}
	}
	// When q > d·β and the coloring is proper, a proper (AllowFrac=0)
	// step always finds a conflict-free point; bestConflicts > 0 here
	// would mean a broken schedule or input coloring, or fault-induced
	// damage. Proceeding with the best available point keeps the run
	// deterministic either way — the validators are the safety net.
	n.color = gf.PointValue(bestA, myVals[bestA], step.Q)
	if round == len(r.steps) {
		r.out[ctx.ID] = n.color
		return nil, true
	}
	return n.broadcast(ctx.ID, step.ColorsOut()), false
}

// ReduceOn runs the given schedule on the network, starting from the
// given m-coloring, on the engine set-up e of the calling solve. If
// avoidOut is true the conflict set of each node is its out-neighbor
// set (the network must be oriented); otherwise it is the full
// neighborhood. cfg.BandwidthBits can enforce CONGEST. The run's total
// is recorded on cfg.Span.
func ReduceOn(e *sim.Engine, nw *sim.Network, colors []int, m int, steps []Step, avoidOut bool, cfg sim.Config) (Result, error) {
	n := nw.N()
	if len(colors) != n {
		return Result{}, fmt.Errorf("linial: %d colors for %d nodes", len(colors), n)
	}
	for v, c := range colors {
		if c < 0 || c >= m {
			return Result{}, fmt.Errorf("linial: node %d initial color %d outside [0,%d)", v, c, m)
		}
	}
	if avoidOut && nw.Oriented() == nil {
		return Result{}, fmt.Errorf("linial: avoidOut requires an oriented network")
	}
	if len(steps) > 0 {
		// Both the proper and the defect-tolerant reduction assume a
		// PROPER input coloring (same-colored neighbors share a
		// polynomial and could stay merged forever, breaking the defect
		// accounting).
		if err := graph.IsProperColoring(nw.CSR(), colors); err != nil {
			return Result{}, fmt.Errorf("linial: input coloring: %w", err)
		}
	}
	run := sim.Borrow[reduceRun](e)
	defer sim.Return(e, run)
	run.steps, run.avoidOut, run.out = steps, avoidOut, make([]int, n)
	run.mods, run.maxQ, run.maxDeg = run.mods[:0], 0, 0
	for _, step := range steps {
		run.mods = append(run.mods, gf.NewMod(step.Q))
		run.maxQ, run.maxDeg = max(run.maxQ, step.Q), max(run.maxDeg, step.Degree)
	}
	run.rn, run.nodes = graph.Carve(run.rn, n), graph.Carve(run.nodes, n)
	// Every node's scratch is a slice of one array: its degree's worth
	// of received colors, then a part of fixed size (two point tables
	// of maxQ entries, a digit buffer of maxDeg+1), so v's starts at
	// its CSR row offset plus v fixed parts. A run with an empty
	// schedule, where no node sends, carves none.
	c, fixed := nw.CSR(), 2*run.maxQ+run.maxDeg+1
	if len(steps) > 0 {
		run.scratch = graph.Carve(run.scratch, int(c.Arcs())+n*fixed)
		run.sends = graph.Carve(run.sends, n)
	}
	for v := range run.rn {
		rn := &run.rn[v]
		*rn = reduceNode{run: run, color: colors[v]}
		if len(steps) > 0 {
			lo := int(c.RowStart(v)) + v*fixed
			hi := lo + c.Degree(v) + fixed
			rn.scratch = run.scratch[lo:hi:hi]
		}
		run.nodes[v] = rn
	}
	stats, err := e.Run(nw, run.nodes, cfg)
	if err != nil {
		return Result{}, fmt.Errorf("linial: %w", err)
	}
	cfg.Span.Done(stats)
	palette := m
	if len(steps) > 0 {
		palette = steps[len(steps)-1].ColorsOut()
	}
	return Result{Colors: run.out, Palette: palette, Stats: stats}, nil
}

// ReduceProperCSR reduces a proper m-coloring of c to a proper
// Θ(Δ²)-coloring in O(log* m) rounds, on the engine set-up e of the
// calling solve.
func ReduceProperCSR(e *sim.Engine, c *graph.CSR, colors []int, m int, cfg sim.Config) (Result, error) {
	t := sim.Borrow[schedules](e)
	steps := t.proper(m, c.MaxDegree())
	sim.Return(e, t)
	return ReduceOn(e, sim.NewCSRNetwork(c), colors, m, steps, false, cfg)
}

// schedules is a solve's table of proper schedules by (m, β), borrowed
// from its engine: a class loop re-bootstraps every class from the
// same m, and its classes' degrees take few values.
type schedules struct {
	byKey map[[2]int][]Step
}

// proper returns ProperSchedule(m, beta), computing it only on the
// first request. Runs only read a schedule, so one serves them all.
func (t *schedules) proper(m, beta int) []Step {
	key := [2]int{m, beta}
	steps, ok := t.byKey[key]
	if !ok {
		if t.byKey == nil {
			t.byKey = make(map[[2]int][]Step)
		}
		steps = ProperSchedule(m, beta)
		t.byKey[key] = steps
	}
	return steps
}

// ColorFromIDs computes a proper Θ(Δ²)-coloring of g from scratch,
// using node ids as the initial n-coloring — the standard O(log* n)
// bootstrap every algorithm in the paper assumes.
func ColorFromIDs(g *graph.Graph, cfg sim.Config) (Result, error) {
	return ColorCSRFromIDs(new(sim.Engine), graph.CSRFromGraph(g), cfg)
}

// ColorCSRFromIDs is ColorFromIDs on a CSR graph and the engine set-up
// e of the calling solve.
func ColorCSRFromIDs(e *sim.Engine, c *graph.CSR, cfg sim.Config) (Result, error) {
	return ReduceProperCSR(e, c, graph.Vertices(c.N(), nil), c.N(), cfg)
}
