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

// reduceNode executes a reduction schedule at one node. All per-round
// scratch (the received-color table indexed by neighbor rank, the
// point-value arrays, the polynomial coefficient buffers) is allocated
// once in Init and reused, so steady-state rounds allocate nothing.
type reduceNode struct {
	steps    []Step
	color    int
	avoidOut bool // conflict set = out-neighbors (else all neighbors)
	result   *int

	nbr       palette.Index // rank over ctx.Neighbors (sorted)
	recv      []int         // received color per neighbor rank, -1 = missing
	myVals    []int         // my polynomial evaluated at each point
	conflicts []int         // per-point agreement counts
	mineBuf   []int         // coefficient scratch for my polynomial
	theirsBuf []int         // coefficient scratch for neighbor polynomials
}

var _ sim.Node = (*reduceNode)(nil)

func (n *reduceNode) Init(ctx *sim.Context) []sim.Outgoing {
	if len(n.steps) == 0 {
		return nil
	}
	n.nbr = palette.NewIndex(ctx.Neighbors)
	n.recv = make([]int, n.nbr.Len())
	maxQ, maxDeg := 0, 0
	for _, step := range n.steps {
		if step.Q > maxQ {
			maxQ = step.Q
		}
		if step.Degree > maxDeg {
			maxDeg = step.Degree
		}
	}
	n.myVals = make([]int, maxQ)
	n.conflicts = make([]int, maxQ)
	n.mineBuf = make([]int, maxDeg+1)
	n.theirsBuf = make([]int, maxDeg+1)
	return []sim.Outgoing{{To: sim.Broadcast, Payload: sim.IntPayload{Value: n.color, Domain: n.steps[0].ColorsIn}}}
}

func (n *reduceNode) Round(ctx *sim.Context, round int, inbox []sim.Message) ([]sim.Outgoing, bool) {
	if len(n.steps) == 0 {
		*n.result = n.color
		return nil, true
	}
	step := n.steps[round-1]
	for i := range n.recv {
		n.recv[i] = -1
	}
	for _, m := range inbox {
		j, ok := n.nbr.Rank(m.From)
		if !ok {
			continue
		}
		// A corrupted payload fails the assertion and is treated as
		// garbage — equivalent to the message having been dropped.
		if p, ok := m.Payload.(sim.IntPayload); ok {
			n.recv[j] = p.Value
		}
	}
	avoid := ctx.Neighbors
	if n.avoidOut {
		avoid = ctx.Out
	}
	mine := gf.PolyFromIntInto(n.color, step.Q, step.Degree, n.mineBuf)
	// Evaluate every conflict-relevant neighbor's polynomial at every
	// point and pick the point with the fewest agreements with mine.
	// Neighbors that currently share our color agree everywhere and
	// shift every point's count equally, so they never affect the
	// argmin — but for the proper (α=0) invariant check we must ignore
	// them... they cannot exist when the input coloring is proper.
	bestA, bestConflicts := 0, int(^uint(0)>>1)
	myVals := n.myVals[:step.Q]
	for a := 0; a < step.Q; a++ {
		myVals[a] = mine.Eval(a)
	}
	conflicts := n.conflicts[:step.Q]
	for a := range conflicts {
		conflicts[a] = 0
	}
	for _, u := range avoid {
		j, inNbr := n.nbr.Rank(u)
		if !inNbr || n.recv[j] < 0 {
			// A neighbor's color is missing — lost or corrupted in
			// transit. The reliable-network model guarantees this never
			// happens; under fault injection the node degrades
			// deterministically by ignoring that neighbor (its conflicts
			// go uncounted) and lets the validators catch any damage.
			continue
		}
		theirs := gf.PolyFromIntInto(n.recv[j], step.Q, step.Degree, n.theirsBuf)
		for a := 0; a < step.Q; a++ {
			if theirs.Eval(a) == myVals[a] {
				conflicts[a]++
			}
		}
	}
	for a := 0; a < step.Q; a++ {
		if conflicts[a] < bestConflicts {
			bestA, bestConflicts = a, conflicts[a]
		}
	}
	// When q > d·β and the coloring is proper, a proper (AllowFrac=0)
	// step always finds a conflict-free point; bestConflicts > 0 here
	// would mean a broken schedule or input coloring, or fault-induced
	// damage. Proceeding with the best available point keeps the run
	// deterministic either way — the validators are the safety net.
	n.color = gf.PointValue(bestA, myVals[bestA], step.Q)
	if round == len(n.steps) {
		*n.result = n.color
		return nil, true
	}
	return []sim.Outgoing{{To: sim.Broadcast, Payload: sim.IntPayload{Value: n.color, Domain: step.ColorsOut()}}}, false
}

// Reduce runs the given schedule on the network, starting from the
// given m-coloring. If avoidOut is true the conflict set of each node
// is its out-neighbor set (the network must be oriented); otherwise it
// is the full neighborhood. cfg.BandwidthBits can enforce CONGEST.
// The run's total is recorded on cfg.Span.
func Reduce(nw *sim.Network, colors []int, m int, steps []Step, avoidOut bool, cfg sim.Config) (Result, error) {
	n := nw.N()
	if len(colors) != n {
		return Result{}, fmt.Errorf("linial: %d colors for %d nodes", len(colors), n)
	}
	for v, c := range colors {
		if c < 0 || c >= m {
			return Result{}, fmt.Errorf("linial: node %d initial color %d outside [0,%d)", v, c, m)
		}
	}
	if avoidOut && nw.Digraph() == nil {
		return Result{}, fmt.Errorf("linial: avoidOut requires an oriented network")
	}
	if len(steps) > 0 {
		// Both the proper and the defect-tolerant reduction assume a
		// PROPER input coloring (same-colored neighbors share a
		// polynomial and could stay merged forever, breaking the defect
		// accounting).
		if err := graph.IsProperColoring(nw.Graph(), colors); err != nil {
			return Result{}, fmt.Errorf("linial: input coloring: %w", err)
		}
	}
	out := make([]int, n)
	nodes := make([]sim.Node, n)
	for v := 0; v < n; v++ {
		nodes[v] = &reduceNode{steps: steps, color: colors[v], avoidOut: avoidOut, result: &out[v]}
	}
	stats, err := sim.Run(nw, nodes, cfg)
	if err != nil {
		return Result{}, fmt.Errorf("linial: %w", err)
	}
	cfg.Span.Done(stats)
	palette := m
	if len(steps) > 0 {
		palette = steps[len(steps)-1].ColorsOut()
	}
	return Result{Colors: out, Palette: palette, Stats: stats}, nil
}

// ReduceProperOriented reduces a proper m-coloring of the oriented
// graph d to a proper Θ(β²)-coloring in O(log* m) rounds, where
// β = d.MaxBeta().
func ReduceProperOriented(d *graph.Digraph, colors []int, m int, cfg sim.Config) (Result, error) {
	steps := ProperSchedule(m, d.MaxBeta())
	return Reduce(sim.NewOrientedNetwork(d), colors, m, steps, true, cfg)
}

// ReduceProperUndirected reduces a proper m-coloring of g to a proper
// Θ(Δ²)-coloring in O(log* m) rounds.
func ReduceProperUndirected(g *graph.Graph, colors []int, m int, cfg sim.Config) (Result, error) {
	steps := ProperSchedule(m, g.MaxDegree())
	return Reduce(sim.NewNetwork(g), colors, m, steps, false, cfg)
}

// ColorFromIDs computes a proper Θ(Δ²)-coloring of g from scratch,
// using node ids as the initial n-coloring — the standard O(log* n)
// bootstrap every algorithm in the paper assumes.
func ColorFromIDs(g *graph.Graph, cfg sim.Config) (Result, error) {
	n := g.N()
	ids := make([]int, n)
	for v := range ids {
		ids[v] = v
	}
	return ReduceProperUndirected(g, ids, n, cfg)
}
