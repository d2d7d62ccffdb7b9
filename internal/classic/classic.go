// Package classic implements the classical defective-coloring
// constructions the paper generalizes, as described in its
// introduction:
//
//   - the distributed single-sweep d-arbdefective coloring with
//     ⌈(Δ+1)/(d+1)⌉ colors [BE10] (one round per initial color class);
//   - Claim 4.1's corollary: on graphs of neighborhood independence θ,
//     the single sweep yields a (2d+1)·θ-DEFECTIVE coloring;
//   - the Two-Sweep *product* construction [BE09, BHL+19]: two sweeps
//     in opposite order over the initial color classes, final color =
//     (first-sweep color, second-sweep color) ∈ [c]², giving a
//     defective coloring with c² colors whose defect is at most
//     2·⌊Δ/c⌋ (the paper's Algorithm 1 is the list generalization of
//     exactly this scheme).
//
// These serve as baselines (benchmark E13) and as executable
// documentation of where Algorithm 1 comes from.
package classic

import (
	"fmt"

	"listcolor/internal/graph"
	"listcolor/internal/palette"
	"listcolor/internal/sim"
)

// sweepArbNode is the distributed single-sweep node: at its initial
// color class's turn it picks the least-used color among
// earlier-decided neighbors and broadcasts it.
type sweepArbNode struct {
	q, c   int
	init   int
	counts *palette.Counter
	result *int
}

var _ sim.Node = (*sweepArbNode)(nil)

func (s *sweepArbNode) Init(ctx *sim.Context) []sim.Outgoing { return nil }

func (s *sweepArbNode) Round(ctx *sim.Context, round int, inbox []sim.Message) ([]sim.Outgoing, bool) {
	for _, m := range inbox {
		if p, ok := m.Payload.(sim.IntPayload); ok {
			s.counts.Add(p.Value) // corrupted payloads fail the assertion and are ignored
		}
	}
	if round != s.init+1 {
		return nil, false
	}
	best := s.counts.ArgMin(s.c)
	*s.result = best
	return []sim.Outgoing{{To: sim.Broadcast, Payload: sim.IntPayload{Value: best, Domain: s.c}}}, true
}

// SweepArb is the distributed single-sweep d-arbdefective coloring:
// given a proper q-coloring, it sweeps the classes in ascending order
// (one round each); every node ends with at most d earlier-decided
// neighbors of its color, the arcs pointing at them. O(q) rounds,
// c = ⌈(Δ+1)/(d+1)⌉ colors.
func SweepArb(g *graph.Graph, initColors []int, q, d int, cfg sim.Config) (colors []int, arcs [][2]int, c int, stats sim.Result, err error) {
	if err := checkInit(g, initColors, q); err != nil {
		return nil, nil, 0, sim.Result{}, err
	}
	delta := g.RawMaxDegree()
	c = (delta + 1 + d) / (d + 1)
	n := g.N()
	colors = make([]int, n)
	nodes := make([]sim.Node, n)
	for v := 0; v < n; v++ {
		nodes[v] = &sweepArbNode{q: q, c: c, init: initColors[v], counts: palette.NewCounter(c), result: &colors[v]}
	}
	stats, err = sim.Run(sim.NewNetwork(g), nodes, cfg)
	if err != nil {
		return nil, nil, 0, stats, fmt.Errorf("classic: %w", err)
	}
	// Orient monochromatic edges toward the earlier class (ties are
	// impossible: the initial coloring is proper).
	for _, e := range g.Edges() {
		if colors[e[0]] == colors[e[1]] {
			if initColors[e[0]] > initColors[e[1]] {
				arcs = append(arcs, [2]int{e[0], e[1]})
			} else {
				arcs = append(arcs, [2]int{e[1], e[0]})
			}
		}
	}
	return colors, arcs, c, stats, nil
}

// productNode runs both sweeps of the classical product construction:
// ascending classes decide the first coordinate, descending classes
// the second; the final color is first·c + second.
type productNode struct {
	q, c    int
	init    int
	counts1 *palette.Counter // earlier neighbors' first coordinates
	counts2 *palette.Counter // later neighbors' second coordinates
	first   int
	result  *int
}

var _ sim.Node = (*productNode)(nil)

// firstPayload and secondPayload distinguish sweep coordinates on the
// wire.
type firstPayload struct{ sim.IntPayload }
type secondPayload struct{ sim.IntPayload }

func (p *productNode) Init(ctx *sim.Context) []sim.Outgoing { return nil }

func (p *productNode) Round(ctx *sim.Context, round int, inbox []sim.Message) ([]sim.Outgoing, bool) {
	for _, m := range inbox {
		switch pay := m.Payload.(type) {
		case firstPayload:
			p.counts1.Add(pay.Value)
		case secondPayload:
			p.counts2.Add(pay.Value)
		}
	}
	switch round {
	case p.init + 1:
		// Ascending sweep: minimize over earlier neighbors' first
		// coordinates.
		p.first = p.counts1.ArgMin(p.c)
		return []sim.Outgoing{{To: sim.Broadcast, Payload: firstPayload{sim.IntPayload{Value: p.first, Domain: p.c}}}}, false
	case 2*p.q - p.init:
		// Descending sweep: minimize over later neighbors' second
		// coordinates.
		second := p.counts2.ArgMin(p.c)
		*p.result = p.first*p.c + second
		return []sim.Outgoing{{To: sim.Broadcast, Payload: secondPayload{sim.IntPayload{Value: second, Domain: p.c}}}}, true
	default:
		return nil, false
	}
}

// ProductDefective is the classical two-sweep product construction
// [BE09, BHL+19]: a defective coloring with c² colors in which every
// node has at most 2·⌊Δ/c⌋ same-colored neighbors (the first sweep
// bounds conflicts toward earlier classes, the second toward later
// ones; a neighbor conflicts only if both coordinates collide). The
// paper's Algorithm 1 generalizes exactly this scheme to lists.
func ProductDefective(g *graph.Graph, initColors []int, q, c int, cfg sim.Config) (colors []int, stats sim.Result, err error) {
	if c < 1 {
		return nil, sim.Result{}, fmt.Errorf("classic: need ≥ 1 color per sweep")
	}
	if err := checkInit(g, initColors, q); err != nil {
		return nil, sim.Result{}, err
	}
	n := g.N()
	colors = make([]int, n)
	nodes := make([]sim.Node, n)
	for v := 0; v < n; v++ {
		nodes[v] = &productNode{
			q: q, c: c, init: initColors[v],
			counts1: palette.NewCounter(c), counts2: palette.NewCounter(c),
			result: &colors[v],
		}
	}
	stats, err = sim.Run(sim.NewNetwork(g), nodes, cfg)
	if err != nil {
		return nil, stats, fmt.Errorf("classic: %w", err)
	}
	return colors, stats, nil
}

func checkInit(g *graph.Graph, initColors []int, q int) error {
	if len(initColors) != g.N() {
		return fmt.Errorf("classic: %d init colors for %d nodes", len(initColors), g.N())
	}
	for v, col := range initColors {
		if col < 0 || col >= q {
			return fmt.Errorf("classic: node %d initial color %d outside [0,%d)", v, col, q)
		}
	}
	if err := graph.IsProperColoring(g, initColors); err != nil {
		return fmt.Errorf("classic: initial coloring not proper: %w", err)
	}
	return nil
}
