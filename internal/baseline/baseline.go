// Package baseline implements the comparison algorithms the
// experiments measure the paper's contributions against:
//
//   - GreedyList: the sequential greedy list coloring (the coloring
//     quality yardstick; requires |L_v| ≥ deg(v)+1).
//   - Luby: the randomized O(log n)-round (Δ+1)-coloring of
//     [ABI86, Lub86, Lin87], as a genuine message-passing protocol.
//   - SelectSort / SelectBruteForce: the Phase-I sublist selection of
//     the Two-Sweep algorithm implemented two ways — the paper's
//     near-linear sort (what package twosweep does) and an exhaustive
//     subset search standing in for the exponential-local-computation
//     algorithms of [MT20, FK23a] (whose nodes search subsets of
//     2^{L_v}; Appendix C of the full version reports local
//     computation more than exponential in the list size). Benchmark
//     E6 compares the brute force with the sort twosweep runs
//     (palette.SelectTopP); SelectSort, the map-based form of that
//     sort, is the reference tests hold SelectTopP to. All return
//     selections of equal quality, so the comparison is purely
//     computational.
package baseline

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/palette"
	"listcolor/internal/sim"
)

// ErrStuck is returned when a greedy baseline cannot proceed.
var ErrStuck = errors.New("baseline: greedy stuck")

// GreedyList colors g properly from the instance's lists by a single
// sequential sweep in id order. It requires |L_v| ≥ deg(v)+1 (then a
// free color always exists).
func GreedyList(g *graph.Graph, inst *coloring.Instance) ([]int, error) {
	n := g.N()
	colors := make([]int, n)
	for v := range colors {
		colors[v] = -1
	}
	used := palette.NewSet(inst.Space)
	for v := 0; v < n; v++ {
		used.Clear()
		for _, u := range g.Neighbors(v) {
			if colors[u] >= 0 {
				used.Insert(colors[u])
			}
		}
		chosen := -1
		for _, x := range inst.Lists[v] {
			if !used.Contains(x) {
				chosen = x
				break
			}
		}
		if chosen < 0 {
			return nil, fmt.Errorf("%w: node %d has no free color", ErrStuck, v)
		}
		colors[v] = chosen
	}
	return colors, nil
}

// lubyNode is the per-node protocol of the randomized (Δ+1)-coloring:
// every round, each uncolored node proposes a random color from its
// remaining palette; a proposal is kept if no uncolored neighbor
// proposed the same color and no colored neighbor owns it. The
// remaining palette is a kernel bitset; drawing the i-th smallest
// member reproduces exactly the sorted-options draw of the old
// map-based implementation, so colorings are unchanged for a seed.
type lubyNode struct {
	rng      *rand.Rand
	palette  *palette.Set
	proposal int
	result   *int
	space    int
}

func (l *lubyNode) Init(ctx *sim.Context) []sim.Outgoing {
	return l.propose()
}

func (l *lubyNode) propose() []sim.Outgoing {
	x, ok := l.palette.NthSet(l.rng.Intn(l.palette.Len()))
	if !ok {
		panic("baseline: luby palette exhausted")
	}
	l.proposal = x
	return []sim.Outgoing{{To: sim.Broadcast, Payload: sim.PairPayload{
		A: l.proposal, B: 0, DomainA: l.space, DomainB: 2,
	}}}
}

func (l *lubyNode) Round(ctx *sim.Context, round int, inbox []sim.Message) ([]sim.Outgoing, bool) {
	conflict := false
	for _, m := range inbox {
		p, ok := m.Payload.(sim.PairPayload)
		if !ok {
			continue // corrupted in transit: treated as garbage/dropped
		}
		if p.B == 1 { // neighbor finalized this color
			l.palette.Remove(p.A)
			if p.A == l.proposal {
				conflict = true
			}
		} else if p.A == l.proposal {
			conflict = true
		}
	}
	if !conflict {
		*l.result = l.proposal
		return []sim.Outgoing{{To: sim.Broadcast, Payload: sim.PairPayload{
			A: l.proposal, B: 1, DomainA: l.space, DomainB: 2,
		}}}, true
	}
	return l.propose(), false
}

// Luby runs the randomized (Δ+1)-coloring protocol and returns the
// coloring plus simulation statistics. Each node's palette is
// [0, Δ+1); randomness is drawn from per-node generators seeded from
// seed, so runs are reproducible. The total is recorded on cfg.Span.
func Luby(g *graph.Graph, seed int64, cfg sim.Config) ([]int, sim.Result, error) {
	n := g.N()
	space := g.RawMaxDegree() + 1
	colors := make([]int, n)
	nodes := make([]sim.Node, n)
	for v := 0; v < n; v++ {
		pal := palette.NewSet(space)
		pal.Fill()
		nodes[v] = &lubyNode{
			rng:     rand.New(rand.NewSource(seed ^ int64(v)*0x5851F42D4C957F2D)),
			palette: pal,
			result:  &colors[v],
			space:   space,
		}
	}
	stats, err := sim.Run(sim.NewNetwork(g), nodes, cfg)
	if err != nil {
		return nil, stats, fmt.Errorf("baseline: luby: %w", err)
	}
	cfg.Span.Done(stats)
	return colors, stats, nil
}

// BruteForceOLDC searches for ANY valid oriented list defective
// coloring by backtracking over the nodes in id order. It returns the
// coloring and true if one exists. Exponential in n — usable only for
// the tiny instances of cross-validation tests, where it provides the
// ground truth of instance solvability (Theorem 1.1's slack condition
// is sufficient for solvability, so any slack-satisfying instance must
// come back true).
func BruteForceOLDC(d *graph.Digraph, inst *coloring.Instance) ([]int, bool) {
	n := d.N()
	if n > 20 {
		panic("baseline: BruteForceOLDC infeasible beyond 20 nodes")
	}
	colors := make([]int, n)
	for v := range colors {
		colors[v] = -1
	}
	var try func(v int) bool
	feasibleSoFar := func(v int) bool {
		// Check the out-defect of v and of every earlier node that can
		// no longer gain conflicts... conservatively, recheck all
		// assigned nodes' defects against assigned out-neighbors.
		for u := 0; u <= v; u++ {
			allowed, ok := inst.DefectOf(u, colors[u])
			if !ok {
				return false
			}
			conflicts := 0
			for _, w := range d.Out(u) {
				if colors[w] >= 0 && colors[w] == colors[u] {
					conflicts++
				}
			}
			if conflicts > allowed {
				return false
			}
		}
		return true
	}
	try = func(v int) bool {
		if v == n {
			return true
		}
		for _, x := range inst.Lists[v] {
			colors[v] = x
			if feasibleSoFar(v) && try(v+1) {
				return true
			}
		}
		colors[v] = -1
		return false
	}
	if try(0) {
		return colors, true
	}
	return nil, false
}

// Selection is the outcome of a Phase-I sublist selection: the chosen
// colors, the objective value Σ_{x∈S}(d_v(x)+1) − k_v(x) it achieves
// (higher is better; both implementations maximize it exactly), and a
// deterministic count of the elementary operations spent — the
// machine-independent "internal computation" measure the paper's
// complexity comparison is about.
type Selection struct {
	Colors []int
	Value  int
	Ops    int64
}

// SelectSort picks the ≤ p colors maximizing Σ (d(x) − k(x)) by
// sorting — the Two-Sweep algorithm's O(Λ log Λ) local computation.
func SelectSort(list, defects []int, k map[int]int, p int) Selection {
	idx := make([]int, len(list))
	for i := range idx {
		idx[i] = i
	}
	var ops int64
	score := func(i int) int { return defects[i] - k[list[i]] }
	sort.SliceStable(idx, func(a, b int) bool {
		ops++
		return score(idx[a]) > score(idx[b])
	})
	take := p
	if len(list) < take {
		take = len(list)
	}
	sel := Selection{Colors: make([]int, 0, take)}
	for _, i := range idx[:take] {
		ops++
		sel.Colors = append(sel.Colors, list[i])
		sel.Value += defects[i] + 1 - k[list[i]]
	}
	sort.Ints(sel.Colors)
	sel.Ops = ops
	return sel
}

// SelectBruteForce finds the same optimum by exhaustively scoring
// every subset of the list of size ≤ p — Θ(2^Λ·Λ) local computation,
// the cost regime of the subset-searching algorithms in [MT20, FK23a].
// It panics for lists longer than 24 colors (2^24 subsets), which is
// exactly the point the computational-complexity comparison makes.
func SelectBruteForce(list, defects []int, k map[int]int, p int) Selection {
	if len(list) > 24 {
		panic("baseline: brute-force subset search infeasible beyond 24 colors")
	}
	want := p
	if len(list) < want {
		want = len(list)
	}
	var ops int64
	best := Selection{Value: -1 << 62}
	for mask := 1; mask < 1<<uint(len(list)); mask++ {
		ops++
		if popcount(mask) != want {
			continue
		}
		value := 0
		for i := 0; i < len(list); i++ {
			ops++
			if mask&(1<<uint(i)) != 0 {
				value += defects[i] + 1 - k[list[i]]
			}
		}
		if value > best.Value {
			best.Value = value
			best.Colors = best.Colors[:0]
			for i := 0; i < len(list); i++ {
				if mask&(1<<uint(i)) != 0 {
					best.Colors = append(best.Colors, list[i])
				}
			}
		}
	}
	sort.Ints(best.Colors)
	best.Ops = ops
	return best
}

func popcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// SubsetSelector adapts SelectBruteForce to the Phase-I selector
// signature used by the twosweep package, so the full Two-Sweep
// algorithm can be run end-to-end in the exponential-local-computation
// regime of [MT20, FK23a] for comparison (benchmark E15). It copies
// the counts of the list's colors out of the kernel Counter into the
// map SelectBruteForce reads; the copy is not counted in Ops.
func SubsetSelector(list, defects []int, k *palette.Counter, p int, scratch *palette.SelectScratch) ([]int, int64) {
	km := make(map[int]int, len(list))
	for _, x := range list {
		km[x] = k.Get(x)
	}
	sel := SelectBruteForce(list, defects, km, p)
	return sel.Colors, sel.Ops
}
