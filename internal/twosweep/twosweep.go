// Package twosweep implements the paper's core contribution: the
// Two-Sweep algorithm for oriented list defective coloring
// (Algorithm 1, ε = 0) and the Fast-Two-Sweep algorithm (Algorithm 2,
// ε > 0), proving Theorem 1.1.
//
// Given an oriented graph with a proper q-coloring, an integer p ≥ 1,
// and an OLDC instance satisfying the slack condition (Eq. 2)
//
//	Σ_{x∈L_v} (d_v(x)+1) > max{p, |L_v|/p} · β_v,
//
// the algorithm makes two sweeps over the q color classes. In Phase I
// (ascending) each node picks a sublist S_v ⊆ L_v of ≤ p colors
// maximizing Σ_{x∈S_v} (d_v(x) − k_v(x)), where k_v(x) counts how
// often x appears in the sublists of earlier out-neighbors. In
// Phase II (descending) each node commits to a color x ∈ S_v with
// k_v(x) + r_v(x) ≤ d_v(x), where r_v(x) counts later out-neighbors
// that already committed to x; Lemma 3.2 guarantees one exists.
// Total: O(q) rounds, messages of ≤ p colors.
//
// Fast-Two-Sweep first computes a defective coloring with α = ε/p
// (package defective, Lemma 3.4) and runs the Two-Sweep on the
// bichromatic subgraph with defects reduced by ⌊β_v·ε/p⌋, giving
// O(min{q, (p/ε)² + log* q}) rounds under the (1+ε) slack condition
// (Eq. 7).
package twosweep

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"listcolor/internal/coloring"
	"listcolor/internal/defective"
	"listcolor/internal/graph"
	"listcolor/internal/logstar"
	"listcolor/internal/palette"
	"listcolor/internal/sim"
)

// ErrSlack is returned when the instance violates the algorithm's
// slack precondition.
var ErrSlack = errors.New("twosweep: slack condition violated")

// ErrStuck is returned when a node finds no admissible color in
// Phase II — impossible under the precondition, so it indicates the
// precondition was bypassed or an internal bug.
var ErrStuck = errors.New("twosweep: node has no admissible color")

// Result is the outcome of a Two-Sweep run.
type Result struct {
	// Colors[v] ∈ L_v is the committed color of node v.
	Colors []int
	// Stats are the simulator's round/message/bit counts.
	Stats sim.Result
	// LocalOps is the deterministic total of elementary local
	// operations the Phase-I selections spent across all nodes — the
	// machine-independent "internal computation" measure behind the
	// paper's comparison with [MT20, FK23a] (whose nodes search subsets
	// of 2^{L_v}).
	LocalOps int64
}

// Selector chooses the Phase-I sublist S_v: given L_v, its defects,
// the counts k_v (a dense palette counter) and the size bound p, it
// returns the chosen colors and the elementary operations it spent.
// The scratch is the calling node's pooled selection arena; selectors
// may return a slice aliasing it (valid until the node's next
// selection). The default is the paper's sort-based selection
// (near-linear local computation); tests and benchmarks plug in an
// exhaustive subset search to reproduce the
// exponential-local-computation regime of [MT20, FK23a]. The ops
// counts are identical to the retained map-based reference selectors
// in internal/baseline (SelectSort / SelectBruteForce), which the
// differential tests enforce.
type Selector func(list, defects []int, k *palette.Counter, p int, scratch *palette.SelectScratch) (colors []int, ops int64)

// SortSelector is the paper's Phase-I selection: sort L_v by
// d_v(x) − k_v(x) descending (ties to the smaller color) and take the
// first p colors. O(Λ log Λ) operations, allocation-free in steady
// state on the palette kernel.
func SortSelector(list, defects []int, k *palette.Counter, p int, scratch *palette.SelectScratch) ([]int, int64) {
	return scratch.SelectTopP(list, defects, k, p)
}

// CheckSlack verifies Eq. 2 (with p) scaled by (1+ε) (Eq. 7 for
// ε > 0): Σ(d_v(x)+1) > (1+ε)·max{p, |L_v|/p}·β_v at every node.
// The ε = 0 comparison is integer-exact.
//
// Nodes with zero out-degree are skipped: they trivially succeed in
// both phases (k_v ≡ r_v ≡ 0, so any color of a non-empty list is
// admissible), which the color-space-reduction recursion relies on.
func CheckSlack(d coloring.Orientation, inst *coloring.Instance, p int, eps float64) error {
	for v := 0; v < inst.N(); v++ {
		if d.Outdeg(v) == 0 {
			continue
		}
		sum := inst.SlackSum(v)
		maxFactor := p * p
		if l := inst.ListSize(v); l > maxFactor {
			maxFactor = l
		}
		// Condition (cross-multiplied by p): sum·p > (1+ε)·maxFactor·β_v.
		lhs := float64(sum) * float64(p)
		rhs := (1 + eps) * float64(maxFactor) * float64(d.Beta(v))
		if eps == 0 {
			if sum*p <= maxFactor*d.Beta(v) {
				return fmt.Errorf("%w: node %d has Σ(d+1)=%d, need > max{p,|L|/p}·β = %d/%d",
					ErrSlack, v, sum, maxFactor*d.Beta(v), p)
			}
		} else if lhs <= rhs {
			return fmt.Errorf("%w: node %d has Σ(d+1)=%d ≤ (1+ε)·max{p,|L|/p}·β_v", ErrSlack, v, sum)
		}
	}
	return nil
}

// sweepRun is what every node of one Two-Sweep run shares: the
// parameters, the Phase-I selector and the output colors.
type sweepRun struct {
	q, p, space int
	selector    Selector
	colors      []int
}

// sweepNode is the per-node Two-Sweep state machine. A run allocates
// all its nodes' tables at once, as slices of a few per-run arrays
// (solveUnchecked): the rounds only index them and bump counters, so a
// run allocates per node only the payloads it sends.
type sweepNode struct {
	run  *sweepRun
	init int // initial color in [0, q)

	list    []int // L_v (sorted)
	defects []int // aligned defects

	initOf []int // per out-neighbor position: its initial color (0 if never received)

	// k counts color occurrences in the sublists of earlier
	// out-neighbors, r the committed colors of later out-neighbors —
	// both accumulated incrementally as the messages arrive, which is
	// equivalent to the Algorithm 1 formulation because every relevant
	// message is delivered no later than the round that reads it. k is
	// dense over the color space, as the Selector reads it; r is read
	// only at the colors of L_v, so it counts per list position.
	k       palette.Counter
	r       []int32
	scratch palette.SelectScratch

	sub  []int // our S_v
	ops  int64 // the Phase-I selection's local operations
	fail error
	send [1]sim.Outgoing // the one-entry outbox every send reuses
}

var _ sim.Node = (*sweepNode)(nil)

// initColorPayload and finalColorPayload distinguish the protocol's
// two single-color message types on the wire.
type initColorPayload struct{ sim.IntPayload }

type finalColorPayload struct{ sim.IntPayload }

func (n *sweepNode) Init(ctx *sim.Context) []sim.Outgoing {
	return n.broadcast(initColorPayload{sim.IntPayload{Value: n.init, Domain: n.run.q}})
}

func (n *sweepNode) Round(ctx *sim.Context, round int, inbox []sim.Message) ([]sim.Outgoing, bool) {
	for i := range inbox {
		m := &inbox[i]
		// Only out-neighbors' messages count toward k and r.
		j, ok := slices.BinarySearch(ctx.Out, m.From)
		if !ok {
			continue
		}
		switch p := m.Payload.(type) {
		case initColorPayload:
			n.initOf[j] = p.Value
		case finalColorPayload:
			// r_v(x): out-neighbors from later classes committing before
			// our Phase II turn. (Finals of smaller-init out-neighbors
			// cannot arrive before we commit, so the guard matches the
			// batch computation exactly.)
			if n.initOf[j] > n.init {
				if i, ok := slices.BinarySearch(n.list, p.Value); ok {
					n.r[i]++
				}
			}
		case sim.IntsPayload:
			// k_v(x): sublists of out-neighbors from earlier classes, all
			// delivered no later than our own Phase I turn.
			if n.initOf[j] < n.init {
				for _, x := range p.Values {
					n.k.Add(x)
				}
			}
		}
	}
	run := n.run
	switch {
	case round == 2+n.init:
		// Phase I turn: choose S_v.
		n.chooseSub()
		return n.broadcast(sim.IntsPayload{Values: n.sub, Domain: run.space, MaxLen: run.p}), false
	case round == 2*run.q+1-n.init:
		// Phase II turn: commit to a color.
		x, ok := n.chooseFinal()
		if !ok {
			n.fail = fmt.Errorf("%w: node %d (S_v=%v)", ErrStuck, ctx.ID, n.sub)
			return nil, true
		}
		run.colors[ctx.ID] = x
		return n.broadcast(finalColorPayload{sim.IntPayload{Value: x, Domain: run.space}}), true
	default:
		return nil, false
	}
}

// broadcast returns the one-entry outbox sending p to every neighbor.
// The engine routes an outbox before the node's next step, so every
// send reuses the node's entry.
func (n *sweepNode) broadcast(p sim.Payload) []sim.Outgoing {
	n.send[0] = sim.Outgoing{To: sim.Broadcast, Payload: p}
	return n.send[:]
}

// chooseSub computes S_v per Algorithm 1 lines 3–4 (k_v has been
// accumulated on arrival).
func (n *sweepNode) chooseSub() {
	n.sub, n.ops = n.run.selector(n.list, n.defects, &n.k, n.run.p, &n.scratch)
}

// chooseFinal picks the first x ∈ S_v with k_v(x) + r_v(x) ≤ d_v(x)
// (Eq. 5).
func (n *sweepNode) chooseFinal() (int, bool) {
	for _, x := range n.sub {
		if i, ok := slices.BinarySearch(n.list, x); ok && n.k.Get(x)+int(n.r[i]) <= n.defects[i] {
			return x, true
		}
	}
	return 0, false
}

// Solve runs Algorithm 1 (Two-Sweep, ε = 0) on the oriented graph d:
// initColors must be a proper q-coloring, and inst must satisfy the
// slack condition Eq. 2 for p. It returns an OLDC-valid coloring in
// 2q+1 rounds.
func Solve(d *graph.Digraph, inst *coloring.Instance, initColors []int, q, p int, cfg sim.Config) (Result, error) {
	return SolveWithSelector(d, inst, initColors, q, p, SortSelector, cfg)
}

// SolveWithSelector is Solve with a custom Phase-I selection strategy.
// Any selector that maximizes Σ_{x∈S}(d_v(x)+1−k_v(x)) over ≤p-subsets
// yields a correct algorithm (the Lemma 3.1 remark); selectors differ
// only in local computation, which is reported in Result.LocalOps.
// The total is recorded on cfg.Span.
func SolveWithSelector(d *graph.Digraph, inst *coloring.Instance, initColors []int, q, p int, sel Selector, cfg sim.Config) (Result, error) {
	return solve(new(sim.Engine), d.Oriented, inst, initColors, q, p, 0, sel, cfg)
}

// solveUnchecked runs the protocol without the slack precondition
// check (used by SolveFast, which establishes the derived condition
// analytically).
func solveUnchecked(e *sim.Engine, d *graph.Oriented, inst *coloring.Instance, initColors []int, q, p int, sel Selector, cfg sim.Config) (Result, error) {
	if d.M() == 0 {
		return solveEdgeless(e, inst, p, sel)
	}
	n, space := d.N(), inst.Space
	run := &sweepRun{q: q, p: p, space: space, selector: sel, colors: make([]int, n)}
	// Every node's tables are slices of one array per table: the
	// out-neighbors' initial colors (outdeg(v) entries), the k counts
	// (space), the colors k records (at most p per out-neighbor), the
	// r counts (|L_v|) and the selection scratch (2|L_v| + min(p, |L_v|)).
	var arcs, marks, entries, picks int
	for v := 0; v < n; v++ {
		od, l := d.Outdeg(v), inst.ListSize(v)
		arcs += od
		marks += min(p*od, space)
		entries += l
		picks += 2*l + min(p, l)
	}
	initOf, counts := make([]int, arcs), make([]int32, n*space+entries)
	touched, scratch := make([]int32, marks), make([]int, picks)
	sweep := make([]sweepNode, n)
	nodes := make([]sim.Node, n)
	for v := range sweep {
		od, l := d.Outdeg(v), inst.ListSize(v)
		sweep[v] = sweepNode{
			run:     run,
			init:    initColors[v],
			list:    inst.Lists[v],
			defects: inst.Defects[v],
			initOf:  carve(&initOf, od),
			k:       palette.CounterOn(carve(&counts, space), carve(&touched, min(p*od, space))),
			r:       carve(&counts, l),
			scratch: palette.SelectScratchOn(carve(&scratch, 2*l+min(p, l)), l),
		}
		nodes[v] = &sweep[v]
	}
	stats, err := e.Run(sim.NewOrientedCSRNetwork(d), nodes, cfg)
	if err != nil {
		return Result{}, fmt.Errorf("twosweep: %w", err)
	}
	var ops int64
	for v := range sweep {
		if f := sweep[v].fail; f != nil {
			return Result{}, f // the smallest failing node's error
		}
		ops += sweep[v].ops
	}
	return Result{Colors: run.colors, Stats: stats, LocalOps: ops}, nil
}

// carve returns the next k entries of *buf, capped at k so that a
// growing append copies instead of reaching the next node's entries,
// and advances *buf past them.
func carve[T any](buf *[]T, k int) []T {
	s := (*buf)[:k:k]
	*buf = (*buf)[k:]
	return s
}

// edgelessScratch is what every node of an edgeless run shares: a
// zero counter over the largest space so far and one selection
// scratch. solveEdgeless borrows it from the solve's engine.
type edgelessScratch struct {
	k     *palette.Counter
	space int
	sel   palette.SelectScratch
}

// solveEdgeless solves an edgeless (sub)graph: no conflicts are
// possible, so every node decides immediately — same color choice as
// the full protocol (first element of the selected sublist, which is
// what Phase II picks when k ≡ r ≡ 0), in a single round.
func solveEdgeless(e *sim.Engine, inst *coloring.Instance, p int, sel Selector) (Result, error) {
	sc := sim.Borrow[edgelessScratch](e)
	if sc.k == nil || sc.space < inst.Space {
		sc.k, sc.space = palette.NewCounter(inst.Space), inst.Space
	}
	defer func() {
		sc.k.Reset() // a selector may count into k; the next borrower gets it zero
		sim.Return(e, sc)
	}()
	// One zero counter and one scratch serve every node: selection
	// only reads k, and out[v] is copied before the next node
	// overwrites the scratch-backed sublist.
	out := make([]int, inst.N())
	var ops int64
	for v := range out {
		sub, o := sel(inst.Lists[v], inst.Defects[v], sc.k, p, &sc.sel)
		ops += o
		if len(sub) == 0 {
			return Result{}, fmt.Errorf("%w: node %d (empty selection)", ErrStuck, v)
		}
		out[v] = sub[0]
	}
	return Result{Colors: out, Stats: sim.Result{Rounds: 1}, LocalOps: ops}, nil
}

func validateInputs(d *graph.Oriented, inst *coloring.Instance, initColors []int, q, p int) error {
	if p < 1 {
		return fmt.Errorf("twosweep: p must be ≥ 1, got %d", p)
	}
	if inst.N() != d.N() || len(initColors) != d.N() {
		return fmt.Errorf("twosweep: size mismatch (graph %d, instance %d, colors %d)", d.N(), inst.N(), len(initColors))
	}
	if err := inst.Validate(); err != nil {
		return err
	}
	for v := 0; v < inst.N(); v++ {
		if inst.ListSize(v) == 0 {
			return fmt.Errorf("twosweep: node %d has an empty color list", v)
		}
	}
	for v, c := range initColors {
		if c < 0 || c >= q {
			return fmt.Errorf("twosweep: node %d initial color %d outside [0,%d)", v, c, q)
		}
	}
	if err := graph.IsProperColoring(d, initColors); err != nil {
		return fmt.Errorf("twosweep: initial coloring not proper: %w", err)
	}
	return nil
}

// SolveFast runs Algorithm 2 (Fast-Two-Sweep): under the (1+ε) slack
// condition (Eq. 7) it solves the OLDC instance in
// O(min{q, (p/ε)² + log* q}) rounds. For ε = 0 it is Solve.
// initColors must be a proper q-coloring. The split and the sweep are
// recorded under cfg.Span, and the total on it.
func SolveFast(d *graph.Digraph, inst *coloring.Instance, initColors []int, q, p int, eps float64, cfg sim.Config) (Result, error) {
	return SolveFastOn(new(sim.Engine), d.Oriented, inst, initColors, q, p, eps, cfg)
}

// SolveFastOn is SolveFast on the CSR form and the engine set-up e of
// the calling solve.
func SolveFastOn(e *sim.Engine, d *graph.Oriented, inst *coloring.Instance, initColors []int, q, p int, eps float64, cfg sim.Config) (Result, error) {
	return solve(e, d, inst, initColors, q, p, eps, SortSelector, cfg)
}

// solve is Algorithm 2 with Phase-I selector sel, and with ε = 0
// Algorithm 1: an infinite p/ε always takes the plain sweep.
func solve(e *sim.Engine, d *graph.Oriented, inst *coloring.Instance, initColors []int, q, p int, eps float64, sel Selector, cfg sim.Config) (res Result, err error) {
	defer func() {
		if err == nil {
			cfg.Span.Done(res.Stats)
		}
	}()
	if eps < 0 {
		return Result{}, fmt.Errorf("twosweep: negative ε %v", eps)
	}
	if err := validateInputs(d, inst, initColors, q, p); err != nil {
		return Result{}, err
	}
	if err := CheckSlack(d, inst, p, eps); err != nil {
		return Result{}, err
	}
	// Cheap case: the plain sweep over q classes is already within the
	// target bound (Algorithm 2, line 1).
	pOverEps := float64(p) / eps
	if float64(q) <= pOverEps*pOverEps+float64(logstar.LogStar(q)) {
		return solveUnchecked(e, d, inst, initColors, q, p, sel, cfg)
	}
	// Step 1: defective coloring Ψ with α = ε/p (Lemma 3.4).
	alpha := eps / float64(p)
	span := cfg.Span
	subCfg := cfg
	if span != nil {
		subCfg.Span = span.Child(fmt.Sprintf("defective split α=%.3g (Lemma 3.4)", alpha))
	}
	psi, err := defective.ColorOn(e, sim.NewOrientedCSRNetwork(d), initColors, q, alpha, subCfg)
	if err != nil {
		return Result{}, fmt.Errorf("twosweep: defective preprocessing: %w", err)
	}
	subCfg.Span.Done(psi.Stats)
	// Step 2: drop monochromatic edges; reduce defects by the at most
	// ⌊β_v·ε/p⌋ conflicts Ψ may hide on them.
	dPrime := d.Filter(func(u, v int) bool { return psi.Colors[u] != psi.Colors[v] })
	// Reduce by the conflicts Ψ may hide. Using the true out-degree
	// (not the β_v = max(1,·) convention) keeps zero-out-degree nodes,
	// which can never suffer hidden conflicts, at full defect.
	reduced := inst.MapDefects(func(v, x, dv int) int {
		return dv - int(math.Floor(alpha*float64(d.Outdeg(v))))
	})
	// Step 3: Two-Sweep over the K = O(p²/ε²) classes of Ψ.
	sweepCfg := cfg
	if span != nil {
		sweepCfg.Span = span.Child(fmt.Sprintf("two-sweep over q'=%d classes (Algorithm 1)", psi.Palette))
	}
	sub, err := solveUnchecked(e, dPrime, reduced, psi.Colors, psi.Palette, p, sel, sweepCfg)
	if err != nil {
		return Result{}, err
	}
	sweepCfg.Span.Done(sub.Stats)
	return Result{Colors: sub.Colors, Stats: sim.Seq(psi.Stats, sub.Stats)}, nil
}
