package nbhood

import (
	"fmt"
	"strconv"

	"listcolor/internal/coloring"
	"listcolor/internal/defective"
	"listcolor/internal/graph"
	"listcolor/internal/linial"
	"listcolor/internal/logstar"
	"listcolor/internal/palette"
	"listcolor/internal/sim"
)

// edgelessArb colors an edgeless (sub)graph in one round, recorded on
// span: with no neighbors, any list color satisfies any defect, so
// every node takes its first. It fails when some list is empty.
func edgelessArb(inst *coloring.Instance, span *sim.Span) (coloring.ArbResult, sim.Result, error) {
	colors := make([]int, inst.N())
	for v := 0; v < inst.N(); v++ {
		if inst.ListSize(v) == 0 {
			return coloring.ArbResult{}, sim.Result{}, fmt.Errorf("%w: node %d has an empty list", ErrSlack, v)
		}
		colors[v] = inst.Lists[v][0]
	}
	span.Done(sim.Result{Rounds: 1})
	return coloring.ArbResult{Colors: colors}, sim.Result{Rounds: 1}, nil
}

// announceStats is the cost of the one round in which a batch of
// newly colored nodes broadcasts its colors to all neighbors: one
// O(log C)-bit message per incident edge end.
func announceStats(g *graph.CSR, orig []int, space int) sim.Result {
	bits := sim.BitsFor(space)
	msgs := 0
	for _, v := range orig {
		msgs += g.Degree(v)
	}
	return sim.Result{Rounds: 1, Messages: msgs, TotalBits: msgs * bits, MaxMessageBits: bits}
}

// bucketByClass groups the positions 0..len(colors)−1 by their class
// in [0, k) with one counting pass: class c's members are
// members[start[c]:start[c+1]], ascending. A slack reduction's pass
// over its classes thus costs O(len(colors) + k).
func bucketByClass(colors []int, k int) (start, members []int) {
	start = make([]int, k+1)
	for _, c := range colors {
		start[c+1]++
	}
	for c := 0; c < k; c++ {
		start[c+1] += start[c]
	}
	next := append([]int(nil), start[:k]...)
	members = make([]int, len(colors))
	for i, c := range colors {
		members[next[c]] = i
		next[c]++
	}
	return start, members
}

// classes is the state the slack reductions (Lemmas 4.4 and A.1)
// share across their sequential class steps: the committed colors and
// arcs, and the counter that prunes one node's list at a time.
type classes struct {
	e      *sim.Engine
	g      *graph.CSR
	inst   *coloring.Instance
	base   []int // proper q-coloring of g
	q      int
	arb    ArbSolver
	cfg    sim.Config // span-free: sub-protocols record nothing
	colors []int      // −1 until committed
	arcs   [][2]int
	count  *palette.Counter // a_v(x) for the node being pruned
	// The current class's sub-problem: the graph it induces, its base
	// colors, and its pruned instance, whose lists and defects are
	// windows of two flat arrays. All are re-carved from class to class
	// (a sub-solver keeps nothing it is given past its return).
	induced        graph.CSR
	subBase        []int
	sub            coloring.Instance
	lists, defects []int
}

func newClasses(e *sim.Engine, g *graph.CSR, inst *coloring.Instance, base []int, q int, arb ArbSolver, cfg sim.Config) *classes {
	colors := make([]int, g.N())
	for v := range colors {
		colors[v] = -1
	}
	return &classes{e: e, g: g, inst: inst, base: base, q: q, arb: arb, cfg: cfg.WithoutSpan(), colors: colors, count: palette.NewCounter(inst.Space)}
}

// step colors one class, given as ascending original ids: prune the
// lists by the colors committed so far, re-bootstrap the class
// subgraph's proper coloring, solve it with arb, validate, and commit.
// It returns the class's own cost and that cost plus the round that
// announces the new colors.
func (c *classes) step(nodes []int) (own, total sim.Result, err error) {
	sub := c.g.Induce(nodes, &c.e.Index, &c.induced)
	subInst := c.prune(nodes)
	c.subBase = graph.Restrict(c.base, nodes, c.subBase)
	// Re-bootstrap: the class subgraph has much smaller degree than g,
	// so O(log* q) rounds of Linial shrink its proper coloring from
	// q = O(Δ²) to O(Δ_sub²) classes, and the sweeps inside the
	// sub-solver then iterate over far fewer classes.
	reb, err := linial.ReduceProperCSR(c.e, sub, c.subBase, c.q, c.cfg)
	if err != nil {
		return sim.Result{}, sim.Result{}, fmt.Errorf("re-bootstrap: %w", err)
	}
	res, st, err := c.arb(c.e, sub, subInst, reb.Colors, reb.Palette)
	if err != nil {
		return sim.Result{}, sim.Result{}, err
	}
	if err := coloring.ValidateListArbdefective(sub, subInst, res); err != nil {
		return sim.Result{}, sim.Result{}, fmt.Errorf("sub-result: %w", err)
	}
	c.commit(nodes, res)
	own = sim.Seq(reb.Stats, st)
	return own, sim.Seq(own, announceStats(c.g, nodes, c.inst.Space)), nil
}

// prune returns the residual instance of nodes after subtracting the
// committed neighbor colors: d'_v(x) = d_v(x) − a_v(x), colors with a
// negative residual defect dropped (the paper's L'_v / d'_v
// construction used by Lemmas 4.4 and A.1).
func (c *classes) prune(nodes []int) *coloring.Instance {
	c.sub.Lists, c.sub.Defects, c.sub.Space = c.sub.Lists[:0], c.sub.Defects[:0], c.inst.Space
	c.lists, c.defects = c.lists[:0], c.defects[:0]
	for _, v := range nodes {
		c.count.Reset()
		for _, u := range c.g.Row(v) {
			if c.colors[u] >= 0 {
				c.count.Add(c.colors[u])
			}
		}
		at := len(c.lists)
		for li, x := range c.inst.Lists[v] {
			if nd := c.inst.Defects[v][li] - c.count.Get(x); nd >= 0 {
				c.lists, c.defects = append(c.lists, x), append(c.defects, nd)
			}
		}
		end := len(c.lists)
		c.sub.Lists, c.sub.Defects = append(c.sub.Lists, c.lists[at:end:end]), append(c.sub.Defects, c.defects[at:end:end])
	}
	return &c.sub
}

// commit writes a sub-result into the coloring and arc list: sub arcs
// are remapped, and each newly colored node gets an outgoing arc to
// every earlier-colored neighbor sharing its color (conflicts pre-paid
// by prune's defect reduction). The batch is still uncolored when the
// arcs are taken, so every colored neighbor is an earlier one.
func (c *classes) commit(nodes []int, res coloring.ArbResult) {
	for _, a := range res.Arcs {
		c.arcs = append(c.arcs, [2]int{nodes[a[0]], nodes[a[1]]})
	}
	for i, v := range nodes {
		for _, u := range c.g.Row(v) {
			if c.colors[u] == res.Colors[i] {
				c.arcs = append(c.arcs, [2]int{v, u})
			}
		}
	}
	for i, v := range nodes {
		c.colors[v] = res.Colors[i]
	}
}

// SlackReduce2 implements Lemma 4.4: it solves a slack-2 list
// arbdefective instance using arb, a solver for slack-μ instances, by
// sequencing over the O(μ²) classes of a defective coloring with
// ε = 1/μ, on the engine set-up e of the calling solve. base must be a
// proper q-coloring of g. The split and the class steps are recorded
// under cfg.Span, and the total on it; arb must not record spans of its
// own.
func SlackReduce2(e *sim.Engine, g *graph.CSR, inst *coloring.Instance, base []int, q, mu int, arb ArbSolver, cfg sim.Config) (coloring.ArbResult, sim.Result, error) {
	if g.M() == 0 {
		return edgelessArb(inst, cfg.Span)
	}
	if err := inst.Validate(); err != nil {
		return coloring.ArbResult{}, sim.Result{}, err
	}
	n := g.N()
	for v := 0; v < n; v++ {
		if inst.SlackSum(v) <= 2*g.Degree(v) {
			return coloring.ArbResult{}, sim.Result{}, fmt.Errorf("%w: node %d has Σ(d+1)=%d ≤ 2·deg=%d (Lemma 4.4)",
				ErrSlack, v, inst.SlackSum(v), 2*g.Degree(v))
		}
	}
	span := cfg.Span
	c := newClasses(e, g, inst, base, q, arb, cfg)
	psi, err := defective.ColorOn(e, sim.NewCSRNetwork(g), base, q, 1/float64(mu), c.cfg)
	if err != nil {
		return coloring.ArbResult{}, sim.Result{}, fmt.Errorf("nbhood: Lemma 4.4 split: %w", err)
	}
	if span != nil {
		span.Child(fmt.Sprintf("Lemma 4.4 split ε=1/%d → %d classes", mu, psi.Palette)).Done(psi.Stats)
	}
	stats := psi.Stats
	start, byClass := bucketByClass(psi.Colors, psi.Palette)
	for class := 0; class < psi.Palette; class++ {
		members := byClass[start[class]:start[class+1]]
		if len(members) == 0 {
			continue
		}
		own, total, err := c.step(members)
		if err != nil {
			return coloring.ArbResult{}, sim.Result{}, fmt.Errorf("nbhood: Lemma 4.4 class %d: %w", class, err)
		}
		if span != nil {
			span.Child("class " + strconv.Itoa(class) + ": " + strconv.Itoa(len(members)) + " nodes (slack-μ solver)").Done(own)
		}
		stats = sim.Seq(stats, total)
	}
	span.Done(stats)
	return coloring.ArbResult{Colors: c.colors, Arcs: c.arcs}, stats, nil
}

// SlackReduce1 implements Lemma A.1: it solves a slack-1 list
// arbdefective instance using arb, a solver for slack-μ instances (see
// DegreeHalving, whose engine set-up e it passes on), in one round when
// g is edgeless. The scales are recorded under cfg.Span, and the total
// on it.
func SlackReduce1(e *sim.Engine, g *graph.CSR, inst *coloring.Instance, base []int, q, mu int, arb ArbSolver, cfg sim.Config) (coloring.ArbResult, sim.Result, error) {
	if g.M() == 0 {
		return edgelessArb(inst, cfg.Span)
	}
	if err := inst.Validate(); err != nil {
		return coloring.ArbResult{}, sim.Result{}, err
	}
	for v := 0; v < g.N(); v++ {
		if inst.SlackSum(v) <= g.Degree(v) {
			return coloring.ArbResult{}, sim.Result{}, fmt.Errorf("%w: node %d has Σ(d+1)=%d ≤ deg=%d (Lemma A.1)",
				ErrSlack, v, inst.SlackSum(v), g.Degree(v))
		}
	}
	res, stats, _, err := DegreeHalving(e, g, inst, base, q, mu, arb, cfg)
	if err == nil {
		cfg.Span.Done(stats)
	}
	return res, stats, err
}

// DegreeHalving is Lemma A.1's loop, which both Theorem 1.3's
// (deg+1)-list coloring and Theorem 1.5 run: O(log Δ) degree-halving
// scales over the uncolored subgraph H. Each scale splits H into the
// classes of a defective coloring with α = 1/(2μ) (Lemma 3.4) and
// takes the classes in turn; a class member is active at its turn if
// at most half of its H-neighbors were colored this scale, so its
// pruned list keeps slack ≥ μ over its active same-class degree, and
// arb (a slack-μ solver) colors the active members. Nodes never active
// in a scale have more than half their H-neighbors colored, so the
// uncolored degrees halve: at most ⌈log Δ⌉+2 scales, capped at
// ⌈log Δ⌉+3.
//
// The caller validates inst and checks the slack precondition
// Σ(d+1) > deg; base must be a proper q-coloring of g. Every run and
// induce of the loop uses the engine set-up e of the calling solve. It
// returns the scale count with the result. Each scale is recorded
// under cfg.Span as "scale …" with "defective split …" and "class …"
// children; arb must not record spans of its own.
func DegreeHalving(e *sim.Engine, g *graph.CSR, inst *coloring.Instance, base []int, q, mu int, arb ArbSolver, cfg sim.Config) (coloring.ArbResult, sim.Result, int, error) {
	span := cfg.Span
	c := newClasses(e, g, inst, base, q, arb, cfg)
	alpha := 1 / float64(2*mu)
	maxScales := logstar.CeilLog2(g.MaxDegree()) + 3
	var stats sim.Result
	uncolored := graph.Vertices(g.N(), nil)
	// colored[v] counts v's neighbors colored in the current scale; it
	// is read only for v in H, and zeroed for those as the scale starts.
	colored := make([]int, g.N())
	var active []int // the class in turn's active members, one list for every class
	scales := 0
	for len(uncolored) > 0 {
		if scales == maxScales {
			return coloring.ArbResult{}, sim.Result{}, 0, fmt.Errorf("nbhood: Lemma A.1 did not converge in %d scales", maxScales)
		}
		scales++
		h, origH := g.Induce(uncolored, &e.Index, nil), uncolored
		for _, v := range origH {
			colored[v] = 0
		}
		psi, err := defective.ColorOn(e, sim.NewCSRNetwork(h), graph.Restrict(base, origH, nil), q, alpha, c.cfg)
		if err != nil {
			return coloring.ArbResult{}, sim.Result{}, 0, fmt.Errorf("nbhood: Lemma A.1 split: %w", err)
		}
		var scaleSpan *sim.Span
		if span != nil {
			scaleSpan = span.Child(fmt.Sprintf("scale %d: %d uncolored", scales, len(origH)))
			scaleSpan.Child(fmt.Sprintf("defective split α=%.3g → %d classes", alpha, psi.Palette)).Done(psi.Stats)
		}
		scaleStats := psi.Stats
		start, byClass := bucketByClass(psi.Colors, psi.Palette)
		for class := 0; class < psi.Palette; class++ {
			// The activity test reads colored at the class's turn,
			// after every earlier class has committed.
			active = active[:0]
			for _, i := range byClass[start[class]:start[class+1]] {
				if v := origH[i]; 2*colored[v] <= h.Degree(i) {
					active = append(active, v)
				}
			}
			if len(active) == 0 {
				continue
			}
			own, total, err := c.step(active)
			if err != nil {
				return coloring.ArbResult{}, sim.Result{}, 0, fmt.Errorf("nbhood: Lemma A.1 scale %d class %d: %w", scales, class, err)
			}
			if scaleSpan != nil {
				scaleSpan.Child("class " + strconv.Itoa(class) + ": " + strconv.Itoa(len(active)) + " active").Done(own)
			}
			scaleStats = sim.Seq(scaleStats, total)
			for _, v := range active {
				for _, u := range g.Row(v) {
					colored[u]++
				}
			}
		}
		scaleSpan.Done(scaleStats)
		stats = sim.Seq(stats, scaleStats)
		var remaining []int // never active this scale, so still uncolored
		for _, v := range origH {
			if c.colors[v] < 0 {
				remaining = append(remaining, v)
			}
		}
		uncolored = remaining
	}
	return coloring.ArbResult{Colors: c.colors, Arcs: c.arcs}, stats, scales, nil
}
