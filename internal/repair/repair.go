// Package repair is the self-healing layer over the fault adversary:
// it runs any solver under an adversary.Plan, classifies the damage in
// the output coloring into conflicts *absorbed by the defect budget*
// (a node with defect d_v(x) tolerates up to d_v(x) same-colored
// conflicts — the slack Theorems 1.1–1.3 leave on the table, used here
// as a fault-tolerance resource) versus *hard conflicts* (budget
// exceeded, or a color outside the node's list), and drives bounded
// local repair rounds in which conflicted nodes re-enter with their
// residual lists — the same greedy structure as the paper's two-sweep
// final phase — until the coloring validates or the round budget is
// exhausted.
//
// Every step is deterministic: the repair schedule depends only on
// (graph, instance, damaged coloring). Each repair round is
// realizable in O(1) CONGEST rounds — conflicted nodes learn their
// neighbors' colors and dirty status from the previous round's
// broadcasts, an independent set of them recolors locally, and each
// recoloring node broadcasts its new color (deg(v) messages of
// ⌈log C⌉ bits, which Report bills as RepairMessages/RepairBits).
// The package executes that schedule directly as a round-structured
// local algorithm rather than through the simulator, so repair cost
// accounting never mixes with the faulted solve's own statistics.
//
// Termination: under an acyclic orientation a dirty node with no
// dirty out-neighbor recolors against stabilized out-neighbors, so
// nodes settle in reverse topological order (≤ longest-path rounds);
// in the undirected d=0 case a recoloring node always finds a free
// color (deg+1 lists) and never creates new conflicts, so the dirty
// set strictly shrinks. DefaultBudget = 2n+16 covers both with slack;
// instances whose lists carry the paper's pigeonhole slack
// (Σ_x (d_v(x)+1) > β_v) always admit a repair color regardless of
// neighbor behavior.
package repair

import (
	"fmt"

	"listcolor/internal/adversary"
	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/quality"
	"listcolor/internal/sim"
)

// Target is a solver wired for faulted execution: the topology, the
// instance whose defect budgets absorb damage, and the solve closure.
type Target struct {
	// Name labels the target in reports and experiment rows.
	Name string
	G    *graph.Graph
	// D, when non-nil, switches to OLDC semantics: conflicts are
	// counted over out-neighbors and validated with ValidateOLDC.
	// When nil, conflicts cover the full neighborhood
	// (ValidateListDefective).
	D    *graph.Digraph
	Inst *coloring.Instance
	// Solve runs the solver under cfg (which carries the compiled
	// fault hooks). A nil Solve, an error, or a wrong-length coloring
	// falls back to the deterministic baseline coloring
	// (every node takes the first color of its list) — the repair
	// layer then recovers from that, too.
	Solve func(cfg sim.Config) ([]int, sim.Result, error)
}

// Options bounds the faulted solve and the repair loop.
type Options struct {
	// Base is the solve configuration the plan's fault hooks are
	// installed into — bandwidth caps, tracing, an OnRound hook all
	// pass through to the faulted run. The zero Base is the plain
	// LOCAL lockstep configuration.
	Base sim.Config
	// RoundBudget caps repair rounds; 0 means DefaultBudget(n).
	RoundBudget int
}

// DefaultBudget is the documented repair round budget: 2n+16 covers
// the reverse-topological settling bound of acyclic orientations and
// the strictly-shrinking dirty set of the proper (d=0) case, with
// headroom.
func DefaultBudget(n int) int { return 2*n + 16 }

// Classification splits a damaged coloring's conflicts by whether the
// defect budget absorbs them.
type Classification struct {
	// Hard is the number of nodes in hard violation: defect budget
	// exceeded or color outside the list.
	Hard int
	// HardExcess is the total conflict count beyond the budgets
	// (summed over hard nodes with a list color).
	HardExcess int
	// Absorbed is the total conflict count the budgets absorb — for
	// each node, min(conflicts, allowed defect).
	Absorbed int
	// Uncolored is the number of nodes whose color is outside their
	// list (crash-stopped mid-protocol, or fault-poisoned); always
	// hard.
	Uncolored int
}

// Report is the outcome of one faulted run plus repair.
type Report struct {
	// Before/After classify the coloring at solver exit and after
	// repair.
	Before, After Classification
	// RecoveryRounds is the number of repair rounds driven (0 when
	// the faulted output already validated).
	RecoveryRounds int
	// AbsorbedConflicts is the post-repair absorbed conflict total —
	// the defect slack actively soaking up fault damage.
	AbsorbedConflicts int
	// ResidualDefect is the worst per-node conflict count remaining
	// after repair (≤ that node's budget whenever Converged).
	ResidualDefect int
	// Converged reports that the final coloring passes the matching
	// coloring validator.
	Converged bool
	// Colors is the final (repaired) coloring.
	Colors []int
	// SolveStats/SolveErr record the faulted solver run. SolveErr is
	// data, not a failure: a crash-stalled run surfaces
	// sim.ErrRoundLimit here and repair proceeds from the fallback.
	SolveStats sim.Result
	SolveErr   error
	// UsedFallback reports that the solver produced no usable
	// coloring and repair started from the first-list-color baseline.
	UsedFallback bool
	// RepairMessages/RepairBits bill the repair layer's own
	// communication: every recoloring broadcasts deg(v) messages of
	// BitsFor(Space) bits.
	RepairMessages, RepairBits int
	// Quality is the post-repair quality report (nil unless
	// converged).
	Quality *quality.Report
}

// Run executes the target under the plan and repairs the result.
// The returned error covers structural problems only (nil topology,
// broken instance, invalid plan or solve config); fault damage is
// reported, never returned.
func Run(t Target, plan adversary.Plan, opt Options) (Report, error) {
	if t.G == nil || t.Inst == nil {
		return Report{}, fmt.Errorf("repair: target needs G and Inst")
	}
	if err := plan.Validate(); err != nil {
		return Report{}, err
	}
	n := t.G.N()
	if t.Inst.N() != n {
		return Report{}, fmt.Errorf("repair: instance covers %d nodes, graph has %d", t.Inst.N(), n)
	}
	cfg := plan.Apply(opt.Base)
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	var rep Report
	var colors []int
	if t.Solve != nil {
		colors, rep.SolveStats, rep.SolveErr = t.Solve(cfg)
	}
	if len(colors) != n {
		// No usable output (solver errored out, crashed wholesale, or
		// no Solve given): start from the deterministic baseline and
		// let repair do all the work.
		rep.UsedFallback = true
		colors = make([]int, n)
		for v := 0; v < n; v++ {
			if len(t.Inst.Lists[v]) > 0 {
				colors[v] = t.Inst.Lists[v][0]
			}
		}
	} else {
		colors = append([]int(nil), colors...) // never mutate the solver's slice
	}
	rep.Before = Classify(t, colors)

	budget := opt.RoundBudget
	if budget == 0 {
		budget = DefaultBudget(n)
	}
	rep.RecoveryRounds = t.repairLoop(colors, budget, &rep)

	rep.After = Classify(t, colors)
	rep.AbsorbedConflicts = rep.After.Absorbed
	for v := 0; v < n; v++ {
		if c := t.conflicts(colors, v); c > rep.ResidualDefect {
			rep.ResidualDefect = c
		}
	}
	rep.Colors = colors
	rep.Converged = t.validate(colors) == nil
	if rep.Converged {
		if q, err := quality.Analyze(t.G, t.Inst, colors); err == nil {
			rep.Quality = &q
		}
	}
	return rep, nil
}

// validate applies the matching coloring validator.
func (t Target) validate(colors []int) error {
	if t.D != nil {
		return coloring.ValidateOLDC(t.D, t.Inst, colors)
	}
	return coloring.ValidateListDefective(t.G, t.Inst, colors)
}

// conflicts counts v's same-colored conflict neighbors under the
// target's semantics.
func (t Target) conflicts(colors []int, v int) int {
	c := 0
	if t.D != nil {
		for _, u := range t.D.Out(v) {
			if colors[u] == colors[v] {
				c++
			}
		}
		return c
	}
	for _, u := range t.G.Neighbors(v) {
		if colors[u] == colors[v] {
			c++
		}
	}
	return c
}

// hard reports whether v is in hard violation.
func (t Target) hard(colors []int, v int) bool {
	allowed, ok := t.Inst.DefectOf(v, colors[v])
	if !ok {
		return true
	}
	return t.conflicts(colors, v) > allowed
}

// Classify splits the coloring's conflicts into absorbed vs hard.
func Classify(t Target, colors []int) Classification {
	var cl Classification
	for v := range colors {
		allowed, ok := t.Inst.DefectOf(v, colors[v])
		if !ok {
			cl.Uncolored++
			cl.Hard++
			continue
		}
		conf := t.conflicts(colors, v)
		if conf > allowed {
			cl.Hard++
			cl.HardExcess += conf - allowed
			cl.Absorbed += allowed
		} else {
			cl.Absorbed += conf
		}
	}
	return cl
}

// repairLoop drives repair rounds until clean or out of budget,
// mutating colors in place; returns the rounds driven and bills the
// recoloring broadcasts into rep. The undirected case delegates to the
// Topology heal (heal.go) — Heal with every vertex seeded
// runs the identical full-scan schedule, so the delegation is
// byte-for-byte behavior-preserving (TestHealMatchesReferenceLoop);
// the oriented case keeps its sink-first schedule here.
func (t Target) repairLoop(colors []int, budget int, rep *Report) int {
	if t.D == nil {
		hr := Heal(t.G, t.Inst, colors, HealOptions{RoundBudget: budget})
		rep.RepairMessages += hr.Messages
		rep.RepairBits += hr.Bits
		return hr.Rounds
	}
	n := t.G.N()
	dirty := make([]bool, n)
	var dirtyIDs []int
	rescan := func() {
		dirtyIDs = dirtyIDs[:0]
		for v := 0; v < n; v++ {
			dirty[v] = t.hard(colors, v)
			if dirty[v] {
				dirtyIDs = append(dirtyIDs, v)
			}
		}
	}
	rescan()
	colorBits := sim.BitsFor(t.Inst.Space)
	rounds := 0
	for len(dirtyIDs) > 0 && rounds < budget {
		rounds++
		eligible := t.eligible(dirty, dirtyIDs)
		for _, v := range eligible {
			t.recolor(colors, v)
			rep.RepairMessages += t.G.Degree(v)
			rep.RepairBits += t.G.Degree(v) * colorBits
		}
		rescan()
	}
	return rounds
}

// eligible picks the independent set of dirty nodes that recolors
// this round on the oriented path (the undirected path lives in
// heal.go): dirty nodes with no dirty out-neighbor — the sink-most
// layer of the dirty sub-DAG, so nodes settle in reverse topological
// order (every edge is oriented, hence the set is independent).
// Cyclic orientations can starve the rule; the smallest dirty id then
// recolors alone so the loop always makes progress within its budget.
func (t Target) eligible(dirty []bool, dirtyIDs []int) []int {
	var out []int
	for _, v := range dirtyIDs {
		ok := true
		for _, u := range t.D.Out(v) {
			if dirty[u] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		out = append(out, dirtyIDs[0])
	}
	return out
}

// recolor re-enters v with its residual list: among the list colors,
// pick the one minimizing (excess over budget, conflicts, list order) —
// i.e. a budget-respecting color when one exists (guaranteed under
// the paper's pigeonhole slack Σ(d+1) > β_v), otherwise the least
// overdrawn one.
func (t Target) recolor(colors []int, v int) {
	if len(t.Inst.Lists[v]) == 0 {
		return
	}
	colors[v], _ = bestListColor(t.Inst.Lists[v], t.Inst.Defects[v], func(x int) int {
		colors[v] = x
		return t.conflicts(colors, v)
	})
}
