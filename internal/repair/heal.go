package repair

// heal.go generalizes the undirected repair loop from fault recovery
// to churn maintenance: the same classifier (defect-budget-absorbed vs
// hard conflicts) and the same bounded deterministic recolor schedule,
// but over an abstract read-only Topology — so it runs equally on the
// adjacency-list graph.Graph, the immutable graph.CSR, and the
// incremental service's mutable graph.Overlay — and with a *seeded*
// entry point, HealLocal, that scans only a frontier instead of the
// whole vertex set.
//
// Schedule equality (the locality contract the incremental service
// depends on): a node's hardness is a function of its own color, its
// list constraints, and its neighbors' colors, so one repair round
// changes hardness only on recolored ∪ N(recolored); and churn on an
// edge {u,v} changes conflict counts only at u and v. Therefore, as
// long as the seed set covers every hard node, the frontier
//
//	candidates(r+1) = dirty(r) ∪ N(eligible(r))
//
// contains every node that can be hard in round r+1, and HealLocal
// computes the exact dirty set — hence the exact eligible set, the
// exact recolors, and byte-identical final colors — that the global
// full-scan Heal computes. TestHealLocalMatchesHeal pins this.

import (
	"sort"

	"listcolor/internal/coloring"
	"listcolor/internal/sim"
)

// Topology is the read-only adjacency view Heal and HealLocal work over:
// vertex count, degrees, and sorted neighbor lists. graph.Graph,
// graph.CSR and graph.Overlay all satisfy it.
type Topology interface {
	N() int
	Degree(v int) int
	Neighbors(v int) []int
}

// HealOptions bounds a heal run.
type HealOptions struct {
	// RoundBudget caps repair rounds; 0 means DefaultBudget(n).
	RoundBudget int
	// Scratch is the per-vertex working memory the run borrows; nil
	// means a fresh one for this run. A caller that heals repeatedly
	// lends the same scratch to every call, so a seeded run costs
	// O(frontier) instead of two n-sized allocations.
	Scratch *HealScratch
}

// HealScratch is a heal run's per-vertex working memory: the hardness
// flags and the candidate marks. Every run leaves it all-false,
// clearing only the entries it set, so one scratch serves any number
// of sequential runs on topologies of any size (it grows to the
// largest). It also records the ids the last run recolored. It is not
// safe for concurrent runs.
type HealScratch struct {
	hard, mark []bool
	recolored  []int
}

// Recolored returns the ids the last run that borrowed the scratch
// recolored, in recolor order, with a repeat for each further recolor
// of the same node: a superset of the ids whose color changed. The
// slice is reused by the next run.
func (sc *HealScratch) Recolored() []int { return sc.recolored }

// grow extends the scratch to cover n vertices; the new entries are
// false, like the old ones between runs.
func (sc *HealScratch) grow(n int) {
	if len(sc.hard) < n {
		sc.hard = append(sc.hard, make([]bool, n-len(sc.hard))...)
		sc.mark = append(sc.mark, make([]bool, n-len(sc.mark))...)
	}
}

// HealReport is the outcome and bill of one heal run.
type HealReport struct {
	// Rounds is the number of repair rounds driven (0 when the seeds
	// were already clean).
	Rounds int
	// Seeds is the number of distinct in-range seeds: the candidates
	// of the entry scan.
	Seeds int
	// Hard is the number of hard nodes found at entry — the damage the
	// run started from.
	Hard int
	// Absorbed is the conflict count the defect budgets absorbed at
	// the entry scan: the sum of same-colored neighbors over the
	// seeds that were not hard.
	Absorbed int
	// Recolored is the total number of recolor operations (the
	// service's locality numerator: nodes touched per update batch).
	Recolored int
	// Fallbacks counts recolors for which no budget-respecting list
	// color existed, so the least-overdrawn color was taken instead.
	// Zero fallbacks is the precondition of the incremental-vs-global
	// equivalence the service's differential test checks.
	Fallbacks int
	// Scanned is the total number of candidate evaluations across all
	// rounds — the work the frontier saved shows up as Scanned ≪ n·Rounds.
	Scanned int
	// Messages/Bits bill the recolor broadcasts: deg(v) messages of
	// BitsFor(Space) bits per recoloring node, exactly as
	// Report.RepairMessages/RepairBits.
	Messages, Bits int
	// Converged reports that no hard node remained within the budget.
	Converged bool
}

// Heal drives the global repair schedule: HealLocal with every vertex
// as a seed, so round one is a full hardness scan and the run is
// byte-identical to the pre-Topology repair loop
// (TestHealMatchesReferenceLoop pins this). Colors are mutated in
// place.
func Heal(topo Topology, inst *coloring.Instance, colors []int, opt HealOptions) HealReport {
	seeds := make([]int, topo.N())
	for v := range seeds {
		seeds[v] = v
	}
	return HealLocal(topo, inst, colors, seeds, opt)
}

// HealLocal drives the seeded repair schedule: only the seeds are
// scanned in round one, and the frontier grows by the neighborhoods of
// recolored nodes. Per round, dirty = hard nodes among the candidates;
// eligible = dirty nodes that are the id-maximum of their dirty closed
// neighborhood (an independent set, never empty while dirty is
// non-empty); each eligible node recolors to the list color minimizing
// (excess over budget, conflicts, list order); the next candidate set
// is dirty ∪ N(eligible). When the seeds cover every hard node — which
// churn guarantees for the dirty set of an update batch, since
// inserting or deleting an edge changes conflict counts only at its
// endpoints — HealLocal produces byte-identical colors to Heal at a
// fraction of the scan cost. Out-of-range and duplicate seeds are
// ignored.
func HealLocal(topo Topology, inst *coloring.Instance, colors []int, seeds []int, opt HealOptions) HealReport {
	n := topo.N()
	var hr HealReport
	sc := opt.Scratch
	if sc == nil {
		sc = new(HealScratch)
	}
	sc.recolored = sc.recolored[:0]
	if len(colors) != n || inst.N() != n {
		return hr
	}
	budget := opt.RoundBudget
	if budget <= 0 {
		budget = DefaultBudget(n)
	}
	colorBits := sim.BitsFor(inst.Space)

	conflicts := func(v int) int {
		c := 0
		for _, u := range topo.Neighbors(v) {
			if colors[u] == colors[v] {
				c++
			}
		}
		return c
	}
	// recolor re-enters v with its residual list and reports whether it
	// had to overdraw the budget (no compliant color existed).
	recolor := func(v int) bool {
		if len(inst.Lists[v]) == 0 {
			return true
		}
		best, excess := bestListColor(inst.Lists[v], inst.Defects[v], func(x int) int {
			colors[v] = x
			return conflicts(v)
		})
		colors[v] = best
		return excess > 0
	}

	sc.grow(n)
	hard, mark := sc.hard, sc.mark
	cand := make([]int, 0, len(seeds))
	for _, v := range seeds {
		if v >= 0 && v < n && !mark[v] {
			mark[v] = true
			cand = append(cand, v)
		}
	}
	for _, v := range cand {
		mark[v] = false
	}
	sort.Ints(cand)

	// scan classifies the candidates: a node is hard when its color is
	// off its list or its conflicts exceed the color's budget;
	// otherwise the budget absorbs its conflicts.
	scan := func() (dirty []int, absorbed int) {
		for _, v := range cand {
			if allowed, ok := inst.DefectOf(v, colors[v]); ok {
				if c := conflicts(v); c <= allowed {
					hard[v] = false
					absorbed += c
					continue
				}
			}
			hard[v] = true
			dirty = append(dirty, v)
		}
		hr.Scanned += len(cand)
		return dirty, absorbed
	}

	dirty, absorbed := scan()
	hr.Seeds, hr.Hard, hr.Absorbed = len(cand), len(dirty), absorbed
	var next []int
	for len(dirty) > 0 && hr.Rounds < budget {
		hr.Rounds++
		// eligible: id-maxima of dirty closed neighborhoods. Adjacent
		// dirty nodes cannot both qualify, so the set is independent
		// and within-round recolor order is immaterial.
		var eligible []int
		for _, v := range dirty {
			ok := true
			for _, u := range topo.Neighbors(v) {
				if hard[u] && u > v {
					ok = false
					break
				}
			}
			if ok {
				eligible = append(eligible, v)
			}
		}
		next = next[:0]
		for _, v := range dirty {
			if !mark[v] {
				mark[v] = true
				next = append(next, v)
			}
		}
		for _, v := range eligible {
			if recolor(v) {
				hr.Fallbacks++
			}
			hr.Recolored++
			sc.recolored = append(sc.recolored, v)
			d := topo.Degree(v)
			hr.Messages += d
			hr.Bits += d * colorBits
			for _, u := range topo.Neighbors(v) {
				if !mark[u] {
					mark[u] = true
					next = append(next, u)
				}
			}
		}
		cand = append(cand[:0], next...)
		for _, v := range cand {
			mark[v] = false
		}
		sort.Ints(cand)
		dirty, _ = scan()
	}
	hr.Converged = len(dirty) == 0
	// Every node hard in the last scan is still flagged; every other
	// flag was cleared when its node was last a candidate.
	for _, v := range dirty {
		hard[v] = false
	}
	return hr
}

// GreedyColors builds the deterministic id-ascending greedy coloring:
// each vertex in turn takes the list color minimizing (excess over
// budget, conflicts, list order) against its already-colored lower-id
// neighbors. For proper instances with deg+1 lists the result is
// already valid; for defective instances later vertices can push
// earlier ones over budget, so callers follow with Heal — the pair is
// the incremental service's initializer. (The first-list-color
// baseline is unusable at scale here: on a ring it makes every node
// hard and the id-max rule recolors one node per round.)
func GreedyColors(topo Topology, inst *coloring.Instance) []int {
	n := topo.N()
	colors := make([]int, n)
	done := make([]bool, n)
	for v := 0; v < n; v++ {
		if len(inst.Lists[v]) > 0 {
			colors[v], _ = bestListColor(inst.Lists[v], inst.Defects[v], func(x int) int {
				conf := 0
				for _, u := range topo.Neighbors(v) {
					if done[u] && colors[u] == x {
						conf++
					}
				}
				return conf
			})
		}
		done[v] = true
	}
	return colors
}

// bestListColor returns the list color minimizing (excess over budget,
// conflicts), the first in list order on ties, with its excess;
// conflicts(x) counts the node's conflicts at color x. The list must be
// non-empty. Nothing beats a conflict-free color, so the scan stops at
// the first one.
func bestListColor(list, defects []int, conflicts func(x int) int) (best, excess int) {
	const maxInt = int(^uint(0) >> 1)
	best, excess, bestConf := list[0], maxInt, maxInt
	for i, x := range list {
		conf := conflicts(x)
		e := max(conf-defects[i], 0)
		if e < excess || (e == excess && conf < bestConf) {
			best, excess, bestConf = x, e, conf
			if conf == 0 {
				break
			}
		}
	}
	return best, excess
}
