// Package nbhood implements Section 4 of the paper: list (arb)defective
// coloring for graphs of bounded neighborhood independence θ, and the
// recursive framework of Theorem 1.5.
//
// The building blocks, each following the paper's construction:
//
//   - DefectiveFromArb (Theorem 1.4): solves list DEFECTIVE instances
//     of slack 21·θ·(⌈log Δ⌉+1)·S using a list ARBdefective solver of
//     slack S, in ⌈log Δ⌉+1 iterations with geometrically shrinking
//     per-iteration defects d_i = 2^i − 1.
//   - SlackReduce2 (Lemma 4.4): solves slack-2 arbdefective instances
//     with a slack-μ solver by sequencing over the O(μ²) classes of a
//     defective coloring (Lemma 3.4) with ε = 1/μ.
//   - SlackReduce1 (Lemma A.1): same for slack-1 instances, with an
//     extra degree-halving loop (O(log Δ) scales), DegreeHalving —
//     the loop package deltaplus1 runs for Theorem 1.3 as well. Both
//     lemmas share one class step (prune, re-bootstrap, solve,
//     validate, announce, commit).
//   - spaceReduce (Lemmas 4.5/4.6): splits the color space into
//     p = ⌈√C⌉ blocks; the block choice is a list defective instance
//     solved via Theorem 1.4, and the per-block sub-instances recurse
//     on color space ⌈√C⌉.
//   - SolveArb / Theorem 1.5: the assembled recursion, giving
//     (θ·log Δ)^{O(log log Δ)} + O(log* n)-round list arbdefective
//     coloring with slack 1 — and with all-zero defects, proper
//     (deg+1)-list coloring. EdgeColor applies it to line graphs for
//     (2Δ−1)-edge coloring.
//
// All reductions are centralized orchestrations of genuine
// message-passing sub-protocols; rounds are charged per the paper's
// accounting (sequential classes add, disjoint blocks take the max).
package nbhood

import (
	"errors"
	"fmt"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/logstar"
	"listcolor/internal/sim"
)

// ArbSolver solves a list arbdefective coloring instance on g, given a
// proper q-coloring base, returning colors plus an orientation of the
// monochromatic edges. Its runs and induces use the engine set-up e of
// the calling solve. Implementations state their slack requirement.
type ArbSolver func(e *sim.Engine, g *graph.CSR, inst *coloring.Instance, base []int, q int) (coloring.ArbResult, sim.Result, error)

// ErrSlack is returned when an instance violates the slack
// precondition of the reduction being applied.
var ErrSlack = errors.New("nbhood: slack condition violated")

// ErrUncolored is returned when a reduction fails to color every node
// — impossible under the preconditions, so it indicates they were
// bypassed or an internal bug.
var ErrUncolored = errors.New("nbhood: nodes left uncolored")

// Theorem14Slack returns the slack Theorem 1.4 requires of its input
// instance: 21·θ·(⌈log Δ⌉+1)·S (Eq. 9).
func Theorem14Slack(theta, delta, s int) int {
	return 21 * theta * (logstar.CeilLog2(delta) + 1) * s
}

// DefectiveFromArb implements Theorem 1.4: it solves a list defective
// coloring instance of slack > Theorem14Slack(θ, Δ, S) on g, using arb
// to solve list arbdefective instances of slack S on subgraphs of g,
// induced and run on the engine set-up e of the calling solve. base
// must be a proper q-coloring of g.
func DefectiveFromArb(e *sim.Engine, g *graph.CSR, inst *coloring.Instance, base []int, q, theta, s int, arb ArbSolver) ([]int, sim.Result, error) {
	n := g.N()
	delta := g.MaxDegree()
	iterTop := logstar.CeilLog2(delta) // iterations ⌈log Δ⌉ .. 0
	need := Theorem14Slack(theta, delta, s)
	for v := 0; v < n; v++ {
		if inst.SlackSum(v) <= need*g.Degree(v) {
			return nil, sim.Result{}, fmt.Errorf("%w: node %d has Σ(d+1)=%d ≤ %d·deg (Eq. 9)",
				ErrSlack, v, inst.SlackSum(v), need)
		}
	}
	// d'_v(x) = ⌈(min(d,Δ)+1)/(7θ)⌉ − 1 (Eq. 10; defects are clamped
	// to Δ, which never weakens the produced coloring).
	dPrime := make([][]int, n)
	for v := 0; v < n; v++ {
		dPrime[v] = make([]int, inst.ListSize(v))
		for i, dv := range inst.Defects[v] {
			if dv > delta {
				dv = delta
			}
			dPrime[v][i] = (dv+1+7*theta-1)/(7*theta) - 1
		}
	}
	colors := make([]int, n)
	for v := range colors {
		colors[v] = -1
	}
	offered := make([]map[int]bool, n) // colors already placed in some L_{v,j}
	aCount := make([]map[int]int, n)   // a_v(x): colored neighbors with color x
	for v := 0; v < n; v++ {
		offered[v] = make(map[int]bool)
		aCount[v] = make(map[int]int)
	}
	var stats sim.Result
	for iter := iterTop; iter >= 0; iter-- {
		di := (1 << uint(iter)) - 1
		// Build L_{v,i} for every uncolored node (Eq. 12) and mark the
		// colors as offered regardless of whether v joins H_i.
		lists := make([][]int, n)
		for v := 0; v < n; v++ {
			if colors[v] >= 0 {
				continue
			}
			for li, x := range inst.Lists[v] {
				if offered[v][x] {
					continue
				}
				if dPrime[v][li]-aCount[v][x] >= di {
					lists[v] = append(lists[v], x)
					offered[v][x] = true
				}
			}
		}
		// H_i: uncolored nodes with enough slack at this defect level
		// (Eq. 13): (d_i+1)·|L_{v,i}| > S·(deg(v) − colored neighbors).
		var members []int
		for v := 0; v < n; v++ {
			if colors[v] >= 0 {
				continue
			}
			coloredNbrs := 0
			for _, u := range g.Neighbors(v) {
				if colors[u] >= 0 {
					coloredNbrs++
				}
			}
			if (di+1)*len(lists[v]) > s*(g.Degree(v)-coloredNbrs) {
				members = append(members, v)
			}
		}
		if len(members) > 0 {
			sub, orig := g.Induce(members, &e.Index, nil), members
			subInst := &coloring.Instance{
				Lists:   make([][]int, len(orig)),
				Defects: make([][]int, len(orig)),
				Space:   inst.Space,
			}
			for i, v := range orig {
				subInst.Lists[i] = lists[v]
				subInst.Defects[i] = uniformInts(len(lists[v]), di)
			}
			baseSub := graph.Restrict(base, orig, nil)
			res, subStats, err := arb(e, sub, subInst, baseSub, q)
			if err != nil {
				return nil, sim.Result{}, fmt.Errorf("nbhood: Thm 1.4 iteration %d: %w", iter, err)
			}
			if err := coloring.ValidateListArbdefective(sub, subInst, res); err != nil {
				return nil, sim.Result{}, fmt.Errorf("nbhood: Thm 1.4 iteration %d sub-result: %w", iter, err)
			}
			stats = sim.Seq(stats, subStats)
			for i, v := range orig {
				colors[v] = res.Colors[i]
			}
			// Update a_v(x) at the uncolored neighbors.
			for _, v := range orig {
				for _, u := range g.Neighbors(v) {
					if colors[u] < 0 {
						aCount[u][colors[v]]++
					}
				}
			}
		}
		// One coordination round per iteration (color announcements).
		stats.Rounds++
		if len(members) > 0 {
			a := announceStats(g, members, inst.Space)
			a.Rounds = 0 // already charged above
			stats = sim.Seq(stats, a)
		}
	}
	for v := 0; v < n; v++ {
		if colors[v] < 0 {
			return nil, sim.Result{}, fmt.Errorf("%w: node %d (Lemma 4.2 violated)", ErrUncolored, v)
		}
	}
	return colors, stats, nil
}

func uniformInts(n, val int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = val
	}
	return out
}
