// Package csr implements the color space reduction of Lemma 3.5
// (Theorem 3 of [FK23a], specialized) and uses it to prove
// Theorem 1.2: an oriented list defective coloring algorithm that,
// under the slack condition Σ(d_v(x)+1) ≥ 3·√C·β_v, runs in
// O(log³C + log* q) rounds with messages of O(log q + log C) bits.
//
// The recursion lives in reduceSpace (general.go): it turns any
// solver for λ-sized color spaces with per-node slack β_v·κ into a
// solver for arbitrary C with slack β_v·κ^⌈log_λ C⌉. Theorem 1.2
// instantiates it with λ = 4, κ = 2(1+ε), ε = 1/(3⌈log₄C⌉), and the
// Fast-Two-Sweep algorithm with p = 2 as the λ-space solver. The
// per-level solver runs with ε' = ε/2, which turns the paper's
// non-strict budget chain into the strict inequality Algorithm 1's
// Lemma 3.1 needs at no asymptotic cost (κ^k ≤ 2e^{1/3}√C < 3√C still
// holds). Each level's messages carry a defective color plus ≤ 2
// block indices — O(log q + log C) bits — and each level costs
// O((p/ε')² + log* q) = O(log²C + log* q) rounds, giving Theorem 1.2's
// O(log³C + log C·log* q) shape overall.
package csr

import (
	"errors"
	"fmt"
	"math"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/sim"
	"listcolor/internal/twosweep"
)

// ErrSlack is returned when the instance violates Theorem 1.2's slack
// condition Σ(d_v(x)+1) ≥ 3·√C·β_v.
var ErrSlack = errors.New("csr: slack condition Σ(d+1) ≥ 3√C·β_v violated")

// Result is the outcome of a color-space-reduction run.
type Result struct {
	Colors []int
	Stats  sim.Result
	// Levels is the number of recursion levels (⌈log₄C⌉).
	Levels int
}

// CheckSlack verifies Theorem 1.2's condition (zero-out-degree nodes
// need only a non-empty list).
func CheckSlack(d coloring.Orientation, inst *coloring.Instance) error {
	sqrtC := math.Sqrt(float64(inst.Space))
	for v := 0; v < inst.N(); v++ {
		if d.Outdeg(v) == 0 {
			if inst.ListSize(v) == 0 {
				return fmt.Errorf("%w: node %d has an empty list", ErrSlack, v)
			}
			continue
		}
		if float64(inst.SlackSum(v)) < 3*sqrtC*float64(d.Outdeg(v)) {
			return fmt.Errorf("%w: node %d has Σ(d+1)=%d < 3√C·β=%v",
				ErrSlack, v, inst.SlackSum(v), 3*sqrtC*float64(d.Outdeg(v)))
		}
	}
	return nil
}

// Solve runs the Theorem 1.2 algorithm on the oriented graph d.
// initColors must be a proper q-coloring and inst must satisfy
// CheckSlack. The result is a valid OLDC coloring.
func Solve(d *graph.Digraph, inst *coloring.Instance, initColors []int, q int, cfg sim.Config) (Result, error) {
	return SolveOn(new(sim.Engine), d.Oriented, inst, initColors, q, cfg)
}

// SolveOn is Solve on the CSR form and the engine set-up e of the
// calling solve.
func SolveOn(e *sim.Engine, d *graph.Oriented, inst *coloring.Instance, initColors []int, q int, cfg sim.Config) (Result, error) {
	if err := inst.Validate(); err != nil {
		return Result{}, err
	}
	if err := CheckSlack(d, inst); err != nil {
		return Result{}, err
	}
	k := 0
	for pow := 1; pow < inst.Space; pow *= 4 {
		k++
	}
	eps := 1.0
	if k > 0 {
		eps = 1.0 / float64(3*k)
	}
	kappa := 2 * (1 + eps)
	inner := fastTwoSweepSolver(2, eps/2, cfg.WithoutSpan()) // the recursion records the spans
	colors, stats, err := reduceSpace(e, 4, kappa, inner, d, inst, initColors, q, cfg.Span)
	if err != nil {
		return Result{}, err
	}
	cfg.Span.Done(stats)
	return Result{Colors: colors, Stats: stats, Levels: k}, nil
}

// fastTwoSweepSolver adapts the Fast-Two-Sweep algorithm (Theorem 1.1)
// to the Solver interface, with fixed p and ε.
func fastTwoSweepSolver(p int, eps float64, cfg sim.Config) Solver {
	return func(e *sim.Engine, d *graph.Oriented, inst *coloring.Instance, initColors []int, q int) ([]int, sim.Result, error) {
		res, err := twosweep.SolveFastOn(e, d, inst, initColors, q, p, eps, cfg)
		if err != nil {
			return nil, sim.Result{}, err
		}
		return res.Colors, res.Stats, nil
	}
}
