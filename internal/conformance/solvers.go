package conformance

import (
	"fmt"
	"math"
	"math/rand"

	"listcolor/internal/baseline"
	"listcolor/internal/classic"
	"listcolor/internal/coloring"
	"listcolor/internal/csr"
	"listcolor/internal/defective"
	"listcolor/internal/deltaplus1"
	"listcolor/internal/graph"
	"listcolor/internal/linial"
	"listcolor/internal/logstar"
	"listcolor/internal/nbhood"
	"listcolor/internal/quality"
	"listcolor/internal/sim"
	"listcolor/internal/twosweep"
)

// bootstrap runs the Linial bootstrap once (lockstep, outside any
// measured run) so the resulting proper coloring can live in the Case
// and be transformed alongside it.
func bootstrap(env *Env) ([]int, int, error) {
	res, err := linial.ColorFromIDs(env.G, sim.Config{})
	if err != nil {
		return nil, 0, fmt.Errorf("conformance: bootstrap: %w", err)
	}
	return res.Colors, res.Palette, nil
}

// oldcBudgetCheck records the minimum remaining defect budget: the
// Lemma 3.2 guarantee holds iff no node overdraws (actual overuse 0).
func oldcBudgetCheck(d *graph.Digraph, inst *coloring.Instance, colors []int) quality.GuaranteeCheck {
	h, err := coloring.OLDCHeadroom(d, inst, colors)
	if err != nil {
		return quality.CheckHolds("defect budget readable (Lemma 3.2)", false)
	}
	over := 0.0
	if h.Min < 0 {
		over = float64(-h.Min)
	}
	c := quality.CheckUpper("defect-budget overuse = 0 (Lemma 3.2)", over, 0)
	c.Headroom = float64(h.Min) // remaining budget at the tightest node
	return c
}

// Solvers returns the matrix rows: every algorithm family in the
// repo, adapted to the shared harness.
func Solvers() []Solver {
	return []Solver{
		linialSolver(),
		defectiveSolver(),
		twoSweepSolver(),
		fastTwoSweepSolver(),
		csrSolver(),
		degPlusOneSolver(),
		nbhoodSolver(),
		nbhoodGeneralSolver(),
		classicSolver(),
		lubySolver(),
		greedySolver(),
	}
}

// -- Linial color reduction (bootstrap, [Lin87]) ------------------------

func linialSolver() Solver {
	return Solver{
		Name:          "linial",
		RelabelRounds: true, // schedule depends only on (n, Δ)
		Prepare: func(env *Env, rng *rand.Rand) (*Case, error) {
			return &Case{G: env.G, D: env.D}, nil
		},
		Run: func(c *Case, cfg sim.Config) Output {
			res, err := linial.ColorFromIDs(c.G, cfg)
			return Output{Colors: res.Colors, Stats: res.Stats, Palette: res.Palette, Err: err}
		},
		Validate: func(c *Case, out Output) error {
			return graph.IsProperColoring(c.G, out.Colors)
		},
		Check: func(c *Case, out Output) []quality.GuaranteeCheck {
			steps := linial.ProperSchedule(c.G.N(), c.G.MaxDegree())
			palBound := c.G.N()
			if len(steps) > 0 {
				palBound = steps[len(steps)-1].ColorsOut()
			}
			return []quality.GuaranteeCheck{
				quality.CheckUpper("rounds ≤ |schedule|+1 = O(log* n)", float64(out.Stats.Rounds), float64(len(steps)+1)),
				quality.CheckUpper("palette ≤ schedule fixed point = O(Δ²)", float64(out.Palette), float64(palBound)),
			}
		},
	}
}

// -- Defective coloring (Lemma 3.4, [Kuh09, KS18]) ----------------------

func defectiveSolver() Solver {
	const alpha = 0.25
	return Solver{
		Name:          "defective",
		RelabelRounds: true,
		Equivariant:   true, // argmin over F_q points depends only on neighbor colors
		Prepare: func(env *Env, rng *rand.Rand) (*Case, error) {
			base, q, err := bootstrap(env)
			if err != nil {
				return nil, err
			}
			return &Case{G: env.G, D: env.D, Base: base, Q: q, Eps: alpha}, nil
		},
		Run: func(c *Case, cfg sim.Config) Output {
			res, err := defective.ColorOriented(c.D, c.Base, c.Q, c.Eps, cfg)
			return Output{Colors: res.Colors, Stats: res.Stats, Palette: res.Palette, Err: err}
		},
		Validate: func(c *Case, out Output) error {
			for v := 0; v < c.D.N(); v++ {
				allowed := int(math.Floor(c.Eps * float64(c.D.Beta(v))))
				conflicts := 0
				for _, u := range c.D.Out(v) {
					if out.Colors[u] == out.Colors[v] {
						conflicts++
					}
				}
				if conflicts > allowed {
					return fmt.Errorf("node %d has %d same-colored out-neighbors > ⌊α·β⌋ = %d", v, conflicts, allowed)
				}
			}
			return nil
		},
		Check: func(c *Case, out Output) []quality.GuaranteeCheck {
			steps := linial.DefectiveSchedule(c.Q, c.D.MaxBeta(), c.Eps)
			return []quality.GuaranteeCheck{
				quality.CheckUpper("rounds ≤ |schedule|+1 = O(log* q)", float64(out.Stats.Rounds), float64(len(steps)+1)),
				quality.CheckUpper("palette ≤ O(1/α²) fixed point", float64(out.Palette), float64(defective.Palette(c.Q, c.D.MaxBeta(), c.Eps))),
			}
		},
	}
}

// -- Two-Sweep, Algorithm 1 (Theorem 1.1, ε = 0) ------------------------

func twoSweepSolver() Solver {
	const p = 2
	return Solver{
		Name:          "twosweep",
		RelabelRounds: true,
		PermuteRounds: true, // rounds are exactly 2q+1 regardless of lists
		Equivariant:   true,
		ColorPerm:     true,
		Differential:  true,
		Prepare: func(env *Env, rng *rand.Rand) (*Case, error) {
			base, q, err := bootstrap(env)
			if err != nil {
				return nil, err
			}
			inst := coloring.MinSlackOriented(env.D, 4*p*p+16, p, 0, rng)
			return &Case{G: env.G, D: env.D, Inst: inst, Base: base, Q: q, P: p}, nil
		},
		Run: func(c *Case, cfg sim.Config) Output {
			res, err := twosweep.Solve(c.D, c.Inst, c.Base, c.Q, c.P, cfg)
			return Output{Colors: res.Colors, Stats: res.Stats, Err: err}
		},
		Validate: func(c *Case, out Output) error {
			return coloring.ValidateOLDC(c.D, c.Inst, out.Colors)
		},
		Check: func(c *Case, out Output) []quality.GuaranteeCheck {
			rounds := quality.CheckEqual("rounds = 2q+1 (Lemma 3.3)", float64(out.Stats.Rounds), float64(2*c.Q+1))
			if c.G.M() == 0 {
				rounds = quality.CheckEqual("rounds = 1 (edgeless short-circuit)", float64(out.Stats.Rounds), 1)
			}
			return []quality.GuaranteeCheck{
				rounds,
				oldcBudgetCheck(c.D, c.Inst, out.Colors),
				quality.CheckUpper("max message ≤ p colors", float64(out.Stats.MaxMessageBits),
					float64((c.P+1)*(sim.BitsFor(c.Inst.Space)+1)+sim.BitsFor(c.Q))),
			}
		},
	}
}

// -- Fast-Two-Sweep, Algorithm 2 (Theorem 1.1, ε > 0) -------------------

func fastTwoSweepSolver() Solver {
	const (
		p   = 2
		eps = 0.5
	)
	return Solver{
		Name:          "fast-twosweep",
		RelabelRounds: true,
		PermuteRounds: true,
		Equivariant:   true,
		ColorPerm:     true,
		Differential:  true,
		Prepare: func(env *Env, rng *rand.Rand) (*Case, error) {
			base, q, err := bootstrap(env)
			if err != nil {
				return nil, err
			}
			inst := coloring.MinSlackOriented(env.D, 4*p*p+16, p, eps, rng)
			return &Case{G: env.G, D: env.D, Inst: inst, Base: base, Q: q, P: p, Eps: eps}, nil
		},
		Run: func(c *Case, cfg sim.Config) Output {
			res, err := twosweep.SolveFast(c.D, c.Inst, c.Base, c.Q, c.P, c.Eps, cfg)
			return Output{Colors: res.Colors, Stats: res.Stats, Err: err}
		},
		Validate: func(c *Case, out Output) error {
			return coloring.ValidateOLDC(c.D, c.Inst, out.Colors)
		},
		Check: func(c *Case, out Output) []quality.GuaranteeCheck {
			// The composition bound: either the plain sweep (2q+1) or
			// the defective split (schedule+1) plus a sweep over its
			// K = O((p/ε)²) classes (2K+1) — Theorem 1.1's
			// O(min{q, (p/ε)² + log* q}) with explicit constants.
			pOverEps := float64(c.P) / c.Eps
			bound := float64(2*c.Q + 1)
			if float64(c.Q) > pOverEps*pOverEps+float64(logstar.LogStar(c.Q)) {
				alpha := c.Eps / float64(c.P)
				k := defective.Palette(c.Q, c.D.MaxBeta(), alpha)
				sched := linial.DefectiveSchedule(c.Q, c.D.MaxBeta(), alpha)
				bound = float64(len(sched)+1) + float64(2*k+1)
			}
			return []quality.GuaranteeCheck{
				quality.CheckUpper("rounds ≤ min{2q+1, defective+sweep} (Thm 1.1)", float64(out.Stats.Rounds), bound),
				oldcBudgetCheck(c.D, c.Inst, out.Colors),
			}
		},
	}
}

// -- Color space reduction (Theorem 1.2) --------------------------------

func csrSolver() Solver {
	const space = 64
	return Solver{
		Name:          "csr",
		RelabelRounds: true,
		ColorPerm:     true, // validity only: blocks are numeric ranges, so rounds may shift
		Prepare: func(env *Env, rng *rand.Rand) (*Case, error) {
			base, q, err := bootstrap(env)
			if err != nil {
				return nil, err
			}
			inst := coloring.WithOrientedSlack(env.D, space, 3*math.Sqrt(space), rng)
			return &Case{G: env.G, D: env.D, Inst: inst, Base: base, Q: q}, nil
		},
		Run: func(c *Case, cfg sim.Config) Output {
			res, err := csr.Solve(c.D, c.Inst, c.Base, c.Q, cfg)
			return Output{Colors: res.Colors, Stats: res.Stats, Depth: res.Levels, Err: err}
		},
		Validate: func(c *Case, out Output) error {
			return coloring.ValidateOLDC(c.D, c.Inst, out.Colors)
		},
		Check: func(c *Case, out Output) []quality.GuaranteeCheck {
			logC := float64(logstar.CeilLog2(c.Inst.Space))
			logStarQ := float64(logstar.LogStar(c.Q))
			return []quality.GuaranteeCheck{
				quality.CheckUpper("rounds ≤ 64·(log³C + logC·log*q) (Thm 1.2)",
					float64(out.Stats.Rounds), 64*(logC*logC*logC+logC*logStarQ)+64),
				quality.CheckUpper("max message bits ≤ 32·(log q + log C) (Thm 1.2)",
					float64(out.Stats.MaxMessageBits),
					32*(float64(logstar.CeilLog2(c.Q))+logC)+32),
				quality.CheckUpper("levels = ⌈log₄C⌉", float64(out.Depth), math.Ceil(logC/2)),
				oldcBudgetCheck(c.D, c.Inst, out.Colors),
			}
		},
	}
}

// -- (deg+1)-list coloring (Theorem 1.3) --------------------------------

func degPlusOneSolver() Solver {
	return Solver{
		Name:      "deg+1",
		MaxN:      100,
		ColorPerm: true, // validity only: class processing follows color values
		Prepare: func(env *Env, rng *rand.Rand) (*Case, error) {
			inst := coloring.DegreePlusOne(env.G, env.G.RawMaxDegree()+2, rng)
			return &Case{G: env.G, D: env.D, Inst: inst}, nil
		},
		Run: func(c *Case, cfg sim.Config) Output {
			res, err := deltaplus1.Solve(c.G, c.Inst, cfg)
			return Output{Colors: res.Colors, Stats: res.Stats, Depth: res.Scales, Err: err}
		},
		Validate: func(c *Case, out Output) error {
			return coloring.ValidateProperList(c.G, c.Inst, out.Colors)
		},
		Check: func(c *Case, out Output) []quality.GuaranteeCheck {
			delta := c.G.RawMaxDegree()
			return []quality.GuaranteeCheck{
				quality.CheckUpper("scales ≤ ⌈log Δ⌉+2 (Lemma A.1)",
					float64(out.Depth), float64(logstar.CeilLog2(max(2, delta))+2)),
			}
		},
	}
}

// -- Bounded neighborhood independence (Theorem 1.5) --------------------

func nbhoodSolver() Solver {
	return Solver{
		Name:       "nbhood",
		NeedsTheta: true,
		MaxN:       100,
		ColorPerm:  true,
		Prepare: func(env *Env, rng *rand.Rand) (*Case, error) {
			inst := coloring.DegreePlusOne(env.G, env.G.RawMaxDegree()+2, rng)
			return &Case{G: env.G, D: env.D, Inst: inst, Theta: env.Theta}, nil
		},
		Run: func(c *Case, cfg sim.Config) Output {
			res, err := nbhood.SolveArb(c.G, c.Inst, c.Theta, cfg)
			return Output{Colors: res.Arb.Colors, Arcs: res.Arb.Arcs, Stats: res.Stats, Err: err}
		},
		Validate: func(c *Case, out Output) error {
			return coloring.ValidateListArbdefective(c.G, c.Inst, coloring.ArbResult{Colors: out.Colors, Arcs: out.Arcs})
		},
		Check: func(c *Case, out Output) []quality.GuaranteeCheck {
			// Zero-defect instance ⇒ the arbdefective solution is a
			// proper list coloring with no arcs.
			return []quality.GuaranteeCheck{
				quality.CheckEqual("no monochromatic arcs on a zero-defect instance", float64(len(out.Arcs)), 0),
			}
		},
	}
}

func nbhoodGeneralSolver() Solver {
	return Solver{
		Name:      "nbhood-general",
		MaxN:      40, // Õ(C·log Δ) rounds: keep cells small
		ColorPerm: true,
		Prepare: func(env *Env, rng *rand.Rand) (*Case, error) {
			inst := coloring.DegreePlusOne(env.G, env.G.RawMaxDegree()+2, rng)
			return &Case{G: env.G, D: env.D, Inst: inst}, nil
		},
		Run: func(c *Case, cfg sim.Config) Output {
			res, err := nbhood.SolveArbGeneral(c.G, c.Inst, cfg)
			return Output{Colors: res.Arb.Colors, Arcs: res.Arb.Arcs, Stats: res.Stats, Err: err}
		},
		Validate: func(c *Case, out Output) error {
			return coloring.ValidateListArbdefective(c.G, c.Inst, coloring.ArbResult{Colors: out.Colors, Arcs: out.Arcs})
		},
		Check: func(c *Case, out Output) []quality.GuaranteeCheck {
			return []quality.GuaranteeCheck{
				quality.CheckEqual("no monochromatic arcs on a zero-defect instance", float64(len(out.Arcs)), 0),
			}
		},
	}
}

// -- Classical single-sweep arbdefective ([BE10]) -----------------------

func classicSolver() Solver {
	const def = 2
	return Solver{
		Name:          "classic-sweep",
		RelabelRounds: true,
		Equivariant:   true, // color choice depends only on earlier neighbors' colors
		Prepare: func(env *Env, rng *rand.Rand) (*Case, error) {
			base, q, err := bootstrap(env)
			if err != nil {
				return nil, err
			}
			// The validation instance: every node may wear any of the
			// c = ⌈(Δ+1)/(d+1)⌉ colors with uniform defect d.
			c := (env.G.RawMaxDegree() + 1 + def) / (def + 1)
			inst := &coloring.Instance{Space: c}
			for v := 0; v < env.G.N(); v++ {
				list := make([]int, c)
				defs := make([]int, c)
				for i := range list {
					list[i] = i
					defs[i] = def
				}
				inst.Lists = append(inst.Lists, list)
				inst.Defects = append(inst.Defects, defs)
			}
			return &Case{G: env.G, D: env.D, Inst: inst, Base: base, Q: q, P: def}, nil
		},
		Run: func(c *Case, cfg sim.Config) Output {
			colors, arcs, palette, stats, err := classic.SweepArb(c.G, c.Base, c.Q, c.P, cfg)
			return Output{Colors: colors, Arcs: arcs, Stats: stats, Palette: palette, Err: err}
		},
		Validate: func(c *Case, out Output) error {
			return coloring.ValidateListArbdefective(c.G, c.Inst, coloring.ArbResult{Colors: out.Colors, Arcs: out.Arcs})
		},
		Check: func(c *Case, out Output) []quality.GuaranteeCheck {
			return []quality.GuaranteeCheck{
				quality.CheckUpper("rounds ≤ q+1 ([BE10] sweep)", float64(out.Stats.Rounds), float64(c.Q+1)),
				quality.CheckUpper("palette = ⌈(Δ+1)/(d+1)⌉", float64(out.Palette),
					float64((c.G.RawMaxDegree()+1+c.P)/(c.P+1))),
			}
		},
	}
}

// -- Randomized baseline (Luby-style (Δ+1)-coloring) --------------------

func lubySolver() Solver {
	return Solver{
		Name: "luby",
		Prepare: func(env *Env, rng *rand.Rand) (*Case, error) {
			return &Case{G: env.G, D: env.D, Seed: rng.Int63()}, nil
		},
		Run: func(c *Case, cfg sim.Config) Output {
			colors, stats, err := baseline.Luby(c.G, c.Seed, cfg)
			return Output{Colors: colors, Stats: stats, Err: err}
		},
		Validate: func(c *Case, out Output) error {
			return graph.IsProperColoring(c.G, out.Colors)
		},
		Check: func(c *Case, out Output) []quality.GuaranteeCheck {
			maxColor := 0
			for _, x := range out.Colors {
				if x > maxColor {
					maxColor = x
				}
			}
			return []quality.GuaranteeCheck{
				quality.CheckUpper("palette ≤ Δ+1", float64(maxColor+1), float64(c.G.RawMaxDegree()+1)),
			}
		},
	}
}

// -- Sequential baseline (greedy list coloring) -------------------------

func greedySolver() Solver {
	return Solver{
		Name:       "greedy",
		Sequential: true,
		ColorPerm:  true,
		Prepare: func(env *Env, rng *rand.Rand) (*Case, error) {
			inst := coloring.DegreePlusOne(env.G, env.G.RawMaxDegree()+2, rng)
			return &Case{G: env.G, D: env.D, Inst: inst}, nil
		},
		Run: func(c *Case, cfg sim.Config) Output {
			colors, err := baseline.GreedyList(c.G, c.Inst)
			return Output{Colors: colors, Err: err}
		},
		Validate: func(c *Case, out Output) error {
			return coloring.ValidateProperList(c.G, c.Inst, out.Colors)
		},
		Check: func(c *Case, out Output) []quality.GuaranteeCheck { return nil },
	}
}
