package bench

import (
	"fmt"
	"math/rand"

	"listcolor/internal/adversary"
	"listcolor/internal/baseline"
	"listcolor/internal/coloring"
	"listcolor/internal/deltaplus1"
	"listcolor/internal/repair"
	"listcolor/internal/sim"
	"listcolor/internal/trace"
	"listcolor/internal/twosweep"
	"listcolor/internal/workload"
)

// RunE16 measures the self-healing layer: each solver runs under a
// seed-derived fault plan (crash-stops plus payload corruption at the
// given rate), the damaged output is classified into absorbed vs hard
// conflicts, and bounded local repair re-enters conflicted nodes with
// their residual lists. The table reports how many repair rounds
// recovery took and what defect remains — the paper's slack
// Σ(d_v(x)+1) > β_v is exactly what guarantees every conflicted node
// a repair color, so all cells must reconverge within the 2n+16
// budget.
func RunE16(opt Options) Table {
	t := Table{
		ID:    "E16",
		Title: "Fault recovery: repair rounds and residual defect vs fault rate",
		Claim: "defect slack absorbs fault damage: every solver reconverges under crash+corrupt plans at rates ≤ 10% within the 2n+16 repair budget",
		Columns: []string{
			"solver", "rate", "faults", "hard before", "absorbed",
			"recovery rounds", "residual defect", "valid",
		},
	}
	params := workload.Params{N: 64, Degree: 6}
	rates := []float64{0, 0.02, 0.05, 0.10}
	if opt.Quick {
		rates = []float64{0, 0.10}
	}
	// solveMaxRounds caps the faulted solver run: crash-stalled
	// protocols hit sim.ErrRoundLimit here and hand repair the
	// fallback coloring.
	const solveMaxRounds = 400
	var cells []Cell
	for _, solver := range []string{"twosweep", "degplus1", "luby"} {
		for _, rate := range rates {
			cells = append(cells, Cell{
				Name: fmt.Sprintf("%s@%.2f", solver, rate),
				Run: func(seed int64) CellOut {
					rng := rand.New(rand.NewSource(seed))
					g := opt.cachedGraph("regular", params, 0)
					tgt := repair.Target{Name: solver, G: g}
					switch solver {
					case "twosweep":
						d := opt.orientID(g)
						base, q, _ := opt.properBase(g)
						p := 2
						inst := coloring.MinSlackOriented(d, 4*p*p+16, p, 0, rng)
						tgt.D = d
						tgt.Inst = inst
						tgt.Solve = func(cfg sim.Config) ([]int, sim.Result, error) {
							res, err := twosweep.Solve(d, inst, base, q, p, cfg)
							return res.Colors, res.Stats, err
						}
					case "degplus1":
						inst := coloring.DegreePlusOne(g, g.RawMaxDegree()+8, rng)
						tgt.Inst = inst
						tgt.Solve = func(cfg sim.Config) ([]int, sim.Result, error) {
							res, err := deltaplus1.Solve(g, inst, cfg)
							return res.Colors, res.Stats, err
						}
					case "luby":
						// Full-palette lists: Luby's (Δ+1)-coloring output
						// is directly list-relative, so the damage columns
						// measure fault impact, not a list-mapping artifact.
						tgt.Inst = coloring.FullPalette(g.N(), g.RawMaxDegree()+1, 0)
						tgt.Solve = func(cfg sim.Config) ([]int, sim.Result, error) {
							return baseline.Luby(g, seed, cfg)
						}
					}
					var plan adversary.Plan
					if rate > 0 {
						plan = adversary.Merge(
							adversary.UniformCrash(g, seed, rate, 2, 2),
							adversary.UniformCorrupt(seed, rate, 1, 0),
						)
					}
					// Trace the faulted solve with the plan's fault events
					// annotated; the event count is the table's fault
					// column.
					rec := &trace.Recorder{}
					plan.Annotate(rec)
					inner := tgt.Solve
					tgt.Solve = func(cfg sim.Config) ([]int, sim.Result, error) {
						return inner(rec.Attach(cfg))
					}
					rep, err := repair.Run(tgt, plan, repair.Options{Base: sim.Config{MaxRounds: solveMaxRounds}})
					if err != nil {
						panic(err)
					}
					return CellOut{Rows: [][]string{{
						solver, ftoa(rate), itoa(len(rec.Events())),
						itoa(rep.Before.Hard), itoa(rep.AbsorbedConflicts),
						itoa(rep.RecoveryRounds), itoa(rep.ResidualDefect),
						btoa(rep.Converged),
					}}}
				},
			})
		}
	}
	t.Rows = rowsOf(RunCells(opt, "E16", cells))
	t.Notes = "faults = planned fault events (crash-stops + corruption windows); absorbed = post-repair conflicts inside defect budgets; budget 2n+16 repair rounds"
	return t
}
