package repair

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"listcolor/internal/adversary"
	"listcolor/internal/baseline"
	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

// lubyTarget wires baseline.Luby to a DegreePlusOne instance: the
// solver outputs a proper coloring with colors in [0, Δ+1), which is
// then mapped into each node's list by index — but Luby colors are not
// list colors, so for repair tests we instead use the fallback path or
// synthetic solvers. This helper builds the topology + instance only.
func degPlusOneTarget(t *testing.T, n int, p float64, seed int64) Target {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.GNP(n, p, rng)
	inst := coloring.DegreePlusOne(g, g.RawMaxDegree()+1+4, rng)
	return Target{Name: "deg+1", G: g, Inst: inst}
}

func TestRepairFromFallbackConverges(t *testing.T) {
	// No solver at all: every node starts on its first list color (a
	// heavily conflicted coloring) and repair alone must reach a valid
	// proper list coloring within the default budget.
	tgt := degPlusOneTarget(t, 60, 0.15, 1)
	rep, err := Run(tgt, adversary.Plan{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedFallback {
		t.Error("expected the fallback start without a solver")
	}
	if !rep.Converged {
		t.Fatalf("repair did not converge: after = %+v, rounds = %d", rep.After, rep.RecoveryRounds)
	}
	if rep.After.Hard != 0 || rep.After.Uncolored != 0 {
		t.Errorf("converged but After = %+v", rep.After)
	}
	if rep.ResidualDefect != 0 {
		t.Errorf("proper instance converged with residual defect %d", rep.ResidualDefect)
	}
	if rep.RecoveryRounds < 1 || rep.RecoveryRounds > DefaultBudget(tgt.G.N()) {
		t.Errorf("RecoveryRounds = %d outside (0, %d]", rep.RecoveryRounds, DefaultBudget(tgt.G.N()))
	}
	if rep.Before.Hard <= rep.After.Hard {
		t.Errorf("no measured improvement: before %+v, after %+v", rep.Before, rep.After)
	}
	if rep.Quality == nil {
		t.Error("converged run missing quality report")
	}
	if rep.RepairMessages == 0 || rep.RepairBits == 0 {
		t.Error("recoloring broadcasts not billed")
	}
}

func TestRepairValidSolverOutputUntouched(t *testing.T) {
	// A solver that already returns a valid coloring: zero recovery
	// rounds, zero repair traffic, colors passed through.
	g := graph.Ring(6)
	inst := &coloring.Instance{Space: 2,
		Lists:   [][]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}},
		Defects: [][]int{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}},
	}
	want := []int{0, 1, 0, 1, 0, 1}
	tgt := Target{G: g, Inst: inst, Solve: func(cfg sim.Config) ([]int, sim.Result, error) {
		return want, sim.Result{Rounds: 3}, nil
	}}
	rep, err := Run(tgt, adversary.Plan{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecoveryRounds != 0 || rep.RepairMessages != 0 {
		t.Errorf("valid output still repaired: rounds=%d msgs=%d", rep.RecoveryRounds, rep.RepairMessages)
	}
	if !rep.Converged || !reflect.DeepEqual(rep.Colors, want) {
		t.Errorf("colors = %v, converged = %v", rep.Colors, rep.Converged)
	}
	if rep.SolveStats.Rounds != 3 {
		t.Errorf("solver stats not propagated: %+v", rep.SolveStats)
	}
}

func TestRepairRecoversFromCrashedSolve(t *testing.T) {
	// A real solver under a crash plan: Luby stalls into ErrRoundLimit,
	// repair starts from whatever survives and must still converge.
	rng := rand.New(rand.NewSource(4))
	g := graph.GNP(40, 0.2, rng)
	inst := coloring.DegreePlusOne(g, g.RawMaxDegree()+8, rng)
	plan := adversary.UniformCrash(g, 31, 0.15, 2, 2)
	solveCalls := 0
	tgt := Target{
		Name: "luby", G: g, Inst: inst,
		Solve: func(cfg sim.Config) ([]int, sim.Result, error) {
			solveCalls++
			// Luby's colors are MIS layer indices — map them into the
			// node's list so damage is list-relative.
			colors, res, err := baseline.Luby(g, 7, cfg)
			if err != nil {
				return nil, res, err
			}
			out := make([]int, len(colors))
			for v, c := range colors {
				l := inst.Lists[v]
				out[v] = l[c%len(l)]
			}
			return out, res, err
		},
	}
	rep, err := Run(tgt, plan, Options{Base: sim.Config{MaxRounds: 150}})
	if err != nil {
		t.Fatal(err)
	}
	if solveCalls != 1 {
		t.Fatalf("solver ran %d times", solveCalls)
	}
	if !rep.Converged {
		t.Fatalf("no convergence after crash faults: after = %+v", rep.After)
	}
	if rep.RecoveryRounds > DefaultBudget(g.N()) {
		t.Errorf("RecoveryRounds %d over budget", rep.RecoveryRounds)
	}
	if err := coloring.ValidateListDefective(g, inst, rep.Colors); err != nil {
		t.Errorf("reported convergence but validator says: %v", err)
	}
}

func TestRepairOrientedSinkFirst(t *testing.T) {
	// OLDC semantics on an id-oriented path: start all-same-color; the
	// dirty sub-DAG must settle sink-first and converge.
	g := graph.Path(8)
	d := graph.OrientByID(g)
	inst := &coloring.Instance{Space: 2, Lists: make([][]int, 8), Defects: make([][]int, 8)}
	for v := 0; v < 8; v++ {
		inst.Lists[v] = []int{0, 1}
		inst.Defects[v] = []int{0, 0}
	}
	damaged := make([]int, 8) // all color 0
	tgt := Target{G: g, D: d, Inst: inst, Solve: func(cfg sim.Config) ([]int, sim.Result, error) {
		return damaged, sim.Result{}, nil
	}}
	rep, err := Run(tgt, adversary.Plan{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("oriented repair failed: %+v", rep.After)
	}
	if err := coloring.ValidateOLDC(d, inst, rep.Colors); err != nil {
		t.Errorf("OLDC validator: %v", err)
	}
	// An id-oriented path has longest path ≤ n; well under budget.
	if rep.RecoveryRounds > 8 {
		t.Errorf("sink-first repair took %d rounds on an 8-path", rep.RecoveryRounds)
	}
}

func TestClassifyAbsorbedVsHard(t *testing.T) {
	// Triangle, everyone color 0. Defect budgets: node 0 absorbs 2,
	// node 1 absorbs 1 (hard by 1), node 2 absorbs 0 (hard by 2).
	g := graph.Complete(3)
	inst := &coloring.Instance{Space: 3,
		Lists:   [][]int{{0}, {0}, {0}},
		Defects: [][]int{{2}, {1}, {0}},
	}
	cl := Classify(Target{G: g, Inst: inst}, []int{0, 0, 0})
	want := Classification{Hard: 2, HardExcess: 1 + 2, Absorbed: 2 + 1 + 0, Uncolored: 0}
	if cl != want {
		t.Errorf("Classify = %+v, want %+v", cl, want)
	}
	// A color outside the list is uncolored and hard.
	cl2 := Classify(Target{G: g, Inst: inst}, []int{0, 0, 2})
	if cl2.Uncolored != 1 || cl2.Hard < 1 {
		t.Errorf("off-list color: %+v", cl2)
	}
}

func TestRepairAbsorbedConflictsReported(t *testing.T) {
	// A triangle whose budgets absorb one monochromatic edge: the
	// final coloring can keep a conflict and must report it absorbed.
	g := graph.Complete(3)
	inst := &coloring.Instance{Space: 2,
		Lists:   [][]int{{0, 1}, {0, 1}, {0, 1}},
		Defects: [][]int{{1, 1}, {1, 1}, {1, 1}},
	}
	tgt := Target{G: g, Inst: inst}
	rep, err := Run(tgt, adversary.Plan{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("triangle with defect-1 budgets must converge: %+v", rep.After)
	}
	// 3 nodes, 2 colors: some edge is monochromatic, so the absorbed
	// count is ≥ 2 (both endpoints) and residual defect is 1.
	if rep.AbsorbedConflicts < 2 {
		t.Errorf("AbsorbedConflicts = %d, want ≥ 2", rep.AbsorbedConflicts)
	}
	if rep.ResidualDefect != 1 {
		t.Errorf("ResidualDefect = %d, want 1", rep.ResidualDefect)
	}
}

func TestRepairBudgetExhaustion(t *testing.T) {
	// Unsatisfiable: a triangle with single-color lists and zero
	// defect. Repair must stop at the budget, not spin.
	g := graph.Complete(3)
	inst := &coloring.Instance{Space: 1,
		Lists:   [][]int{{0}, {0}, {0}},
		Defects: [][]int{{0}, {0}, {0}},
	}
	rep, err := Run(Target{G: g, Inst: inst}, adversary.Plan{}, Options{RoundBudget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Converged {
		t.Fatal("unsatisfiable instance reported converged")
	}
	if rep.RecoveryRounds != 5 {
		t.Errorf("RecoveryRounds = %d, want the full budget 5", rep.RecoveryRounds)
	}
	if rep.After.Hard == 0 {
		t.Errorf("After = %+v, want hard violations", rep.After)
	}
}

func TestRunStructuralErrors(t *testing.T) {
	g := graph.Ring(4)
	inst := coloring.DegreePlusOne(g, 8, rand.New(rand.NewSource(1)))
	if _, err := Run(Target{Inst: inst}, adversary.Plan{}, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Run(Target{G: g}, adversary.Plan{}, Options{}); err == nil {
		t.Error("nil instance accepted")
	}
	small := coloring.DegreePlusOne(graph.Ring(3), 8, rand.New(rand.NewSource(1)))
	if _, err := Run(Target{G: g, Inst: small}, adversary.Plan{}, Options{}); err == nil {
		t.Error("size mismatch accepted")
	}
	bad := adversary.Plan{Events: []adversary.Event{{Kind: "meteor", Start: 1}}}
	if _, err := Run(Target{G: g, Inst: inst}, bad, Options{}); err == nil {
		t.Error("invalid plan accepted")
	}
	// An invalid solve config is structural too: it must not end up in
	// SolveErr with repair quietly starting from the fallback.
	for name, opt := range map[string]Options{
		"unknown driver":     {Base: sim.Config{Driver: sim.Driver(99)}},
		"negative MaxRounds": {Base: sim.Config{MaxRounds: -1}},
	} {
		if _, err := Run(Target{G: g, Inst: inst}, adversary.Plan{}, opt); !errors.Is(err, sim.ErrConfig) {
			t.Errorf("%s: err = %v, want sim.ErrConfig", name, err)
		}
	}
}

// TestRepairDeterministicUnderConcurrency is the race-job test: many
// concurrent Run calls on the same shared (read-only) target must be
// data-race free and produce identical reports.
func TestRepairDeterministicUnderConcurrency(t *testing.T) {
	tgt := degPlusOneTarget(t, 30, 0.2, 9)
	plan := adversary.Merge(
		adversary.UniformCrash(tgt.G, 17, 0.1, 2, 1),
		adversary.UniformCorrupt(17, 0.2, 1, 0),
	)
	tgt.Solve = func(cfg sim.Config) ([]int, sim.Result, error) {
		colors, res, err := baseline.Luby(tgt.G, 3, cfg)
		if err != nil {
			return nil, res, err
		}
		out := make([]int, len(colors))
		for v, c := range colors {
			l := tgt.Inst.Lists[v]
			out[v] = l[c%len(l)]
		}
		return out, res, nil
	}
	const workers = 8
	reports := make([]Report, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			drivers := sim.AllDrivers()
			rep, err := Run(tgt, plan, Options{Base: sim.Config{MaxRounds: 150, Driver: drivers[i%len(drivers)]}})
			if err != nil {
				t.Error(err)
				return
			}
			reports[i] = rep
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		a, b := reports[0], reports[i]
		// Error values may differ in identity; compare text.
		aErr, bErr := "", ""
		if a.SolveErr != nil {
			aErr = a.SolveErr.Error()
		}
		if b.SolveErr != nil {
			bErr = b.SolveErr.Error()
		}
		a.SolveErr, b.SolveErr = nil, nil
		if aErr != bErr || !reflect.DeepEqual(a, b) {
			t.Fatalf("concurrent run %d diverged:\n%+v\nvs\n%+v", i, reports[0], b)
		}
	}
}
