package adversary_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"listcolor/internal/adversary"
	"listcolor/internal/baseline"
	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

// TestCorruptedPayloadsNeverPanicSolver is the protocol-level half of
// the no-panic contract: a real solver bombarded with full-rate
// corruption must finish or fail deterministically — never with
// ErrNodePanic.
func TestCorruptedPayloadsNeverPanicSolver(t *testing.T) {
	g := graph.GNP(40, 0.2, rand.New(rand.NewSource(2)))
	plan := adversary.Merge(
		adversary.UniformCorrupt(21, 1.0, 1, 0), // rate 1 corrupts every delivery
		adversary.UniformCrash(g, 21, 0.1, 2, 3),
	)
	for _, d := range sim.AllDrivers() {
		cfg := plan.Apply(sim.Config{Driver: d, MaxRounds: 500})
		_, _, err := baseline.Luby(g, 99, cfg)
		if errors.Is(err, sim.ErrNodePanic) {
			t.Fatalf("driver %v: solver panicked under corruption: %v", d, err)
		}
	}
}

// TestPlanBitIdenticalAcrossDrivers runs one solver under one compiled
// plan on every driver and requires identical colors, stats and
// error text — the adversary analogue of the clean-run determinism
// property.
func TestPlanBitIdenticalAcrossDrivers(t *testing.T) {
	g := graph.GNP(30, 0.25, rand.New(rand.NewSource(8)))
	plan := adversary.Merge(
		adversary.UniformCrash(g, 13, 0.1, 2, 2),
		adversary.CrashRecoverWindows(g, 13, 0.1, 3, 2),
		adversary.PartitionLinks(g, 2, 4),
		adversary.UniformCorrupt(13, 0.2, 1, 0),
	)
	type out struct {
		colors  []int
		res     sim.Result
		errText string
	}
	var outs []out
	for _, d := range sim.AllDrivers() {
		cfg := plan.Apply(sim.Config{Driver: d, MaxRounds: 300})
		colors, res, err := baseline.Luby(g, 5, cfg)
		o := out{colors: colors, res: res}
		if err != nil {
			o.errText = err.Error()
		}
		outs = append(outs, o)
	}
	for i, o := range outs[1:] {
		if !reflect.DeepEqual(o, outs[0]) {
			t.Errorf("driver %v diverged from lockstep under the plan:\n%+v\nvs\n%+v",
				sim.AllDrivers()[i+1], o, outs[0])
		}
	}
}
