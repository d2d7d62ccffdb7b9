package conformance

import "testing"

// TestPaletteKernelRaceCell drives one full workload cell — clean and
// fault-injected, every driver — through the solvers whose hot
// paths run on the internal/palette kernel. Its purpose is to put the
// kernel's node-local state (bitsets, counters, selection scratch)
// under the concurrent drivers so `go test -race` observes every
// cross-goroutine access pattern the port introduced; the CI race job
// runs exactly this package for that reason.
func TestPaletteKernelRaceCell(t *testing.T) {
	env := mustMaterialize(t, "gnp24-degen")
	opt := Options{Seed: 7, Faults: true}
	for _, name := range []string{"twosweep", "linial", "luby"} {
		t.Run(name, func(t *testing.T) {
			res := RunCell(env, mustSolver(t, name), opt)
			if res.Skipped != "" {
				t.Skipf("cell skipped: %s", res.Skipped)
			}
			for _, f := range res.Failures {
				t.Error(f)
			}
		})
	}
}
