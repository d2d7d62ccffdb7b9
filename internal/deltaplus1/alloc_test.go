package deltaplus1

import (
	"math/rand"
	"runtime"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

// TestSolveAllocs pins the allocation cost of one solve at perfbench
// solve-deep's shape (BenchmarkDegPlusOne/solve-deep: a 500-node
// 16-regular graph, C = 33, span installed), where Lemma A.1's class
// loop makes 500 one-node sub-runs. Building every sub-run on a CSR
// through one dense index, and giving all of a solve's runs one engine
// set-up, brought a solve from 65,017 objects and 3.85 MB to 25,920
// and 1.72 MB. Borrowing the edgeless sweep's counter and selection
// scratch, csr's sub-instance and Linial's schedules from that engine
// brought it to 16,436 objects and 1,264,700 bytes (16,950 and
// 1,363,000 under the race detector); the bounds add 9% and 10%.
// Allocating Linial's and Two-Sweep's node state once per run brought
// it to 15,937 and 1,260,680 (16,445 and 1,354,920). Borrowing Linial's
// run state from the engine too, so that the 500 class re-bootstraps
// re-carve one set of arrays, brought it to 13,427 and 1,034,100
// (13,970 and 1,131,900). Re-carving each class step's sub-problem
// from buffers the solve already holds (the class's induced graph and
// base colors, its orientation by id, csr's group data, the drivers'
// per-run arrays) and building the class span labels without fmt
// brought it to 5,093 and 763,600 (5,098 and 787,600); the bounds add
// 10% to both, 9.8% and 6.7% over the race detector's figures. The
// bytes are a mean over five solves.
func TestSolveAllocs(t *testing.T) {
	const maxObjects, maxBytes = 5_600, 840_000
	g := graph.RandomRegular(500, 16, rand.New(rand.NewSource(7)))
	inst := coloring.DegreePlusOne(g, 33, rand.New(rand.NewSource(8)))
	solve := func() {
		if _, err := Solve(g, inst, sim.Config{Span: sim.NewSpan("deltaplus1")}); err != nil {
			t.Fatal(err)
		}
	}
	objs := testing.AllocsPerRun(3, solve)
	if objs > maxObjects {
		t.Errorf("one solve allocates %.0f objects, bound %d", objs, maxObjects)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		solve()
	}
	runtime.ReadMemStats(&after)
	b := (after.TotalAlloc - before.TotalAlloc) / runs
	if b > maxBytes {
		t.Errorf("one solve allocates %d bytes, bound %d", b, maxBytes)
	}
	t.Logf("one solve allocates %.0f objects and %d bytes", objs, b)
}
