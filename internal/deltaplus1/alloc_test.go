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
// it to 15,937 and 1,260,680 (16,445 and 1,354,920).
func TestSolveAllocs(t *testing.T) {
	const maxObjects, maxBytes = 17_900, 1_390_000
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solve()
	runtime.ReadMemStats(&after)
	b := after.TotalAlloc - before.TotalAlloc
	if b > maxBytes {
		t.Errorf("one solve allocates %d bytes, bound %d", b, maxBytes)
	}
	t.Logf("one solve allocates %.0f objects and %d bytes", objs, b)
}
