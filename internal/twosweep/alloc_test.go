package twosweep

import (
	"math/rand"
	"runtime"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/linial"
	"listcolor/internal/sim"
)

// TestSolveFastAllocs pins the allocation cost of one op at perfbench
// solve-wide's shape (BenchmarkFastTwoSweep/solve-wide: Linial from
// ids on a 1000-node 4-regular graph, then Fast-Two-Sweep with p = 2,
// ε = 1 over 40 colors). Allocating Linial's and Two-Sweep's node
// state once per run instead of once per node brought an op from
// 26,614 objects and 2,431,192 bytes to 4,053 and 2,026,648 (4,054 and
// 2,026,744 under the race detector). Most of the objects left are the
// payloads the nodes send. The bounds add 10%.
func TestSolveFastAllocs(t *testing.T) {
	const maxObjects, maxBytes = 4_460, 2_230_000
	const p, eps = 2, 1.0
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomRegular(1000, 4, rng)
	d := graph.OrientByID(g)
	inst := coloring.MinSlackOriented(d, 4*p*p+24, p, eps, rng)
	op := func() {
		lin, err := linial.ColorFromIDs(g, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SolveFast(d, inst, lin.Colors, lin.Palette, p, eps, sim.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	objs := testing.AllocsPerRun(3, op)
	if objs > maxObjects {
		t.Errorf("one op allocates %.0f objects, bound %d", objs, maxObjects)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	op()
	runtime.ReadMemStats(&after)
	b := after.TotalAlloc - before.TotalAlloc
	if b > maxBytes {
		t.Errorf("one op allocates %d bytes, bound %d", b, maxBytes)
	}
	t.Logf("one op allocates %.0f objects and %d bytes", objs, b)
}
