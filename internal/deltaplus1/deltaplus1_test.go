package deltaplus1

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/logstar"
	"listcolor/internal/sim"
)

func TestSolveProper(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []*graph.Graph{
		graph.Ring(30),
		graph.Grid(5, 6),
		graph.RandomRegular(40, 6, rng),
		graph.GNP(35, 0.2, rng),
		graph.Complete(9),
		graph.CompleteKaryTree(3, 4),
	} {
		space := g.MaxDegree() + 1
		inst := coloring.DegreePlusOne(g, space, rng)
		res, err := Solve(g, inst, sim.Config{})
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if err := coloring.ValidateProperList(g, inst, res.Colors); err != nil {
			t.Errorf("%v: %v", g, err)
		}
		if res.Scales > logstar.CeilLog2(g.MaxDegree())+3 {
			t.Errorf("%v: %d scales, want ≤ ⌈logΔ⌉+3", g, res.Scales)
		}
	}
}

// TestDegreePlusOneSharedZeroDefects checks the aliasing contract of
// coloring.DegreePlusOne: every node's defects are a prefix of one
// all-zero array with capacity equal to length, so an append copies,
// and a solve leaves the array zero.
func TestDegreePlusOneSharedZeroDefects(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.GNP(300, 0.03, rng)
	inst := coloring.DegreePlusOne(g, 2*g.MaxDegree()+1, rng)
	var zero []int
	for v, d := range inst.Defects {
		if len(d) != g.Degree(v)+1 || cap(d) != len(d) {
			t.Fatalf("node %d: defects len %d cap %d, want both deg+1 = %d", v, len(d), cap(d), g.Degree(v)+1)
		}
		if len(d) > len(zero) {
			zero = d
		}
	}
	for v, d := range inst.Defects {
		if &d[0] != &zero[0] {
			t.Fatalf("node %d: defects do not alias the shared array", v)
		}
	}
	if grown := append(inst.Defects[0], 1); &grown[0] == &zero[0] {
		t.Error("an append wrote into the shared array")
	}
	allZero := func(when string) {
		for i, x := range zero {
			if x != 0 {
				t.Fatalf("%s: shared defect array holds %d at %d", when, x, i)
			}
		}
	}
	allZero("after generation")
	res, err := Solve(g, inst, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.ValidateProperList(g, inst, res.Colors); err != nil {
		t.Fatal(err)
	}
	allZero("after Solve")
}

func TestSolveDeltaPlusOneColors(t *testing.T) {
	// With lists = [0, Δ+1) for every node this is classical
	// (Δ+1)-coloring.
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomRegular(50, 5, rng)
	delta := g.RawMaxDegree()
	inst := &coloring.Instance{Space: delta + 1, Lists: make([][]int, g.N()), Defects: make([][]int, g.N())}
	full := make([]int, delta+1)
	for i := range full {
		full[i] = i
	}
	for v := 0; v < g.N(); v++ {
		inst.Lists[v] = full
		inst.Defects[v] = make([]int, delta+1)
	}
	res, err := Solve(g, inst, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.IsProperColoring(g, res.Colors); err != nil {
		t.Error(err)
	}
	if mc := graph.MaxColor(res.Colors); mc > delta {
		t.Errorf("used color %d > Δ = %d", mc, delta)
	}
}

func TestCheckRejections(t *testing.T) {
	g := graph.Ring(6)
	rng := rand.New(rand.NewSource(3))
	short := coloring.Uniform(6, 10, 2, 0, rng) // lists of size 2 < deg+1 = 3
	if _, err := Solve(g, short, sim.Config{}); !errors.Is(err, ErrNotDegPlusOne) {
		t.Errorf("err = %v, want ErrNotDegPlusOne", err)
	}
	defects := coloring.Uniform(6, 10, 3, 1, rng) // non-zero defects
	if _, err := Solve(g, defects, sim.Config{}); !errors.Is(err, ErrNotDegPlusOne) {
		t.Errorf("err = %v, want ErrNotDegPlusOne", err)
	}
	wrongSize := coloring.Uniform(5, 10, 3, 0, rng)
	if _, err := Solve(g, wrongSize, sim.Config{}); !errors.Is(err, ErrNotDegPlusOne) {
		t.Errorf("err = %v, want ErrNotDegPlusOne", err)
	}
}

func TestSolveQuick(t *testing.T) {
	f := func(seed int64, rawN uint8, rawP uint8) bool {
		n := int(rawN%40) + 5
		p := 0.1 + float64(rawP%5)/10
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(n, p, rng)
		inst := coloring.DegreePlusOne(g, g.MaxDegree()+5, rng)
		res, err := Solve(g, inst, sim.Config{})
		if err != nil {
			return false
		}
		return coloring.ValidateProperList(g, inst, res.Colors) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSolveEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Empty graph: every node just takes a color from its list.
	g := graph.New(5)
	inst := coloring.DegreePlusOne(g, 3, rng)
	res, err := Solve(g, inst, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.ValidateProperList(g, inst, res.Colors); err != nil {
		t.Error(err)
	}
	// Single edge.
	g2 := graph.Path(2)
	inst2 := coloring.DegreePlusOne(g2, 4, rng)
	res2, err := Solve(g2, inst2, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.ValidateProperList(g2, inst2, res2.Colors); err != nil {
		t.Error(err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// n ≫ Δ² so the Linial bootstrap and the defective split actually
	// engage (on tiny graphs every class is a singleton and nothing
	// needs to be sent).
	g := graph.RandomRegular(400, 4, rng)
	inst := coloring.DegreePlusOne(g, g.MaxDegree()+1, rng)
	res, err := Solve(g, inst, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds <= 0 || res.Stats.Messages <= 0 {
		t.Errorf("stats not accumulated: %+v", res.Stats)
	}
	if res.OLDCCalls <= 0 {
		t.Error("no OLDC calls recorded")
	}
}
