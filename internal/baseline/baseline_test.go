package baseline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/logstar"
	"listcolor/internal/sim"
)

func TestGreedyList(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomRegular(40, 5, rng)
	inst := coloring.DegreePlusOne(g, g.MaxDegree()+1, rng)
	colors, err := GreedyList(g, inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.ValidateProperList(g, inst, colors); err != nil {
		t.Error(err)
	}
}

func TestGreedyListStuck(t *testing.T) {
	g := graph.Complete(3)
	inst := &coloring.Instance{
		Space:   2,
		Lists:   [][]int{{0, 1}, {0, 1}, {0, 1}},
		Defects: [][]int{{0, 0}, {0, 0}, {0, 0}},
	}
	if _, err := GreedyList(g, inst); err == nil {
		t.Error("K3 with 2 colors should be stuck")
	}
}

func TestLubyProper(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []*graph.Graph{
		graph.Ring(50),
		graph.RandomRegular(80, 6, rng),
		graph.Complete(10),
	} {
		colors, stats, err := Luby(g, 42, sim.Config{})
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if err := graph.IsProperColoring(g, colors); err != nil {
			t.Errorf("%v: %v", g, err)
		}
		if mc := graph.MaxColor(colors); mc > g.RawMaxDegree() {
			t.Errorf("%v: color %d > Δ", g, mc)
		}
		// O(log n) w.h.p.; generous deterministic-ish cap for the test.
		if stats.Rounds > 20*logstar.CeilLog2(g.N()+2)+40 {
			t.Errorf("%v: %d rounds is suspiciously many", g, stats.Rounds)
		}
	}
}

func TestLubyReproducible(t *testing.T) {
	g := graph.Ring(30)
	a, _, err := Luby(g, 7, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Luby(g, 7, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("same seed produced different colorings")
		}
	}
}

func TestSelectEquivalence(t *testing.T) {
	// The sort-based and brute-force selections achieve the same
	// optimal objective value on random inputs.
	f := func(seed int64, rawL, rawP uint8) bool {
		lSize := int(rawL%10) + 1
		p := int(rawP%5) + 1
		rng := rand.New(rand.NewSource(seed))
		list := make([]int, lSize)
		defects := make([]int, lSize)
		k := make(map[int]int)
		for i := range list {
			list[i] = i * 3
			defects[i] = rng.Intn(6)
			k[list[i]] = rng.Intn(4)
		}
		a := SelectSort(list, defects, k, p)
		b := SelectBruteForce(list, defects, k, p)
		return a.Value == b.Value && len(a.Colors) == len(b.Colors)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSelectBruteForcePanicsOnBigLists(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("brute force accepted a 25-color list")
		}
	}()
	SelectBruteForce(make([]int, 25), make([]int, 25), nil, 3)
}
