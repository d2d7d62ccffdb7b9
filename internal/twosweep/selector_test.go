package twosweep

import (
	"math/rand"
	"testing"
	"testing/quick"

	"listcolor/internal/baseline"
	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/linial"
	"listcolor/internal/palette"
	"listcolor/internal/sim"
)

// TestSelectorsBothValid runs the full protocol under both Phase-I
// selection strategies on identical workloads: both must produce valid
// OLDCs, and the subset search must cost strictly more local work
// whenever the lists are non-trivial.
func TestSelectorsBothValid(t *testing.T) {
	f := func(seed int64, rawN uint8, rawP uint8) bool {
		n := int(rawN%25) + 8
		p := int(rawP%2) + 2 // p ∈ {2,3}: Λ = p² ≤ 9, subset search tractable
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(n, 0.3, rng)
		d := graph.OrientRandom(g, rng)
		initRes, err := linial.ColorFromIDs(g, sim.Config{})
		if err != nil {
			return false
		}
		inst := coloring.MinSlackOriented(d, 4*p*p+10, p, 0, rng)
		a, err := SolveWithSelector(d, inst, initRes.Colors, initRes.Palette, p, SortSelector, sim.Config{})
		if err != nil {
			return false
		}
		b, err := SolveWithSelector(d, inst, initRes.Colors, initRes.Palette, p, baseline.SubsetSelector, sim.Config{})
		if err != nil {
			return false
		}
		if coloring.ValidateOLDC(d, inst, a.Colors) != nil || coloring.ValidateOLDC(d, inst, b.Colors) != nil {
			return false
		}
		return b.LocalOps > a.LocalOps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestSortSelectorProperties pins the selector's contract: at most p
// colors, all from the list, sorted, and the selection maximizes
// Σ(d+1−k) over same-size subsets (checked against the baseline brute
// force, which returns the same optimum).
func TestSortSelectorProperties(t *testing.T) {
	f := func(seed int64, rawL, rawP uint8) bool {
		lSize := int(rawL%9) + 1
		p := int(rawP%4) + 1
		rng := rand.New(rand.NewSource(seed))
		list := make([]int, lSize)
		defects := make([]int, lSize)
		k := make(map[int]int)
		kc := palette.NewCounter(2 * lSize)
		for i := range list {
			list[i] = i * 2
			defects[i] = rng.Intn(5)
			k[list[i]] = rng.Intn(4)
			kc.AddN(list[i], k[list[i]])
		}
		colors, ops := SortSelector(list, defects, kc, p, palette.NewSelectScratch())
		if ops < 0 {
			return false
		}
		want := p
		if lSize < want {
			want = lSize
		}
		if len(colors) != want {
			return false
		}
		prev := -1
		value := 0
		for _, x := range colors {
			if x <= prev {
				return false // not sorted / duplicate
			}
			prev = x
			found := false
			for i, lx := range list {
				if lx == x {
					value += defects[i] + 1 - k[x]
					found = true
				}
			}
			if !found {
				return false
			}
		}
		best := baseline.SelectBruteForce(list, defects, k, p)
		return value == best.Value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestLocalOpsDeterministic pins the operation counter: two identical
// runs produce identical LocalOps on every driver.
func TestLocalOpsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomRegular(40, 4, rng)
	d := graph.OrientByID(g)
	initRes, err := linial.ColorFromIDs(g, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inst := coloring.MinSlackOriented(d, 40, 2, 0, rng)
	var prev int64 = -1
	for _, driver := range sim.AllDrivers() {
		res, err := Solve(d, inst, initRes.Colors, initRes.Palette, 2, sim.Config{Driver: driver})
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.LocalOps != prev {
			t.Fatalf("driver %d: LocalOps %d != %d", driver, res.LocalOps, prev)
		}
		prev = res.LocalOps
	}
	if prev <= 0 {
		t.Error("no local ops recorded")
	}
}
