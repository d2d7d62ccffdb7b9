package csr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/linial"
	"listcolor/internal/sim"
)

func properColoring(t testing.TB, g *graph.Graph) ([]int, int) {
	t.Helper()
	res, err := linial.ColorFromIDs(g, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Colors, res.Palette
}

func TestSolveValidOLDC(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		g     *graph.Graph
		space int
	}{
		{graph.RandomRegular(40, 4, rng), 64},
		{graph.Grid(6, 6), 100},
		{graph.GNP(30, 0.2, rng), 17}, // non-power-of-4 space
		{graph.Ring(24), 256},
	} {
		d := graph.OrientByID(tc.g)
		init, q := properColoring(t, tc.g)
		inst := coloring.WithOrientedSlack(d, tc.space, 3*math.Sqrt(float64(tc.space)), rng)
		res, err := Solve(d, inst, init, q, sim.Config{})
		if err != nil {
			t.Fatalf("space=%d: %v", tc.space, err)
		}
		if err := coloring.ValidateOLDC(d, inst, res.Colors); err != nil {
			t.Errorf("space=%d: %v", tc.space, err)
		}
	}
}

func TestSolveTinySpace(t *testing.T) {
	// C ≤ 4 exercises the base-only path; C = 1 the k = 0 path.
	rng := rand.New(rand.NewSource(2))
	g := graph.Ring(8)
	d := graph.OrientByID(g)
	init, q := properColoring(t, g)

	inst4 := coloring.WithOrientedSlack(d, 4, 6, rng)
	res, err := Solve(d, inst4, init, q, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.ValidateOLDC(d, inst4, res.Colors); err != nil {
		t.Error(err)
	}
	if res.Levels != 1 {
		t.Errorf("Levels = %d, want 1", res.Levels)
	}

	inst1 := &coloring.Instance{Space: 1, Lists: make([][]int, 8), Defects: make([][]int, 8)}
	for v := 0; v < 8; v++ {
		inst1.Lists[v] = []int{0}
		inst1.Defects[v] = []int{6} // 7 ≥ 3·√1·2
	}
	res1, err := Solve(d, inst1, init, q, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.ValidateOLDC(d, inst1, res1.Colors); err != nil {
		t.Error(err)
	}
	if res1.Levels != 0 {
		t.Errorf("Levels = %d, want 0", res1.Levels)
	}
}

func TestSlackRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Ring(10)
	d := graph.OrientByID(g)
	init, q := properColoring(t, g)
	// Slack 1 ≪ 3√64 = 24.
	inst := coloring.WithOrientedSlack(d, 64, 1, rng)
	if _, err := Solve(d, inst, init, q, sim.Config{}); !errors.Is(err, ErrSlack) {
		t.Errorf("err = %v, want ErrSlack", err)
	}
}

func TestMessageSizeTheorem12(t *testing.T) {
	// Theorem 1.2: messages of O(log q + log C) bits. Enforce a cap of
	// that shape and make sure the run completes.
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomRegular(60, 6, rng)
	d := graph.OrientByID(g)
	init, q := properColoring(t, g)
	space := 1024
	inst := coloring.WithOrientedSlack(d, space, 3*math.Sqrt(float64(space)), rng)
	cap := 4*sim.BitsFor(q*q) + 4*sim.BitsFor(space) + 16
	res, err := Solve(d, inst, init, q, sim.Config{BandwidthBits: cap})
	if err != nil {
		t.Fatalf("exceeded O(log q + log C) messages: %v", err)
	}
	if err := coloring.ValidateOLDC(d, inst, res.Colors); err != nil {
		t.Error(err)
	}
}

func TestRoundsPolylogC(t *testing.T) {
	// Rounds must grow polylogarithmically in C, not like √C or C: the
	// whole point of Theorem 1.2 over plain Two-Sweep.
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomRegular(40, 4, rng)
	d := graph.OrientByID(g)
	init, q := properColoring(t, g)
	var prev int
	for _, space := range []int{16, 256, 4096} {
		inst := coloring.WithOrientedSlack(d, space, 3*math.Sqrt(float64(space)), rng)
		res, err := Solve(d, inst, init, q, sim.Config{})
		if err != nil {
			t.Fatalf("space=%d: %v", space, err)
		}
		lc := math.Log2(float64(space))
		bound := int(10*lc*lc*lc) + 200
		if res.Stats.Rounds > bound {
			t.Errorf("space=%d: rounds %d exceed polylog bound %d", space, res.Stats.Rounds, bound)
		}
		if prev > 0 && res.Stats.Rounds > 30*prev {
			t.Errorf("rounds exploded with C: %d → %d", prev, res.Stats.Rounds)
		}
		prev = res.Stats.Rounds
	}
}

func TestSolveQuick(t *testing.T) {
	f := func(seed int64, rawN, rawC uint8) bool {
		n := int(rawN%30) + 8
		space := []int{8, 20, 64, 100}[rawC%4]
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(n, 0.25, rng)
		d := graph.OrientRandom(g, rng)
		initRes, err := linial.ColorFromIDs(g, sim.Config{})
		if err != nil {
			return false
		}
		inst := coloring.WithOrientedSlack(d, space, 3*math.Sqrt(float64(space)), rng)
		res, err := Solve(d, inst, initRes.Colors, initRes.Palette, sim.Config{})
		if err != nil {
			return false
		}
		return coloring.ValidateOLDC(d, inst, res.Colors) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSolveOnEngineReusedAfterError checks that a failing solve hands
// back what it borrowed from the engine: the engine still holds csr's
// sub-instance afterwards, and a solve reusing it gives the output of a
// fresh engine.
func TestSolveOnEngineReusedAfterError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomRegular(40, 4, rng)
	d := graph.OrientByID(g)
	init, q := properColoring(t, g)
	inst := coloring.WithOrientedSlack(d, 64, 3*math.Sqrt(64), rng)
	e := new(sim.Engine)
	if _, err := SolveOn(e, d.Oriented, inst, init, q, sim.Config{MaxRounds: 1}); !errors.Is(err, sim.ErrRoundLimit) {
		t.Fatalf("one-round solve: err = %v, want ErrRoundLimit", err)
	}
	if f := sim.Borrow[flatInstance](e); cap(f.lists) == 0 {
		t.Error("the failing solve did not return its sub-instance")
	} else {
		sim.Return(e, f)
	}
	got, err := SolveOn(e, d.Oriented, inst, init, q, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveOn(new(sim.Engine), d.Oriented, inst, init, q, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Colors, want.Colors) || got.Stats != want.Stats || got.Levels != want.Levels {
		t.Errorf("reused engine: colors %v stats %+v, fresh engine: colors %v stats %+v", got.Colors, got.Stats, want.Colors, want.Stats)
	}
}

// TestSolveOnEngineReusedAfterLargerSolve runs solves of several sizes
// on one engine, larger then smaller and the reverse, under the id
// orientation and a random one in turn, so the sub-instance borrowed
// from the engine is re-carved for multi-node groups of other sizes
// and its induced orientation switches form. Each solve must equal a
// fresh engine's colors, stats, levels and span tree, whose labels
// give every level's groups in order; the test also checks that some
// level below the top split a group of several nodes.
func TestSolveOnEngineReusedAfterLargerSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	type solve struct {
		d    *graph.Digraph
		inst *coloring.Instance
		init []int
		q    int
	}
	var solves []solve
	for _, tc := range []struct {
		g     *graph.Graph
		space int
	}{
		{graph.RandomRegular(80, 6, rng), 256},
		{graph.GNP(30, 0.15, rng), 64},
		{graph.RandomRegular(40, 4, rng), 100},
		{graph.RandomRegular(80, 6, rng), 256},
	} {
		init, q := properColoring(t, tc.g)
		for _, d := range []*graph.Digraph{graph.OrientByID(tc.g), graph.OrientRandom(tc.g, rng)} {
			inst := coloring.WithOrientedSlack(d, tc.space, 3*math.Sqrt(float64(tc.space)), rng)
			solves = append(solves, solve{d: d, inst: inst, init: init, q: q})
		}
	}
	e := new(sim.Engine)
	split := false
	for i, s := range solves {
		gotSpan, wantSpan := sim.NewSpan("csr"), sim.NewSpan("csr")
		got, err := SolveOn(e, s.d.Oriented, s.inst, s.init, s.q, sim.Config{Span: gotSpan})
		if err != nil {
			t.Fatal(err)
		}
		want, err := SolveOn(new(sim.Engine), s.d.Oriented, s.inst, s.init, s.q, sim.Config{Span: wantSpan})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Colors, want.Colors) || got.Stats != want.Stats || got.Levels != want.Levels {
			t.Errorf("solve %d (n=%d): reused engine colors %v stats %+v levels %d, fresh engine colors %v stats %+v levels %d",
				i, s.d.N(), got.Colors, got.Stats, got.Levels, want.Colors, want.Stats, want.Levels)
		}
		if g, w := gotSpan.Render(3, 0), wantSpan.Render(3, 0); g != w {
			t.Errorf("solve %d: reused engine's span tree\n%s\nfresh engine's\n%s", i, g, w)
		}
		for _, level := range wantSpan.Children[1:] {
			for _, grp := range level.Children {
				var at, nodes int
				if _, err := fmt.Sscanf(grp.Label, "block@%d (%d nodes)", &at, &nodes); err == nil && nodes > 1 {
					split = true
				}
			}
		}
	}
	if !split {
		t.Error("no level below the top had a group of several nodes")
	}
}
