package linial

import (
	"math/rand"
	"testing"
	"testing/quick"

	"listcolor/internal/graph"
	"listcolor/internal/logstar"
	"listcolor/internal/sim"
)

func TestProperScheduleInvariants(t *testing.T) {
	f := func(rawM uint32, rawB uint8) bool {
		m := int(rawM%1_000_000) + 10
		beta := int(rawB%20) + 1
		steps := ProperSchedule(m, beta)
		cur := m
		for _, s := range steps {
			if s.ColorsIn != cur {
				return false
			}
			if s.Q <= s.Degree*beta { // must have q > d·β
				return false
			}
			// Representability q^(d+1) ≥ colorsIn.
			rep := 1
			ok := false
			for i := 0; i <= s.Degree; i++ {
				rep *= s.Q
				if rep >= cur {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
			if s.ColorsOut() >= cur { // progress
				return false
			}
			cur = s.ColorsOut()
		}
		// Terminal palette is Θ(β²): generous constant 16.
		return cur <= 16*(beta+1)*(beta+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestProperScheduleLengthLogStar(t *testing.T) {
	// Schedule length should track log*(m): tiny even for huge m.
	for _, m := range []int{100, 10_000, 1_000_000, 1 << 40} {
		steps := ProperSchedule(m, 4)
		if len(steps) > logstar.LogStar(m)+4 {
			t.Errorf("m=%d: %d steps, want ≤ log*(m)+4 = %d", m, len(steps), logstar.LogStar(m)+4)
		}
	}
}

func TestDefectiveScheduleBudget(t *testing.T) {
	for _, tc := range []struct {
		m    int
		beta int
		a    float64
	}{
		{1000, 8, 0.5}, {100000, 16, 0.25}, {50, 3, 1.0}, {1 << 30, 32, 0.125},
	} {
		steps := DefectiveSchedule(tc.m, tc.beta, tc.a)
		total := 0.0
		cur := tc.m
		for _, s := range steps {
			total += s.AllowFrac
			if s.ColorsOut() >= cur {
				t.Errorf("m=%d β=%d α=%v: non-progressing step", tc.m, tc.beta, tc.a)
			}
			cur = s.ColorsOut()
		}
		if total > tc.a {
			t.Errorf("m=%d β=%d α=%v: total budget %v exceeds α", tc.m, tc.beta, tc.a, total)
		}
		// Terminal palette Θ(1/α²): generous constant 64.
		limit := int(64.0/(tc.a*tc.a)) + 64
		if cur > limit {
			t.Errorf("m=%d β=%d α=%v: palette %d > %d", tc.m, tc.beta, tc.a, cur, limit)
		}
	}
}

func TestDefectivePaletteIndependentOfBeta(t *testing.T) {
	// The defective palette is O(1/α²) — it must not blow up with β.
	p8 := DefectiveSchedule(1<<20, 8, 0.5)
	p64 := DefectiveSchedule(1<<20, 64, 0.5)
	last := func(s []Step) int {
		if len(s) == 0 {
			return 1 << 20
		}
		return s[len(s)-1].ColorsOut()
	}
	if last(p64) > 4*last(p8) {
		t.Errorf("palette grows with β: β=8→%d, β=64→%d", last(p8), last(p64))
	}
}

func TestColorFromIDsProper(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []*graph.Graph{
		graph.Ring(64),
		graph.Grid(8, 8),
		graph.RandomRegular(60, 6, rng),
		graph.GNP(50, 0.15, rng),
		graph.CompleteKaryTree(3, 4),
	} {
		res, err := ColorFromIDs(g, sim.Config{})
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if err := graph.IsProperColoring(g, res.Colors); err != nil {
			t.Errorf("%v: %v", g, err)
		}
		delta := g.MaxDegree()
		if res.Palette > 16*(delta+1)*(delta+1) {
			t.Errorf("%v: palette %d not O(Δ²)", g, res.Palette)
		}
		if mc := graph.MaxColor(res.Colors); mc >= res.Palette {
			t.Errorf("%v: color %d outside palette %d", g, mc, res.Palette)
		}
		if res.Stats.Rounds > logstar.LogStar(g.N())+6 {
			t.Errorf("%v: %d rounds, want O(log* n)", g, res.Stats.Rounds)
		}
	}
}

// reduceProperOriented reduces a proper m-coloring of the oriented
// graph d to a proper Θ(β²)-coloring, where β = d.MaxBeta(): the
// proper schedule with out-neighbor conflict sets.
func reduceProperOriented(d *graph.Digraph, colors []int, m int) (Result, error) {
	return ReduceOn(new(sim.Engine), sim.NewOrientedNetwork(d), colors, m, ProperSchedule(m, d.MaxBeta()), true, sim.Config{})
}

func TestReduceProperOriented(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomRegular(80, 8, rng)
	d := graph.OrientByID(g) // β up to 8
	ids := make([]int, g.N())
	for v := range ids {
		ids[v] = v
	}
	res, err := reduceProperOriented(d, ids, g.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.IsProperColoring(g, res.Colors); err != nil {
		t.Errorf("oriented reduction not proper: %v", err)
	}
	beta := d.MaxBeta()
	if res.Palette > 16*(beta+1)*(beta+1) {
		t.Errorf("palette %d not O(β²) for β=%d", res.Palette, beta)
	}
	// Oriented palette should be much smaller than the Δ-based one when
	// β ≪ Δ.
	dg := graph.OrientByDegeneracy(graph.CompleteBipartite(3, 40))
	ids2 := make([]int, dg.N())
	for v := range ids2 {
		ids2[v] = v
	}
	res2, err := reduceProperOriented(dg, ids2, dg.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.IsProperColoring(dg.Underlying(), res2.Colors); err != nil {
		t.Error(err)
	}
	if res2.Palette > 16*(dg.MaxBeta()+1)*(dg.MaxBeta()+1) {
		t.Errorf("palette %d not O(β²), β=%d", res2.Palette, dg.MaxBeta())
	}
}

func TestReduceInputValidation(t *testing.T) {
	g := graph.Ring(4)
	nw := sim.NewNetwork(g)
	if _, err := ReduceOn(new(sim.Engine), nw, []int{0, 1}, 4, nil, false, sim.Config{}); err == nil {
		t.Error("accepted wrong color count")
	}
	if _, err := ReduceOn(new(sim.Engine), nw, []int{0, 1, 2, 9}, 4, nil, false, sim.Config{}); err == nil {
		t.Error("accepted out-of-range initial color")
	}
	if _, err := ReduceOn(new(sim.Engine), nw, []int{0, 1, 2, 3}, 4, nil, true, sim.Config{}); err == nil {
		t.Error("accepted avoidOut on unoriented network")
	}
	// An IMPROPER input coloring must be rejected whenever a reduction
	// step would actually run (the polynomial argument needs distinct
	// polynomials on neighbors).
	steps := ProperSchedule(4, g.MaxDegree())
	if len(steps) == 0 {
		steps = []Step{{Q: 3, Degree: 1, ColorsIn: 4}}
	}
	if _, err := ReduceOn(new(sim.Engine), nw, []int{0, 0, 1, 2}, 4, steps, false, sim.Config{}); err == nil {
		t.Error("accepted improper input coloring")
	}
}

func TestReduceEmptySchedule(t *testing.T) {
	g := graph.Ring(4)
	res, err := ReduceOn(new(sim.Engine), sim.NewNetwork(g), []int{0, 1, 0, 1}, 2, nil, false, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 0, 1}
	for v := range want {
		if res.Colors[v] != want[v] {
			t.Errorf("empty schedule changed colors: %v", res.Colors)
		}
	}
	if res.Palette != 2 {
		t.Errorf("Palette = %d, want 2", res.Palette)
	}
}

func TestReduceCongestCompliant(t *testing.T) {
	// Messages carry one color: O(log m) bits. Enforce a strict cap.
	g := graph.Ring(200)
	ids := make([]int, 200)
	for v := range ids {
		ids[v] = v
	}
	steps := ProperSchedule(200, g.MaxDegree())
	maxDomainBits := sim.BitsFor(200)
	for _, s := range steps {
		if b := sim.BitsFor(s.ColorsOut()); b > maxDomainBits {
			maxDomainBits = b
		}
	}
	_, err := ReduceOn(new(sim.Engine), sim.NewNetwork(g), ids, 200, steps, false, sim.Config{BandwidthBits: maxDomainBits})
	if err != nil {
		t.Errorf("reduction not CONGEST-compliant: %v", err)
	}
}

// TestReduceDriversAgree runs reductions under every driver, the
// workers driver also on two receiver ranges. A run's node scratch and
// outboxes are slices of per-run arrays, and the workers driver steps
// a round's nodes concurrently and routes their outboxes afterwards,
// so a slot two nodes shared would show here as a disagreement (or,
// under -race, as a race). On the G(n,p) graph the ids are already
// within the fixed-point palette and the schedule is empty; the ring
// reduces its ids in two proper steps, and the oriented graph in two
// defective steps with out-neighbor conflicts (the Lemma 3.4 split's
// protocol). Their odd node count puts a worker chunk boundary
// between two adjacent nodes at two and at four workers.
func TestReduceDriversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := graph.GNP(40, 0.2, rng)
	ring := graph.Ring(1001)
	d := graph.OrientByID(graph.RandomRegular(1001, 6, rng))
	runs := []struct {
		name string
		run  func(sim.Config) (Result, error)
	}{
		{"gnp from ids", func(cfg sim.Config) (Result, error) { return ColorFromIDs(g, cfg) }},
		{"ring from ids", func(cfg sim.Config) (Result, error) { return ColorFromIDs(ring, cfg) }},
		{"defective", func(cfg sim.Config) (Result, error) {
			steps := DefectiveSchedule(d.N(), d.MaxBeta(), 1)
			return ReduceOn(new(sim.Engine), sim.NewOrientedNetwork(d), graph.Vertices(d.N(), nil), d.N(), steps, true, cfg)
		}},
	}
	for _, r := range runs {
		a, err := r.run(sim.Config{Driver: sim.Lockstep})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		for _, cfg := range []sim.Config{{Driver: sim.Workers}, {Driver: sim.Workers, Shards: 2}} {
			b, err := r.run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			for v := range a.Colors {
				if a.Colors[v] != b.Colors[v] {
					t.Fatalf("%s, %d shards: drivers disagree at node %d: %d vs %d", r.name, cfg.Shards, v, a.Colors[v], b.Colors[v])
				}
			}
			if a.Stats != b.Stats {
				t.Errorf("%s, %d shards: driver stats differ: %+v vs %+v", r.name, cfg.Shards, a.Stats, b.Stats)
			}
		}
	}
}
