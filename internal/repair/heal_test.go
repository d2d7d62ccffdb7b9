package repair

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/sim"
)

// referenceHealLoop is a frozen copy of the pre-Topology undirected
// repair loop (full rescan of all n vertices every round): the oracle
// that pins the heal-core delegation as byte-for-byte
// behavior-preserving.
func referenceHealLoop(g *graph.Graph, inst *coloring.Instance, colors []int, budget int) (rounds, msgs, bits int) {
	n := g.N()
	colorBits := sim.BitsFor(inst.Space)
	conflicts := func(v int) int {
		c := 0
		for _, u := range g.Neighbors(v) {
			if colors[u] == colors[v] {
				c++
			}
		}
		return c
	}
	hardAt := func(v int) bool {
		allowed, ok := inst.DefectOf(v, colors[v])
		if !ok {
			return true
		}
		return conflicts(v) > allowed
	}
	recolor := func(v int) {
		list := inst.Lists[v]
		if len(list) == 0 {
			return
		}
		defects := inst.Defects[v]
		const maxInt = int(^uint(0) >> 1)
		bestX, bestExcess, bestConf := list[0], maxInt, maxInt
		for i, x := range list {
			colors[v] = x
			conf := conflicts(v)
			excess := conf - defects[i]
			if excess < 0 {
				excess = 0
			}
			if excess < bestExcess || (excess == bestExcess && conf < bestConf) {
				bestX, bestExcess, bestConf = x, excess, conf
			}
		}
		colors[v] = bestX
	}
	dirty := make([]bool, n)
	var dirtyIDs []int
	rescan := func() {
		dirtyIDs = dirtyIDs[:0]
		for v := 0; v < n; v++ {
			dirty[v] = hardAt(v)
			if dirty[v] {
				dirtyIDs = append(dirtyIDs, v)
			}
		}
	}
	rescan()
	for len(dirtyIDs) > 0 && rounds < budget {
		rounds++
		var eligible []int
		for _, v := range dirtyIDs {
			ok := true
			for _, u := range g.Neighbors(v) {
				if dirty[u] && u > v {
					ok = false
					break
				}
			}
			if ok {
				eligible = append(eligible, v)
			}
		}
		for _, v := range eligible {
			recolor(v)
			msgs += g.Degree(v)
			bits += g.Degree(v) * colorBits
		}
		rescan()
	}
	return rounds, msgs, bits
}

// damagedColoring returns a coloring where each node takes a random
// list color, and a few nodes are poisoned with an out-of-list color.
func damagedColoring(inst *coloring.Instance, rng *rand.Rand) []int {
	colors := make([]int, inst.N())
	for v := range colors {
		if len(inst.Lists[v]) == 0 {
			continue
		}
		colors[v] = inst.Lists[v][rng.Intn(len(inst.Lists[v]))]
		if rng.Intn(10) == 0 {
			colors[v] = inst.Space + 1 + rng.Intn(3)
		}
	}
	return colors
}

// TestHealMatchesReferenceLoop pins Heal (all vertices seeded) against
// the frozen pre-refactor loop across random graphs, instances, and
// damaged colorings: identical colors, rounds, and billing.
func TestHealMatchesReferenceLoop(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		g := graph.GNP(n, 0.05+rng.Float64()*0.2, rng)
		inst := coloring.DegreePlusOne(g, g.RawMaxDegree()+2+rng.Intn(5), rng)
		start := damagedColoring(inst, rng)

		want := append([]int(nil), start...)
		wantRounds, wantMsgs, wantBits := referenceHealLoop(g, inst, want, DefaultBudget(n))

		got := append([]int(nil), start...)
		hr := Heal(g, inst, got, HealOptions{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Heal colors diverge from reference loop", seed)
		}
		if hr.Rounds != wantRounds || hr.Messages != wantMsgs || hr.Bits != wantBits {
			t.Fatalf("seed %d: Heal (rounds=%d, msgs=%d, bits=%d), reference (%d, %d, %d)",
				seed, hr.Rounds, hr.Messages, hr.Bits, wantRounds, wantMsgs, wantBits)
		}
		if !hr.Converged {
			t.Fatalf("seed %d: deg+1 instance did not converge", seed)
		}
		if err := coloring.ValidateListDefective(g, inst, got); err != nil {
			t.Fatalf("seed %d: healed coloring invalid: %v", seed, err)
		}
	}
}

// TestHealTopologyGeneric runs the same heal on the adjacency-list
// graph and its CSR twin: the Topology abstraction must not leak into
// the schedule.
func TestHealTopologyGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := graph.GNP(40, 0.12, rng)
	inst := coloring.DegreePlusOne(g, g.RawMaxDegree()+3, rng)
	start := damagedColoring(inst, rng)

	a := append([]int(nil), start...)
	b := append([]int(nil), start...)
	ha := Heal(g, inst, a, HealOptions{})
	hb := Heal(graph.CSRFromGraph(g), inst, b, HealOptions{})
	if !reflect.DeepEqual(a, b) || ha != hb {
		t.Fatalf("Graph vs CSR heal diverged: %+v vs %+v", ha, hb)
	}
}

// TestHealLocalMatchesHeal is the locality contract: under random edge
// churn on an overlay, HealLocal seeded with only the dirty endpoints
// produces byte-identical colors — and an identical report modulo the
// scan count — to the global full-scan Heal, while scanning less.
func TestHealLocalMatchesHeal(t *testing.T) {
	base := graph.StreamedGNP(60, 0.08, 5)
	ov := graph.NewOverlay(base)
	n := ov.N()
	// Shared palette with generous headroom so churned degrees stay
	// below the list size and repair never needs a fallback.
	space := 2*base.RawMaxDegree() + 8
	inst := &coloring.Instance{Space: space, Lists: make([][]int, n), Defects: make([][]int, n)}
	full := make([]int, space)
	for i := range full {
		full[i] = i
	}
	zeros := make([]int, space)
	for v := 0; v < n; v++ {
		inst.Lists[v] = full
		inst.Defects[v] = zeros
	}

	colors := GreedyColors(ov, inst)
	if hr := Heal(ov, inst, colors, HealOptions{}); !hr.Converged {
		t.Fatalf("initial coloring did not converge: %+v", hr)
	}

	rng := rand.New(rand.NewSource(11))
	totalLocal, totalGlobal := 0, 0
	for batch := 0; batch < 30; batch++ {
		var dirty []int
		for op := 0; op < 5; op++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if ov.HasEdge(u, v) {
				ov.RemoveEdge(u, v)
				dirty = append(dirty, u, v)
			} else if ov.Degree(u) < space-2 && ov.Degree(v) < space-2 {
				if err := ov.AddEdge(u, v); err != nil {
					t.Fatalf("batch %d AddEdge: %v", batch, err)
				}
				dirty = append(dirty, u, v)
			}
		}
		local := append([]int(nil), colors...)
		global := append([]int(nil), colors...)
		hl := HealLocal(ov, inst, local, dirty, HealOptions{})
		hg := Heal(ov, inst, global, HealOptions{})
		if !reflect.DeepEqual(local, global) {
			t.Fatalf("batch %d: HealLocal colors diverge from global Heal", batch)
		}
		if hl.Rounds != hg.Rounds || hl.Recolored != hg.Recolored ||
			hl.Fallbacks != hg.Fallbacks || hl.Messages != hg.Messages || hl.Bits != hg.Bits {
			t.Fatalf("batch %d: reports diverge: local %+v, global %+v", batch, hl, hg)
		}
		if !hl.Converged || hl.Fallbacks != 0 {
			t.Fatalf("batch %d: local heal converged=%v fallbacks=%d", batch, hl.Converged, hl.Fallbacks)
		}
		if hl.Scanned > hg.Scanned {
			t.Fatalf("batch %d: frontier scanned %d > global %d", batch, hl.Scanned, hg.Scanned)
		}
		totalLocal += hl.Scanned
		totalGlobal += hg.Scanned
		colors = local
		if err := coloring.ValidateListDefective(ov.Graph(), inst, colors); err != nil {
			t.Fatalf("batch %d: maintained coloring invalid: %v", batch, err)
		}
	}
	if totalLocal*2 > totalGlobal {
		t.Errorf("frontier saved too little: local scans %d vs global %d", totalLocal, totalGlobal)
	}
}

// TestGreedyColorsInitializer checks the service initializer: greedy
// alone is valid on proper deg+1 instances, greedy+Heal is valid on
// defective ones, and on a large ring greedy needs no repair at all
// (the first-list baseline would recolor one node per round there).
func TestGreedyColorsInitializer(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.GNP(80, 0.1, rng)
	inst := coloring.DegreePlusOne(g, g.RawMaxDegree()+4, rng)
	colors := GreedyColors(g, inst)
	if err := coloring.ValidateListDefective(g, inst, colors); err != nil {
		t.Fatalf("greedy on proper deg+1 lists invalid: %v", err)
	}
	if hr := Heal(g, inst, colors, HealOptions{}); hr.Rounds != 0 || !hr.Converged {
		t.Fatalf("valid greedy coloring still triggered repair: %+v", hr)
	}

	// Defective instance: short lists, budget 1 per color. Greedy can
	// leave early nodes over budget; Heal must finish the job.
	n := 60
	gd := graph.GNP(n, 0.15, rng)
	instD := &coloring.Instance{Space: 8, Lists: make([][]int, n), Defects: make([][]int, n)}
	for v := 0; v < n; v++ {
		k := 3 + gd.Degree(v)/2
		if k > 8 {
			k = 8
		}
		list := make([]int, k)
		defs := make([]int, k)
		for i := range list {
			list[i] = (v + i) % 8
			defs[i] = 1
		}
		instD.Lists[v] = list
		instD.Defects[v] = defs
	}
	colorsD := GreedyColors(gd, instD)
	hr := Heal(gd, instD, colorsD, HealOptions{})
	if hr.Converged {
		if err := coloring.ValidateListDefective(gd, instD, colorsD); err != nil {
			t.Fatalf("converged but invalid: %v", err)
		}
	}

	ring := graph.StreamedRing(5000)
	ri := &coloring.Instance{Space: 3, Lists: make([][]int, 5000), Defects: make([][]int, 5000)}
	for v := 0; v < 5000; v++ {
		ri.Lists[v] = []int{0, 1, 2}
		ri.Defects[v] = []int{0, 0, 0}
	}
	rc := GreedyColors(ring, ri)
	if hr := Heal(ring, ri, rc, HealOptions{}); hr.Rounds != 0 {
		t.Fatalf("greedy ring coloring needed %d repair rounds", hr.Rounds)
	}
}

// TestHealSeedHygiene: out-of-range and duplicate seeds are ignored,
// an empty seed set is a no-op, and mismatched lengths return a zero
// report instead of panicking.
func TestHealSeedHygiene(t *testing.T) {
	g := graph.Ring(8)
	inst := coloring.DegreePlusOne(g, 4, rand.New(rand.NewSource(1)))
	colors := GreedyColors(g, inst)
	hr := HealLocal(g, inst, colors, []int{-3, 2, 2, 99, 2}, HealOptions{})
	if hr.Scanned != 1 || hr.Rounds != 0 || !hr.Converged {
		t.Fatalf("seed hygiene: %+v", hr)
	}
	if hr := HealLocal(g, inst, colors, nil, HealOptions{}); !hr.Converged || hr.Scanned != 0 {
		t.Fatalf("empty seeds: %+v", hr)
	}
	if hr := Heal(g, inst, make([]int, 3), HealOptions{}); hr.Converged || hr.Rounds != 0 {
		t.Fatalf("length mismatch not rejected: %+v", hr)
	}
}

// classifyReference is the service's pre-repair classification loop
// as it stood before the heal entry scan took it over: over the
// distinct in-range seeds, the conflicts of every node whose color is
// on its list and within that color's budget. It returns the distinct
// seed count and the absorbed conflicts.
func classifyReference(topo Topology, inst *coloring.Instance, colors, seeds []int) (distinct, absorbed int) {
	seen := make(map[int]bool)
	for _, v := range seeds {
		if v < 0 || v >= topo.N() || seen[v] {
			continue
		}
		seen[v] = true
		conf := 0
		for _, u := range topo.Neighbors(v) {
			if colors[u] == colors[v] {
				conf++
			}
		}
		if allowed, ok := inst.DefectOf(v, colors[v]); ok && conf <= allowed {
			absorbed += conf
		}
	}
	return len(seen), absorbed
}

// TestHealScratchReuse replays one random churn sequence with nonzero
// defect budgets twice — once lending a single scratch to every
// HealLocal call, once with a fresh scratch per call — and requires
// identical colors and reports after every call, including calls that
// run out of a small round budget. The lent scratch must be all-false
// after each run, the entry scan's seed and absorbed counts must
// match the classification loop it replaced, and the scratch's
// recorded ids must be one per recolor and cover every changed color,
// on every batch.
func TestHealScratchReuse(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := graph.StreamedGNP(300, 0.03, seed)
		ov := graph.NewOverlay(base)
		n, space := ov.N(), 6
		// randomList draws a sorted list of 2..space colors with
		// budgets in [0, 2].
		randomList := func() ([]int, []int) {
			var list, defects []int
			for x := 0; x < space; x++ {
				if rng.Intn(3) > 0 {
					list = append(list, x)
					defects = append(defects, rng.Intn(3))
				}
			}
			if len(list) < 2 {
				return []int{0, 1}, []int{1, 2}
			}
			return list, defects
		}
		inst := &coloring.Instance{Space: space, Lists: make([][]int, n), Defects: make([][]int, n)}
		for v := 0; v < n; v++ {
			inst.Lists[v], inst.Defects[v] = randomList()
		}
		lent := append([]int(nil), GreedyColors(ov, inst)...)
		fresh := append([]int(nil), lent...)
		var sc HealScratch
		var absorbedSeen, exhausted bool
		for batch := 0; batch < 60; batch++ {
			var seeds []int
			for op := 0; op < 8; op++ {
				u, v := rng.Intn(n), rng.Intn(n)
				switch {
				case u == v:
					// A list change: the node may now hold an off-list color.
					inst.Lists[u], inst.Defects[u] = randomList()
					seeds = append(seeds, u)
				case ov.HasEdge(u, v):
					ov.RemoveEdge(u, v)
					seeds = append(seeds, u, v)
				default:
					if err := ov.AddEdge(u, v); err != nil {
						t.Fatalf("seed %d batch %d AddEdge: %v", seed, batch, err)
					}
					seeds = append(seeds, u, v, u)
				}
			}
			seeds = append(seeds, -1, n+3)
			budget := []int{0, 1, 2}[batch%3]

			wantSeeds, wantAbsorbed := classifyReference(ov, inst, lent, seeds)
			prev := append([]int(nil), lent...)
			hl := HealLocal(ov, inst, lent, seeds, HealOptions{RoundBudget: budget, Scratch: &sc})
			hf := HealLocal(ov, inst, fresh, seeds, HealOptions{RoundBudget: budget})
			if !reflect.DeepEqual(lent, fresh) {
				t.Fatalf("seed %d batch %d: lent-scratch colors diverge from fresh-scratch colors", seed, batch)
			}
			if hl != hf {
				t.Fatalf("seed %d batch %d: reports diverge: lent %+v, fresh %+v", seed, batch, hl, hf)
			}
			if hl.Seeds != wantSeeds || hl.Absorbed != wantAbsorbed {
				t.Fatalf("seed %d batch %d: entry scan seeds %d absorbed %d, classification loop %d and %d",
					seed, batch, hl.Seeds, hl.Absorbed, wantSeeds, wantAbsorbed)
			}
			if got := len(sc.Recolored()); got != hl.Recolored {
				t.Fatalf("seed %d batch %d: scratch recorded %d recolors, report says %d", seed, batch, got, hl.Recolored)
			}
			for v := range lent {
				if lent[v] != prev[v] && !slices.Contains(sc.Recolored(), v) {
					t.Fatalf("seed %d batch %d: node %d changed color but is not among the recorded ids", seed, batch, v)
				}
			}
			for v := range sc.hard {
				if sc.hard[v] || sc.mark[v] {
					t.Fatalf("seed %d batch %d: scratch entry %d left set (hard %v, mark %v)", seed, batch, v, sc.hard[v], sc.mark[v])
				}
			}
			absorbedSeen = absorbedSeen || hl.Absorbed > 0
			exhausted = exhausted || (budget > 0 && !hl.Converged)
		}
		if !absorbedSeen || !exhausted {
			t.Fatalf("seed %d: sequence too tame (absorbed seen %v, budget exhausted %v)", seed, absorbedSeen, exhausted)
		}
	}
}

// allocBytes reports the bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHealLocalScratchAllocs guards the lent scratch: a seeded heal on
// a 5·10⁵-node ring must cost O(frontier) memory, not the 2·n bytes of
// hardness flags and candidate marks a fresh scratch takes.
func TestHealLocalScratchAllocs(t *testing.T) {
	const n = 500_000
	ring := graph.StreamedRing(n)
	inst := &coloring.Instance{Space: 3, Lists: make([][]int, n), Defects: make([][]int, n)}
	for v := range inst.Lists {
		inst.Lists[v], inst.Defects[v] = []int{0, 1, 2}, []int{0, 0, 0}
	}
	colors := GreedyColors(ring, inst)
	var sc HealScratch
	damage := func() []int {
		var seeds []int
		for i := 1; i <= 5; i++ {
			v := i * (n / 7)
			colors[v] = colors[v+1]
			seeds = append(seeds, v, v+1)
		}
		return seeds
	}
	HealLocal(ring, inst, colors, damage(), HealOptions{Scratch: &sc}) // size the scratch
	seeds := damage()
	var hr HealReport
	got := allocBytes(func() {
		hr = HealLocal(ring, inst, colors, seeds, HealOptions{Scratch: &sc})
	})
	if hr.Seeds != 10 || hr.Hard == 0 || !hr.Converged {
		t.Fatalf("damage not healed as expected: %+v", hr)
	}
	if got >= 64<<10 {
		t.Fatalf("HealLocal with a lent scratch allocated %d bytes on %d nodes, want < 64 KiB", got, n)
	}
}
