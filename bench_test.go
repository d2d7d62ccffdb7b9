package listcolor

// One testing.B benchmark per experiment of DESIGN.md's index (E1–E12)
// plus micro-benchmarks of the substrate. Each benchmark reports the
// simulated round count via b.ReportMetric so `go test -bench` output
// doubles as a compact reproduction record; cmd/benchtab produces the
// full tables.

import (
	"math"
	"math/rand"
	"testing"

	"listcolor/internal/baseline"
	"listcolor/internal/bench"
	"listcolor/internal/classic"
	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/nbhood"
	"listcolor/internal/sim"
	"listcolor/internal/twosweep"
)

func benchGraph(b *testing.B, n, deg int) (*Graph, *Digraph, []int, int) {
	b.Helper()
	g := NewRandomRegular(n, deg, 1)
	d := OrientByID(g)
	base, err := LinialColor(g, Config{})
	if err != nil {
		b.Fatal(err)
	}
	return g, d, base.Colors, base.Palette
}

// BenchmarkTwoSweepRounds is E1: Algorithm 1 on a fixed workload;
// rounds are exactly 2q+1.
func BenchmarkTwoSweepRounds(b *testing.B) {
	_, d, base, q := benchGraph(b, 256, 8)
	p := 2
	inst := NewMinSlackInstance(d, 4*p*p+16, p, 0, 2)
	b.ReportAllocs()
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := TwoSweep(d, inst, base, q, p, Config{})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkTwoSweepDefect is E2: minimum-slack adversarial instances,
// validation included in the measured loop.
func BenchmarkTwoSweepDefect(b *testing.B) {
	g, d, base, q := benchGraph(b, 128, 6)
	_ = g
	p := 3
	inst := NewMinSlackInstance(d, 4*p*p+20, p, 0, 3)
	for i := 0; i < b.N; i++ {
		res, err := TwoSweep(d, inst, base, q, p, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := ValidateOLDC(d, inst, res.Colors); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFastTwoSweep runs Algorithm 2 (ε > 0) at two shapes:
//   - E3: Fast-Two-Sweep from node ids on a large-q input;
//   - solve-wide: perfbench's solve-wide op, Linial from ids then
//     Fast-Two-Sweep with p = 2, ε = 1 on MinSlackOriented lists over
//     4p²+24 colors, round-robin over a pool of distinct 1000-node
//     4-regular graphs. Its time is mostly the engine's round loop
//     and node steps.
func BenchmarkFastTwoSweep(b *testing.B) {
	b.Run("E3/n=1024,deg=6", func(b *testing.B) {
		n := 1024
		g := NewRandomRegular(n, 6, 4)
		d := OrientByID(g)
		ids := make([]int, n)
		for v := range ids {
			ids[v] = v
		}
		p, eps := 2, 1.0
		inst := NewMinSlackInstance(d, 4*p*p+24, p, eps, 5)
		var rounds int
		for i := 0; i < b.N; i++ {
			res, err := TwoSweepFast(d, inst, ids, n, p, eps, Config{})
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Stats.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
		b.ReportMetric(float64(2*n+1), "plain-rounds")
	})
	b.Run("solve-wide/n=1000,deg=4", func(b *testing.B) {
		const n, deg, pool, p, eps = 1000, 4, 24, 2, 1.0
		type instance struct {
			g    *Graph
			d    *Digraph
			inst *Instance
		}
		insts := make([]instance, pool)
		for k := range insts {
			g := NewRandomRegular(n, deg, int64(k)+1)
			d := OrientByID(g)
			insts[k] = instance{g, d, NewMinSlackInstance(d, 4*p*p+24, p, eps, int64(k)+1)}
		}
		b.ReportAllocs()
		b.ResetTimer()
		rounds := 0
		for i := 0; i < b.N; i++ {
			in := insts[i%pool]
			lin, err := LinialColor(in.g, Config{})
			if err != nil {
				b.Fatal(err)
			}
			res, err := TwoSweepFast(in.d, in.inst, lin.Colors, lin.Palette, p, eps, Config{})
			if err != nil {
				b.Fatal(err)
			}
			rounds += lin.Stats.Rounds + res.Stats.Rounds
		}
		b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	})
}

// BenchmarkColorSpaceReduction is E4, swept over C.
func BenchmarkColorSpaceReduction(b *testing.B) {
	for _, c := range []int{64, 1024} {
		c := c
		b.Run("C="+itoa(c), func(b *testing.B) {
			g, d, base, q := benchGraph(b, 64, 6)
			rng := rand.New(rand.NewSource(6))
			inst := coloring.WithOrientedSlack(d, c, 3*math.Sqrt(float64(c)), rng)
			_ = g
			var rounds, bits int
			for i := 0; i < b.N; i++ {
				res, err := ReduceColorSpace(d, inst, base, q, Config{})
				if err != nil {
					b.Fatal(err)
				}
				rounds, bits = res.Stats.Rounds, res.Stats.MaxMessageBits
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(bits), "max-msg-bits")
		})
	}
}

// BenchmarkDegPlusOne is E5, swept over Δ, plus two shapes of the
// (deg+1)-list pipeline's own cost:
//   - solve-deep: perfbench's solve-deep shape (500-node 16-regular,
//     C = 33, a span installed), where the Lemma 3.4 split returns
//     one class per node, so per-class bookkeeping sets the cost;
//   - split: n = 20,000 at Δ = 16, where the split engages (OLDC
//     calls < n) and classes hold many nodes each.
func BenchmarkDegPlusOne(b *testing.B) {
	run := func(b *testing.B, g *Graph, space int, spanned bool) {
		inst := NewDegreePlusOneInstance(g, space, 8)
		var res DegPlusOneResult
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := Config{}
			if spanned {
				cfg.Span = NewSpan("deltaplus1")
			}
			var err error
			if res, err = ColorDegPlusOne(g, inst, cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Stats.Rounds), "rounds")
		b.ReportMetric(float64(res.OLDCCalls), "oldc-calls")
	}
	for _, deg := range []int{4, 8, 16} {
		deg := deg
		b.Run("delta="+itoa(deg), func(b *testing.B) {
			run(b, NewRandomRegular(32*deg, deg, 7), deg+1, false)
		})
	}
	b.Run("solve-deep/n=500,delta=16", func(b *testing.B) {
		run(b, NewRandomRegular(500, 16, 7), 33, true)
	})
	b.Run("split/n=20000,delta=16", func(b *testing.B) {
		run(b, NewRandomRegular(20_000, 16, 7), 33, false)
	})
}

// BenchmarkLocalComputation is E6: the Phase-I selection, sort vs the
// [MT20, FK23a]-style exhaustive subset search, swept over the list
// size Λ.
func BenchmarkLocalComputation(b *testing.B) {
	for _, lambda := range []int{8, 16, 20} {
		lambda := lambda
		list := make([]int, lambda)
		defects := make([]int, lambda)
		k := make(map[int]int)
		rng := rand.New(rand.NewSource(9))
		for i := range list {
			list[i] = i * 2
			defects[i] = rng.Intn(8)
			k[list[i]] = rng.Intn(5)
		}
		b.Run("sort/lambda="+itoa(lambda), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				baseline.SelectSort(list, defects, k, 3)
			}
		})
		b.Run("bruteforce/lambda="+itoa(lambda), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.SelectBruteForce(list, defects, k, 3)
			}
		})
	}
}

// BenchmarkDefectiveFromArb is E7: Theorem 1.4 on a line graph (θ≤2).
func BenchmarkDefectiveFromArb(b *testing.B) {
	lg, _ := LineGraph(NewRandomRegular(14, 3, 10))
	base, err := LinialColor(lg, Config{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	theta, s := 2, 2
	need := nbhood.Theorem14Slack(theta, lg.MaxDegree(), s)
	inst := coloring.WithSlack(lg, 2*need*lg.MaxDegree()+40, float64(need)+1, rng)
	arb := nbhood.ArbSlack2Solver(theta, sim.Config{})
	var rounds int
	for i := 0; i < b.N; i++ {
		colors, stats, err := nbhood.DefectiveFromArb(new(sim.Engine), graph.CSRFromGraph(lg), inst, base.Colors, base.Palette, theta, s, arb)
		if err != nil {
			b.Fatal(err)
		}
		if err := coloring.ValidateListDefective(lg, inst, colors); err != nil {
			b.Fatal(err)
		}
		rounds = stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkNbhoodRecursion is E8: the full Theorem 1.5 pipeline via
// (2Δ−1)-edge coloring.
func BenchmarkNbhoodRecursion(b *testing.B) {
	g := NewComplete(6)
	var rounds int
	for i := 0; i < b.N; i++ {
		_, _, stats, err := EdgeColor(g, Config{})
		if err != nil {
			b.Fatal(err)
		}
		rounds = stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkThreeColorDefective is E9.
func BenchmarkThreeColorDefective(b *testing.B) {
	g := NewRing(1024)
	d := OrientByID(g)
	base, err := LinialColor(g, Config{})
	if err != nil {
		b.Fatal(err)
	}
	inst := coloring.ThreeColor(g.N(), d.MaxBeta())
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := TwoSweep(d, inst, base.Colors, base.Palette, 1, Config{})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkBoundedOutdegreeList is E10: zero-defect lists of size
// β²+β+1 on a degeneracy-oriented graph.
func BenchmarkBoundedOutdegreeList(b *testing.B) {
	g := NewGrid(12, 12)
	d := OrientByDegeneracy(g)
	beta := d.MaxBeta()
	p := beta + 1
	base, err := LinialColor(g, Config{})
	if err != nil {
		b.Fatal(err)
	}
	listSize := beta*beta + beta + 1
	inst := NewUniformInstance(g.N(), 4*listSize+8, listSize, 0, 12)
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := TwoSweep(d, inst, base.Colors, base.Palette, p, Config{})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkSlackReduction is E11: Lemma 4.4 with the real slack-2
// subroutine plugged in.
func BenchmarkSlackReduction(b *testing.B) {
	g := NewRing(64)
	base, err := LinialColor(g, Config{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	inst := coloring.WithSlack(g, 64, 4.5, rng)
	arb := nbhood.ArbSlack2Solver(2, sim.Config{})
	var rounds int
	for i := 0; i < b.N; i++ {
		res, stats, err := nbhood.SlackReduce2(new(sim.Engine), graph.CSRFromGraph(g), inst, base.Colors, base.Palette, 4, arb, sim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := ValidateListArbdefective(g, inst, res); err != nil {
			b.Fatal(err)
		}
		rounds = stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkBaselines is E12: the comparison algorithms on a shared
// workload.
func BenchmarkBaselines(b *testing.B) {
	g := NewRandomRegular(200, 6, 14)
	inst := NewDegreePlusOneInstance(g, 7, 15)
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := GreedyList(g, inst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("luby", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			_, stats, err := LubyColor(g, int64(i), Config{})
			if err != nil {
				b.Fatal(err)
			}
			rounds = stats.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("paper", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			res, err := ColorDegPlusOne(g, inst, Config{})
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Stats.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkClassicSweeps is E13: the classical single-sweep and
// product constructions.
func BenchmarkClassicSweeps(b *testing.B) {
	g := NewRandomRegular(100, 8, 17)
	base, err := LinialColor(g, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("single-sweep-arb", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			_, _, _, stats, err := classic.SweepArb(g, base.Colors, base.Palette, 2, sim.Config{})
			if err != nil {
				b.Fatal(err)
			}
			rounds = stats.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("product-defective", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			_, stats, err := classic.ProductDefective(g, base.Colors, base.Palette, 3, sim.Config{})
			if err != nil {
				b.Fatal(err)
			}
			rounds = stats.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkUDGTheta is E14: the bounded-θ recursion vs the general
// solver on a unit-disk workload.
func BenchmarkUDGTheta(b *testing.B) {
	gg := NewRandomGeometric(120, 0.1, 18)
	inst := NewDegreePlusOneInstance(gg.Graph, gg.MaxDegree()+1, 19)
	b.Run("theta5", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			res, err := SolveNeighborhood(gg.Graph, inst, 5, Config{})
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Stats.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("general", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			res, err := SolveArbdefective(gg.Graph, inst, Config{})
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Stats.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkSelectorsEndToEnd is E15: the full Two-Sweep protocol under
// both Phase-I selection strategies; the reported local-op metrics are
// deterministic.
func BenchmarkSelectorsEndToEnd(b *testing.B) {
	g := NewRandomRegular(60, 4, 20)
	d := OrientByID(g)
	base, err := LinialColor(g, Config{})
	if err != nil {
		b.Fatal(err)
	}
	p := 3
	inst := NewMinSlackInstance(d, 4*p*p+16, p, 0, 21)
	b.Run("sort", func(b *testing.B) {
		var ops int64
		for i := 0; i < b.N; i++ {
			res, err := twosweep.SolveWithSelector(d, inst, base.Colors, base.Palette, p, twosweep.SortSelector, sim.Config{})
			if err != nil {
				b.Fatal(err)
			}
			ops = res.LocalOps
		}
		b.ReportMetric(float64(ops), "local-ops")
	})
	b.Run("subset-search", func(b *testing.B) {
		var ops int64
		for i := 0; i < b.N; i++ {
			res, err := twosweep.SolveWithSelector(d, inst, base.Colors, base.Palette, p, baseline.SubsetSelector, sim.Config{})
			if err != nil {
				b.Fatal(err)
			}
			ops = res.LocalOps
		}
		b.ReportMetric(float64(ops), "local-ops")
	})
}

// BenchmarkSimulatorDrivers micro-benchmarks the engine itself:
// lockstep vs the worker pool on the Linial protocol.
func BenchmarkSimulatorDrivers(b *testing.B) {
	g := NewRandomRegular(512, 8, 16)
	b.Run("lockstep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := LinialColor(g, Config{Driver: Lockstep}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := LinialColor(g, Config{Driver: Workers}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHarnessQuick runs the entire experiment harness in quick
// mode — the one-stop reproduction benchmark.
func BenchmarkHarnessQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := bench.All(bench.Options{Seed: 1, Quick: true})
		if len(tables) != len(bench.Registry()) {
			b.Fatal("harness incomplete")
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestBenchWorkloadsValid is a plain test guarding the benchmark
// workloads: every benchmark's precondition must hold so `-bench` runs
// never fail mid-flight.
func TestBenchWorkloadsValid(t *testing.T) {
	g := NewRandomRegular(256, 8, 1)
	d := OrientByID(g)
	inst := NewMinSlackInstance(d, 32, 2, 0, 2)
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	lg, _ := LineGraph(NewRandomRegular(14, 3, 10))
	if theta := NeighborhoodIndependence(lg); theta > 2 {
		t.Fatalf("line graph θ = %d > 2", theta)
	}
	_ = graph.CountColors // anchor the internal import used above
}
