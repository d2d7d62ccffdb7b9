package bench

import (
	"fmt"
	"math"
	"math/rand"

	"listcolor/internal/baseline"
	"listcolor/internal/coloring"
	"listcolor/internal/csr"
	"listcolor/internal/graph"
	"listcolor/internal/linial"
	"listcolor/internal/logstar"
	"listcolor/internal/palette"
	"listcolor/internal/sim"
	"listcolor/internal/stats"
	"listcolor/internal/twosweep"
	"listcolor/internal/workload"
)

// bootstrap is the cached Linial bootstrap of a shared graph: the
// proper base coloring every oriented experiment starts from. Cells
// share it read-only through the workload cache, so a graph reused by
// several cells (or experiments) pays for one simulator bootstrap.
type bootstrap struct {
	colors []int
	q      int
	stats  sim.Result
}

// properBase computes (or fetches) the standard Linial bootstrap
// coloring of a shared graph; harness helpers panic on unexpected
// errors because workloads are constructed to satisfy every
// precondition.
func (opt Options) properBase(g *graph.Graph) ([]int, int, sim.Result) {
	b := opt.Cache.Derived(g, "linial-bootstrap", func() any {
		res, err := linial.ColorFromIDs(g, sim.Config{})
		if err != nil {
			panic(fmt.Sprintf("bench: bootstrap: %v", err))
		}
		return bootstrap{res.Colors, res.Palette, res.Stats}
	}).(bootstrap)
	return b.colors, b.q, b.stats
}

// orientRandom returns the shared random orientation of a cached
// graph. seed must be a pure function of the graph's cache key (not
// of the requesting cell), so every cell sharing the graph derives
// the identical orientation no matter which one materializes it.
func (opt Options) orientRandom(g *graph.Graph, seed int64) *graph.Digraph {
	return opt.Cache.Derived(g, "orient:random", func() any {
		return graph.OrientRandom(g, rand.New(rand.NewSource(seed)))
	}).(*graph.Digraph)
}

// RunE1 verifies Lemma 3.3: the Two-Sweep algorithm takes exactly
// 2q+1 rounds and always produces a valid OLDC.
func RunE1(opt Options) Table {
	t := Table{
		ID:      "E1",
		Title:   "Two-Sweep rounds vs q",
		Claim:   "Algorithm 1 solves OLDC in O(q) rounds (exactly 2q+1 in this implementation)",
		Columns: []string{"graph", "n", "β", "q", "rounds", "2q+1", "valid"},
	}
	sizes := []int{64, 128, 256, 512}
	if opt.Quick {
		sizes = []int{64, 128}
	}
	var cells []Cell
	for _, n := range sizes {
		for _, deg := range []int{4, 8} {
			cells = append(cells, Cell{
				Name: fmt.Sprintf("regular(%d,%d)", n, deg),
				Run: func(seed int64) CellOut {
					rng := rand.New(rand.NewSource(seed))
					g := opt.cachedGraph("regular", workload.Params{N: n, Degree: deg}, 0)
					d := opt.orientID(g)
					base, q, _ := opt.properBase(g)
					p := 2
					inst := coloring.MinSlackOriented(d, 4*p*p+16, p, 0, rng)
					res, err := twosweep.Solve(d, inst, base, q, p, sim.Config{})
					if err != nil {
						panic(err)
					}
					valid := coloring.ValidateOLDC(d, inst, res.Colors) == nil
					return CellOut{Rows: [][]string{{
						fmt.Sprintf("regular(%d,%d)", n, deg), itoa(n), itoa(d.MaxBeta()),
						itoa(q), itoa(res.Stats.Rounds), itoa(2*q + 1), btoa(valid),
					}}}
				},
			})
		}
	}
	t.Rows = rowsOf(RunCells(opt, "E1", cells))
	t.Notes = "rounds match 2q+1 exactly; q = Linial palette of the bootstrap coloring"
	return t
}

// RunE2 stresses Lemma 3.2 at the minimum slack Equation (2) allows:
// the realized worst defect never exceeds the allowed one.
func RunE2(opt Options) Table {
	t := Table{
		ID:      "E2",
		Title:   "Two-Sweep defect guarantee at minimum slack",
		Claim:   "every node ends with ≤ d_v(x_v) same-colored out-neighbors (Lemma 3.2)",
		Columns: []string{"graph", "p", "min slackΣ", "worst excess", "valid"},
	}
	trials := 6
	if opt.Quick {
		trials = 3
	}
	var cells []Cell
	for trial := 0; trial < trials; trial++ {
		cells = append(cells, Cell{
			Name: fmt.Sprintf("gnp(80,0.1)#%d", trial),
			Run: func(seed int64) CellOut {
				rng := rand.New(rand.NewSource(seed))
				p := 1 + trial%3
				gp := workload.Params{N: 80, Prob: 0.1}
				// variant = trial: each trial draws its own G(n,p).
				g := opt.cachedGraph("gnp", gp, int64(trial))
				d := opt.orientRandom(g, GraphSeed(opt.Seed, "gnp/orient", gp, int64(trial)))
				base, q, _ := opt.properBase(g)
				inst := coloring.MinSlackOriented(d, 4*p*p+30, p, 0, rng)
				res, err := twosweep.Solve(d, inst, base, q, p, sim.Config{})
				if err != nil {
					panic(err)
				}
				worstExcess := math.MinInt32
				minSlack := math.MaxInt32
				for v := 0; v < g.N(); v++ {
					if s := inst.SlackSum(v); s < minSlack {
						minSlack = s
					}
					allowed, _ := inst.DefectOf(v, res.Colors[v])
					conflicts := 0
					for _, u := range d.Out(v) {
						if res.Colors[u] == res.Colors[v] {
							conflicts++
						}
					}
					if e := conflicts - allowed; e > worstExcess {
						worstExcess = e
					}
				}
				valid := coloring.ValidateOLDC(d, inst, res.Colors) == nil
				return CellOut{Rows: [][]string{{
					fmt.Sprintf("gnp(80,0.1)#%d", trial), itoa(p), itoa(minSlack),
					itoa(worstExcess), btoa(valid),
				}}}
			},
		})
	}
	t.Rows = rowsOf(RunCells(opt, "E2", cells))
	t.Notes = "worst excess ≤ 0 means every node is within its allowed defect"
	return t
}

// RunE3 measures the Fast-Two-Sweep crossover: for large q the ε > 0
// path beats the plain 2q+1 sweep, with rounds tracking
// (p/ε)² + log* q.
func RunE3(opt Options) Table {
	t := Table{
		ID:      "E3",
		Title:   "Fast-Two-Sweep rounds vs plain sweep",
		Claim:   "O(min{q, (p/ε)² + log* q}) rounds (Theorem 1.1)",
		Columns: []string{"n(=q)", "p", "ε", "plain 2q+1", "fast rounds", "(p/ε)²+log*q", "fast wins"},
	}
	sizes := []int{200, 800, 3200}
	if opt.Quick {
		sizes = []int{200, 800}
	}
	var cells []Cell
	for _, n := range sizes {
		cells = append(cells, Cell{
			Name: fmt.Sprintf("regular(%d,6)", n),
			Run: func(seed int64) CellOut {
				rng := rand.New(rand.NewSource(seed))
				g := opt.cachedGraph("regular", workload.Params{N: n, Degree: 6}, 0)
				d := opt.orientID(g)
				// Use raw ids as the initial proper coloring so q = n is large
				// and the defective-preprocessing path genuinely pays off.
				ids := make([]int, n)
				for v := range ids {
					ids[v] = v
				}
				p, eps := 2, 1.0
				inst := coloring.MinSlackOriented(d, 4*p*p+24, p, eps, rng)
				res, err := twosweep.SolveFast(d, inst, ids, n, p, eps, sim.Config{})
				if err != nil {
					panic(err)
				}
				if err := coloring.ValidateOLDC(d, inst, res.Colors); err != nil {
					panic(err)
				}
				bound := int(float64(p*p)/(eps*eps)) + logstar.LogStar(n)
				return CellOut{Rows: [][]string{{
					itoa(n), itoa(p), ftoa(eps), itoa(2*n + 1), itoa(res.Stats.Rounds),
					itoa(bound), btoa(res.Stats.Rounds < 2*n+1),
				}}}
			},
		})
	}
	t.Rows = rowsOf(RunCells(opt, "E3", cells))
	t.Notes = "fast rounds stay flat while the plain sweep grows linearly in q"
	return t
}

// RunE4 validates Theorem 1.2: rounds grow like log³C while message
// sizes stay at O(log q + log C) bits.
func RunE4(opt Options) Table {
	t := Table{
		ID:      "E4",
		Title:   "Color space reduction scaling in C",
		Claim:   "O(log³C + log* q) rounds, O(log q + log C)-bit messages (Theorem 1.2)",
		Columns: []string{"C", "rounds", "rounds/log³C", "max msg bits", "log q+log C", "valid"},
	}
	spaces := []int{16, 64, 256, 1024, 4096}
	if opt.Quick {
		spaces = []int{16, 256}
	}
	var cells []Cell
	for _, c := range spaces {
		cells = append(cells, Cell{
			Name: fmt.Sprintf("C=%d", c),
			Run: func(seed int64) CellOut {
				rng := rand.New(rand.NewSource(seed))
				// One regular(60,6) graph and one bootstrap shared by
				// every C cell through the cache.
				g := opt.cachedGraph("regular", workload.Params{N: 60, Degree: 6}, 0)
				d := opt.orientID(g)
				base, q, _ := opt.properBase(g)
				inst := coloring.WithOrientedSlack(d, c, 3*math.Sqrt(float64(c)), rng)
				res, err := csr.Solve(d, inst, base, q, sim.Config{})
				if err != nil {
					panic(err)
				}
				valid := coloring.ValidateOLDC(d, inst, res.Colors) == nil
				lc := math.Log2(float64(c))
				return CellOut{
					Rows: [][]string{{
						itoa(c), itoa(res.Stats.Rounds), ftoa(float64(res.Stats.Rounds) / (lc * lc * lc)),
						itoa(res.Stats.MaxMessageBits),
						itoa(sim.BitsFor(q) + sim.BitsFor(c)), btoa(valid),
					}},
					X: float64(c), Y: float64(res.Stats.Rounds), HasPoint: true,
				}
			},
		})
	}
	outs := RunCells(opt, "E4", cells)
	t.Rows = rowsOf(outs)
	xs, ys := pointsOf(outs)
	fit := stats.PowerLawExponent(xs, ys)
	t.Notes = fmt.Sprintf("rounds/log³C stays bounded; fitted power-law exponent of rounds vs C is %.2f (R²=%.2f) — "+
		"far below the 0.5 a √C algorithm would show; max message ≈ a small multiple of log q + log C", fit.Slope, fit.R2)
	return t
}

// RunE5 sweeps Δ for the (deg+1)-list coloring pipeline and reports
// the measured growth against both the paper's Õ(√Δ) claim (via the
// [FK23a, Thm 4] framework) and this implementation's Õ(Δ·polylog)
// reduction (Lemma A.1 structure; see the deltaplus1 package comment).
func RunE5(opt Options) Table {
	t := Table{
		ID:      "E5",
		Title:   "(deg+1)-list coloring rounds vs Δ",
		Claim:   "paper: O(√Δ·log⁴Δ + log* n) via [FK23a Thm 4]; this impl: O(Δ·polylog Δ) (Lemma A.1 route)",
		Columns: []string{"Δ", "n", "rounds", "rounds/Δ", "rounds/√Δ", "scales", "OLDC calls", "valid"},
	}
	degrees := []int{4, 8, 16, 32}
	if opt.Quick {
		degrees = []int{4, 8}
	}
	var cells []Cell
	for _, deg := range degrees {
		cells = append(cells, Cell{
			Name: fmt.Sprintf("delta%d", deg),
			Run: func(seed int64) CellOut {
				rng := rand.New(rand.NewSource(seed))
				n := 40 * deg
				g := opt.cachedGraph("regular", workload.Params{N: n, Degree: deg}, 0)
				inst := coloring.DegreePlusOne(g, deg+1, rng)
				res, err := solveDegPlusOne(g, inst)
				if err != nil {
					panic(err)
				}
				valid := coloring.ValidateProperList(g, inst, res.Colors) == nil
				return CellOut{
					Rows: [][]string{{
						itoa(deg), itoa(n), itoa(res.Stats.Rounds),
						ftoa(float64(res.Stats.Rounds) / float64(deg)),
						ftoa(float64(res.Stats.Rounds) / math.Sqrt(float64(deg))),
						itoa(res.Scales), itoa(res.OLDCCalls), btoa(valid),
					}},
					X: float64(deg), Y: float64(res.Stats.Rounds), HasPoint: true,
				}
			},
		})
	}
	outs := RunCells(opt, "E5", cells)
	t.Rows = rowsOf(outs)
	xs, ys := pointsOf(outs)
	fit := stats.PowerLawExponent(xs, ys)
	t.Notes = fmt.Sprintf("fitted power-law exponent of rounds vs Δ is %.2f (R²=%.2f): the implemented Lemma A.1 route is "+
		"super-linear in Δ, whereas the paper's [FK23a Thm 4] framework would sit near 0.5", fit.Slope, fit.R2)
	return t
}

// RunE6 is the computational-complexity comparison the paper
// highlights: the Two-Sweep Phase-I selection is a sort
// (O(Λ log Λ) local work) while the [MT20, FK23a]-style subset search
// is exponential in the list size. Both sides report deterministic
// elementary-operation counts, keeping table cells pure functions of
// their seed (the scheduler's determinism contract); wall-clock timing
// of the selection kernel is BenchmarkSelection's job.
func RunE6(opt Options) Table {
	t := Table{
		ID:      "E6",
		Title:   "Local computation per node: sort vs exhaustive subset search",
		Claim:   "Two-Sweep local work is near-linear in Λ; [MT20, FK23a] search subsets of 2^{L_v}",
		Columns: []string{"Λ", "sort ops", "subset ops", "ratio", "same optimum"},
	}
	lambdas := []int{4, 8, 12, 16, 20}
	if opt.Quick {
		lambdas = []int{4, 8, 12}
	}
	var cells []Cell
	for _, lambda := range lambdas {
		cells = append(cells, Cell{
			Name: fmt.Sprintf("lambda%d", lambda),
			Run: func(seed int64) CellOut {
				rng := rand.New(rand.NewSource(seed))
				list := make([]int, lambda)
				defects := make([]int, lambda)
				k := make(map[int]int, lambda)
				kc := palette.NewCounter(2 * lambda)
				for i := range list {
					list[i] = i * 2
					defects[i] = rng.Intn(8)
					k[list[i]] = rng.Intn(5)
					kc.AddN(list[i], k[list[i]])
				}
				p := 3
				// The sort side runs on the palette kernel (the production
				// Phase-I path since the bitset port); the subset side stays on
				// the retained map-based brute force [MT20, FK23a] stand-in.
				scratch := palette.NewSelectScratch()
				colors, sortOps := scratch.SelectTopP(list, defects, kc, p)
				value := 0
				for _, x := range colors {
					for i, lx := range list {
						if lx == x {
							value += defects[i] + 1 - kc.Get(x)
						}
					}
				}
				b := baseline.SelectBruteForce(list, defects, k, p)
				return CellOut{Rows: [][]string{{
					itoa(lambda), itoa(int(sortOps)), itoa(int(b.Ops)),
					ftoa(float64(b.Ops) / float64(sortOps)), btoa(value == b.Value),
				}}}
			},
		})
	}
	t.Rows = rowsOf(RunCells(opt, "E6", cells))
	t.Notes = "deterministic operation counts; the ratio grows exponentially in Λ while both return the same optimal selection value"
	return t
}
