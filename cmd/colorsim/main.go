// Command colorsim runs any of the library's coloring algorithms on a
// generated graph and reports rounds, messages, bits, and validation.
//
// Examples:
//
//	colorsim -graph regular -n 200 -deg 8 -algo degplus1
//	colorsim -graph ring -n 1000 -algo twosweep -p 2
//	colorsim -graph grid -n 64 -algo edgecolor
//	colorsim -graph gnp -n 150 -prob 0.1 -algo csr -space 256
//	colorsim -graph regular -n 100 -deg 6 -algo luby -congest 32
//	colorsim -graph regular -n 64 -deg 6 -algo degplus1 -faults plan.json -repair
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"listcolor"
	"listcolor/internal/adversary"
	"listcolor/internal/quality"
	"listcolor/internal/repair"
	"listcolor/internal/trace"
	"listcolor/internal/workload"
)

func main() {
	var (
		graphKind = flag.String("graph", "regular", "graph family: "+strings.Join(workload.Names(), "|"))
		n         = flag.Int("n", 100, "number of vertices (grid: side², hypercube: rounded to 2^k)")
		deg       = flag.Int("deg", 4, "degree for regular / attachment count for powerlaw")
		prob      = flag.Float64("prob", 0.1, "edge probability for gnp")
		radius    = flag.Float64("radius", 0.1, "connection radius for udg")
		algo      = flag.String("algo", "degplus1", "algorithm: linial|defective|twosweep|fast|csr|degplus1|nbhood|edgecolor|luby|greedy")
		p         = flag.Int("p", 2, "Two-Sweep parameter p")
		eps       = flag.Float64("eps", 1.0, "Fast-Two-Sweep parameter ε")
		alpha     = flag.Float64("alpha", 0.5, "defective coloring parameter α")
		space     = flag.Int("space", 0, "color space size C (0 = algorithm default)")
		theta     = flag.Int("theta", 2, "neighborhood independence bound for -algo nbhood")
		seed      = flag.Int64("seed", 1, "workload seed")
		congest   = flag.Int("congest", 0, "CONGEST bandwidth cap in bits (0 = LOCAL, unlimited)")
		load      = flag.String("load", "", "load the graph from an edge-list file instead of generating one")
		save      = flag.String("save", "", "save the (generated) graph to an edge-list file")
		traceEach = flag.Int("trace", 0, "print per-round stats every N rounds (0 = off)")
		timeline  = flag.Bool("timeline", false, "print an ASCII timeline of the run")
		analyze   = flag.Bool("analyze", false, "print a quality report (degplus1, nbhood, greedy)")
		spans     = flag.Int("spans", 0, "print the composition span tree to this depth (0 = off)")
		faults    = flag.String("faults", "", "inject the fault plan from this adversary JSON file")
		doRepair  = flag.Bool("repair", false, "run the self-healing repair layer over the (faulted) solve and report recovery")
	)
	flag.Parse()

	var g *listcolor.Graph
	var err error
	if *load != "" {
		g, err = loadGraph(*load)
	} else {
		g, err = workload.Build(*graphKind, workload.Params{
			N: *n, Degree: *deg, Prob: *prob, Radius: *radius, Seed: *seed,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "colorsim:", err)
		os.Exit(1)
	}
	if *save != "" {
		if err := saveGraph(*save, g); err != nil {
			fmt.Fprintln(os.Stderr, "colorsim:", err)
			os.Exit(1)
		}
	}
	cfg := listcolor.Config{BandwidthBits: *congest}
	if *traceEach > 0 {
		every := *traceEach
		cfg.OnRound = func(rs listcolor.RoundStats) {
			if rs.Round%every == 0 {
				fmt.Printf("  round %6d: active=%d messages=%d bits=%d\n",
					rs.Round, rs.ActiveNodes, rs.Messages, rs.Bits)
			}
		}
	}
	var rec *trace.Recorder
	if *timeline {
		rec = &trace.Recorder{}
		cfg = rec.Attach(cfg)
	}
	var rootSpan *listcolor.Span
	if *spans > 0 {
		rootSpan = listcolor.NewSpan(*algo)
		cfg.Span = rootSpan
	}
	var plan adversary.Plan
	if *faults != "" {
		data, err := os.ReadFile(*faults)
		if err == nil {
			plan, err = adversary.ParsePlan(data)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "colorsim:", err)
			os.Exit(1)
		}
		fmt.Printf("faults: %d planned events (plan seed %d)\n", len(plan.Events), plan.Seed)
		if rec != nil {
			plan.Annotate(rec)
		}
		if !*doRepair {
			// The repair path applies the plan itself (repair.Run
			// compiles it into its solve config); the plain path
			// installs the hooks here.
			cfg = plan.Apply(cfg)
		}
	}
	fmt.Printf("graph: %v\n", g)
	if err := run(g, *algo, *p, *eps, *alpha, *space, *theta, *seed, *analyze, plan, *doRepair, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "colorsim:", err)
		os.Exit(1)
	}
	if rec != nil {
		// The timeline shows engine-executed rounds; composed
		// algorithms additionally charge analytical coordination rounds
		// that appear in the reported total but not here.
		fmt.Print("timeline (engine-executed rounds):\n" + rec.Timeline(72))
	}
	if rootSpan != nil {
		fmt.Printf("composition spans (%d recorded):\n%s", rootSpan.Count()-1, rootSpan.Render(*spans, 12))
	}
}

func run(g *listcolor.Graph, algo string, p int, eps, alpha float64, space, theta int, seed int64, analyze bool, plan adversary.Plan, doRepair bool, cfg listcolor.Config) error {
	if doRepair {
		return runRepair(g, algo, p, eps, space, theta, seed, plan, cfg)
	}
	maybeAnalyze := func(inst *listcolor.Instance, colors []int) {
		if !analyze {
			return
		}
		rep, err := quality.Analyze(g, inst, colors)
		if err != nil {
			fmt.Printf("analysis failed: %v\n", err)
			return
		}
		fmt.Print(rep.Format())
	}
	report := func(stats listcolor.Stats, what string, palette int, validErr error) {
		fmt.Printf("algorithm: %s\n", what)
		fmt.Printf("rounds: %d   messages: %d   total bits: %d   max message bits: %d\n",
			stats.Rounds, stats.Messages, stats.TotalBits, stats.MaxMessageBits)
		if palette > 0 {
			fmt.Printf("palette: %d colors\n", palette)
		}
		if validErr != nil {
			fmt.Printf("VALIDATION FAILED: %v\n", validErr)
		} else {
			fmt.Println("validation: OK")
		}
	}
	switch algo {
	case "linial":
		res, err := listcolor.LinialColor(g, cfg)
		if err != nil {
			return err
		}
		report(res.Stats, "Linial O(Δ²)-coloring [Lin87]", res.Palette, properErr(g, res.Colors))
	case "defective":
		base, err := listcolor.LinialColor(g, cfg)
		if err != nil {
			return err
		}
		res, err := listcolor.DefectiveColor(g, base.Colors, base.Palette, alpha, cfg)
		if err != nil {
			return err
		}
		report(res.Stats, fmt.Sprintf("defective coloring (Lemma 3.4, α=%.3f)", alpha), res.Palette, nil)
	case "twosweep", "fast":
		d := listcolor.OrientByID(g)
		base, err := listcolor.LinialColor(g, cfg)
		if err != nil {
			return err
		}
		if space == 0 {
			space = 4*p*p + 16
		}
		e := eps
		if algo == "twosweep" {
			e = 0
		}
		inst := listcolor.NewMinSlackInstance(d, space, p, e, seed)
		var res listcolor.OLDCResult
		if algo == "twosweep" {
			res, err = listcolor.TwoSweep(d, inst, base.Colors, base.Palette, p, cfg)
		} else {
			res, err = listcolor.TwoSweepFast(d, inst, base.Colors, base.Palette, p, e, cfg)
		}
		if err != nil {
			return err
		}
		report(res.Stats, fmt.Sprintf("Two-Sweep (Theorem 1.1, p=%d, ε=%.2f)", p, e), space,
			listcolor.ValidateOLDC(d, inst, res.Colors))
	case "csr":
		d := listcolor.OrientByID(g)
		base, err := listcolor.LinialColor(g, cfg)
		if err != nil {
			return err
		}
		if space == 0 {
			space = 256
		}
		inst := listcolor.NewSlackInstance(g, space, 3*math.Sqrt(float64(space))*2, seed)
		res, err := listcolor.ReduceColorSpace(d, inst, base.Colors, base.Palette, cfg)
		if err != nil {
			return err
		}
		report(res.Stats, fmt.Sprintf("color space reduction (Theorem 1.2, C=%d)", space), space,
			listcolor.ValidateOLDC(d, inst, res.Colors))
	case "degplus1":
		if space == 0 {
			space = g.MaxDegree() + 1
		}
		inst := listcolor.NewDegreePlusOneInstance(g, space, seed)
		res, err := listcolor.ColorDegPlusOne(g, inst, cfg)
		if err != nil {
			return err
		}
		report(res.Stats, fmt.Sprintf("(deg+1)-list coloring (Theorem 1.3 pipeline, %d scales, %d OLDC calls)",
			res.Scales, res.OLDCCalls), space, listcolor.ValidateProperList(g, inst, res.Colors))
		maybeAnalyze(inst, res.Colors)
	case "nbhood":
		if space == 0 {
			space = g.MaxDegree() + 1
		}
		inst := listcolor.NewDegreePlusOneInstance(g, space, seed)
		res, err := listcolor.SolveNeighborhood(g, inst, theta, cfg)
		if err != nil {
			return err
		}
		report(res.Stats, fmt.Sprintf("bounded-θ recursion (Theorem 1.5, θ=%d)", theta), space,
			listcolor.ValidateProperList(g, inst, res.Result.Colors))
		maybeAnalyze(inst, res.Result.Colors)
	case "edgecolor":
		colors, palette, stats, err := listcolor.EdgeColor(g, cfg)
		if err != nil {
			return err
		}
		used := map[int]bool{}
		for _, c := range colors {
			used[c] = true
		}
		report(stats, "(2Δ−1)-edge coloring (Theorem 1.5 application)", palette, nil)
		fmt.Printf("colors used: %d of %d\n", len(used), palette)
	case "luby":
		colors, stats, err := listcolor.LubyColor(g, seed, cfg)
		if err != nil {
			return err
		}
		report(stats, "Luby randomized (Δ+1)-coloring [ABI86, Lub86]", g.RawMaxDegree()+1, properErr(g, colors))
	case "greedy":
		if space == 0 {
			space = g.MaxDegree() + 1
		}
		inst := listcolor.NewDegreePlusOneInstance(g, space, seed)
		colors, err := listcolor.GreedyList(g, inst)
		if err != nil {
			return err
		}
		// GreedyList runs no simulation and takes no Config: record
		// its reported total on the root span here.
		stats := listcolor.Stats{Rounds: g.N()}
		cfg.Span.Done(stats)
		report(stats, "sequential greedy list coloring (baseline)", space,
			listcolor.ValidateProperList(g, inst, colors))
		maybeAnalyze(inst, colors)
	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	return nil
}

// runRepair routes the selected algorithm through the self-healing
// layer: the whole pipeline (including any base-coloring stage) runs
// under the fault plan, the damage is classified, and bounded local
// repair drives the coloring back to validity. Only algorithms that
// solve a list instance on the simulator can be repaired — the repair
// loop re-enters conflicted nodes with their residual lists.
func runRepair(g *listcolor.Graph, algo string, p int, eps float64, space, theta int, seed int64, plan adversary.Plan, cfg listcolor.Config) error {
	addStats := func(dst *listcolor.Stats, s listcolor.Stats) {
		dst.Rounds += s.Rounds
		dst.Messages += s.Messages
		dst.TotalBits += s.TotalBits
		if s.MaxMessageBits > dst.MaxMessageBits {
			dst.MaxMessageBits = s.MaxMessageBits
		}
	}
	tgt := repair.Target{Name: algo, G: g}
	switch algo {
	case "twosweep", "fast":
		d := listcolor.OrientByID(g)
		if space == 0 {
			space = 4*p*p + 16
		}
		e := eps
		if algo == "twosweep" {
			e = 0
		}
		inst := listcolor.NewMinSlackInstance(d, space, p, e, seed)
		tgt.D = d
		tgt.Inst = inst
		tgt.Solve = func(c listcolor.Config) ([]int, listcolor.Stats, error) {
			base, err := listcolor.LinialColor(g, c)
			if err != nil {
				return nil, base.Stats, err
			}
			var res listcolor.OLDCResult
			if algo == "twosweep" {
				res, err = listcolor.TwoSweep(d, inst, base.Colors, base.Palette, p, c)
			} else {
				res, err = listcolor.TwoSweepFast(d, inst, base.Colors, base.Palette, p, e, c)
			}
			addStats(&res.Stats, base.Stats)
			return res.Colors, res.Stats, err
		}
	case "csr":
		d := listcolor.OrientByID(g)
		if space == 0 {
			space = 256
		}
		inst := listcolor.NewSlackInstance(g, space, 3*math.Sqrt(float64(space))*2, seed)
		tgt.D = d
		tgt.Inst = inst
		tgt.Solve = func(c listcolor.Config) ([]int, listcolor.Stats, error) {
			base, err := listcolor.LinialColor(g, c)
			if err != nil {
				return nil, base.Stats, err
			}
			res, err := listcolor.ReduceColorSpace(d, inst, base.Colors, base.Palette, c)
			addStats(&res.Stats, base.Stats)
			return res.Colors, res.Stats, err
		}
	case "degplus1":
		if space == 0 {
			space = g.MaxDegree() + 1
		}
		inst := listcolor.NewDegreePlusOneInstance(g, space, seed)
		tgt.Inst = inst
		tgt.Solve = func(c listcolor.Config) ([]int, listcolor.Stats, error) {
			res, err := listcolor.ColorDegPlusOne(g, inst, c)
			return res.Colors, res.Stats, err
		}
	case "nbhood":
		if space == 0 {
			space = g.MaxDegree() + 1
		}
		inst := listcolor.NewDegreePlusOneInstance(g, space, seed)
		tgt.Inst = inst
		tgt.Solve = func(c listcolor.Config) ([]int, listcolor.Stats, error) {
			res, err := listcolor.SolveNeighborhood(g, inst, theta, c)
			return res.Result.Colors, res.Stats, err
		}
	case "luby":
		// Full-palette lists: Luby's (Δ+1)-coloring is directly
		// list-relative, so the damage report measures fault impact.
		pal := g.RawMaxDegree() + 1
		if space < pal {
			space = pal
		}
		inst := listcolor.NewInstance(g.N(), space)
		all := make([]int, pal)
		for x := range all {
			all[x] = x
		}
		zero := make([]int, pal)
		for v := 0; v < g.N(); v++ {
			inst.Lists[v] = all
			inst.Defects[v] = zero
		}
		tgt.Inst = inst
		tgt.Solve = func(c listcolor.Config) ([]int, listcolor.Stats, error) {
			return listcolor.LubyColor(g, seed, c)
		}
	default:
		return fmt.Errorf("-repair supports twosweep|fast|csr|degplus1|nbhood|luby, not %q", algo)
	}
	rep, err := repair.Run(tgt, plan, repair.Options{Base: cfg})
	if err != nil {
		return err
	}
	fmt.Printf("algorithm: %s under %d-event fault plan, self-healing repair\n", algo, len(plan.Events))
	s := rep.SolveStats
	fmt.Printf("faulted solve: rounds=%d messages=%d bits=%d", s.Rounds, s.Messages, s.TotalBits)
	if rep.SolveErr != nil {
		fmt.Printf("  (error: %v)", rep.SolveErr)
	}
	fmt.Println()
	if rep.UsedFallback {
		fmt.Println("solver output unusable; repair started from the first-list-color baseline")
	}
	fmt.Printf("damage before repair: %d hard (%d uncolored), %d absorbed by defect budgets\n",
		rep.Before.Hard, rep.Before.Uncolored, rep.Before.Absorbed)
	fmt.Printf("repair: %d recovery rounds, %d messages, %d bits\n",
		rep.RecoveryRounds, rep.RepairMessages, rep.RepairBits)
	fmt.Printf("after repair: %d hard, %d absorbed, residual defect %d\n",
		rep.After.Hard, rep.AbsorbedConflicts, rep.ResidualDefect)
	if rep.Converged {
		fmt.Println("validation: OK")
	} else {
		fmt.Println("VALIDATION FAILED: repair budget exhausted")
	}
	return nil
}

func properErr(g *listcolor.Graph, colors []int) error {
	return listcolor.IsProperColoring(g, colors)
}

func loadGraph(path string) (*listcolor.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return listcolor.ReadGraph(f)
}

func saveGraph(path string, g *listcolor.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := listcolor.WriteGraph(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
