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
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"listcolor"
	"listcolor/internal/adversary"
	"listcolor/internal/quality"
	"listcolor/internal/repair"
	"listcolor/internal/sim"
	"listcolor/internal/trace"
	"listcolor/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "colorsim:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, builds or loads the graph, runs
// the chosen algorithm and prints its report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		graphKind = fs.String("graph", "regular", "graph family: "+strings.Join(workload.Names(), "|"))
		n         = fs.Int("n", 100, "number of vertices (grid: side², hypercube: rounded to 2^k)")
		deg       = fs.Int("deg", 4, "degree for regular / attachment count for powerlaw")
		prob      = fs.Float64("prob", 0.1, "edge probability for gnp")
		radius    = fs.Float64("radius", 0.1, "connection radius for udg")
		algo      = fs.String("algo", "degplus1", "algorithm: "+algoNames(false))
		p         = fs.Int("p", 2, "Two-Sweep parameter p")
		eps       = fs.Float64("eps", 1.0, "Fast-Two-Sweep parameter ε")
		alpha     = fs.Float64("alpha", 0.5, "defective coloring parameter α")
		space     = fs.Int("space", 0, "color space size C (0 = algorithm default)")
		theta     = fs.Int("theta", 2, "neighborhood independence bound for -algo nbhood")
		seed      = fs.Int64("seed", 1, "workload seed")
		congest   = fs.Int("congest", 0, "CONGEST bandwidth cap in bits (0 = LOCAL, unlimited)")
		load      = fs.String("load", "", "load the graph from an edge-list file instead of generating one")
		save      = fs.String("save", "", "save the (generated) graph to an edge-list file")
		traceEach = fs.Int("trace", 0, "print per-round stats every N rounds (0 = off)")
		timeline  = fs.Bool("timeline", false, "print an ASCII timeline of the run")
		analyze   = fs.Bool("analyze", false, "print a quality report (degplus1, nbhood, greedy)")
		spans     = fs.Int("spans", 0, "print the composition span tree to this depth (0 = off)")
		faults    = fs.String("faults", "", "inject the fault plan from this adversary JSON file")
		doRepair  = fs.Bool("repair", false, "run the self-healing repair layer over the (faulted) solve and report recovery")
	)
	fs.Parse(args)

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
		return err
	}
	if *save != "" {
		if err := saveGraph(*save, g); err != nil {
			return err
		}
	}
	cfg := listcolor.Config{BandwidthBits: *congest}
	if *traceEach > 0 {
		every := *traceEach
		cfg.OnRound = func(rs listcolor.RoundStats) {
			if rs.Round%every == 0 {
				fmt.Fprintf(w, "  round %6d: active=%d messages=%d bits=%d\n",
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
			return err
		}
		fmt.Fprintf(w, "faults: %d planned events (plan seed %d)\n", len(plan.Events), plan.Seed)
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
	fmt.Fprintf(w, "graph: %v\n", g)
	o := options{p: *p, eps: *eps, alpha: *alpha, space: *space, theta: *theta, seed: *seed}
	if err := solve(w, g, *algo, o, *analyze, plan, *doRepair, cfg); err != nil {
		return err
	}
	if rec != nil {
		// The timeline shows engine-executed rounds; composed
		// algorithms additionally charge analytical coordination rounds
		// that appear in the reported total but not here.
		fmt.Fprint(w, "timeline (engine-executed rounds):\n"+rec.Timeline(72))
	}
	if rootSpan != nil {
		fmt.Fprintf(w, "composition spans (%d recorded):\n%s", rootSpan.Count()-1, rootSpan.Render(*spans, 12))
	}
	return nil
}

// options are the flags the algorithms read.
type options struct {
	p            int
	eps, alpha   float64
	space, theta int
	seed         int64
}

// spaceOr is -space, or def when -space is 0.
func (o options) spaceOr(def int) int {
	if o.space == 0 {
		return def
	}
	return o.space
}

// job is one algorithm set up on a graph: the plain report and -repair
// both run its solve.
type job struct {
	solve func(cfg listcolor.Config) (outcome, error)
	// check validates the colors for the plain report; nil reports OK.
	check func(colors []int) error
	// inst is the list instance the colors come from, read by -analyze
	// and healed against by -repair, over the orientation d when d is
	// set (OLDC semantics).
	inst *listcolor.Instance
	d    *listcolor.Digraph
}

// outcome is what one solve reports.
type outcome struct {
	colors []int
	// stats is the cost the plain report prints; boot is the Linial
	// bootstrap the solve ran first, which -repair bills as well.
	stats, boot listcolor.Stats
	title       string
	palette     int    // printed when positive
	note        string // an extra report line, or ""
}

// algorithm is one -algo value: set builds its job on a graph. analyze
// marks the algorithms -analyze reports on, repair those -repair runs:
// the ones that solve a list instance on the simulator, whose
// conflicted nodes the repair loop re-enters with their residual lists.
type algorithm struct {
	name            string
	analyze, repair bool
	set             func(g *listcolor.Graph, o options) job
}

// algorithms is the -algo table.
var algorithms = []algorithm{
	{name: "linial", set: func(g *listcolor.Graph, o options) job {
		return job{check: properCheck(g), solve: func(cfg listcolor.Config) (outcome, error) {
			res, err := listcolor.LinialColor(g, cfg)
			return outcome{colors: res.Colors, stats: res.Stats, title: "Linial O(Δ²)-coloring [Lin87]", palette: res.Palette}, err
		}}
	}},
	{name: "defective", set: func(g *listcolor.Graph, o options) job {
		return job{solve: func(cfg listcolor.Config) (outcome, error) {
			base, err := listcolor.LinialColor(g, cfg)
			if err != nil {
				return outcome{}, err
			}
			res, err := listcolor.DefectiveColor(g, base.Colors, base.Palette, o.alpha, cfg)
			return outcome{stats: res.Stats, title: fmt.Sprintf("defective coloring (Lemma 3.4, α=%.3f)", o.alpha), palette: res.Palette}, err
		}}
	}},
	{name: "twosweep", repair: true, set: twoSweep(false)},
	{name: "fast", repair: true, set: twoSweep(true)},
	{name: "csr", repair: true, set: func(g *listcolor.Graph, o options) job {
		d := listcolor.OrientByID(g)
		space := o.spaceOr(256)
		inst := listcolor.NewSlackInstance(g, space, 3*math.Sqrt(float64(space))*2, o.seed)
		return job{inst: inst, d: d, check: oldcCheck(d, inst), solve: func(cfg listcolor.Config) (outcome, error) {
			base, err := listcolor.LinialColor(g, cfg)
			if err != nil {
				return outcome{boot: base.Stats}, err
			}
			res, err := listcolor.ReduceColorSpace(d, inst, base.Colors, base.Palette, cfg)
			return outcome{colors: res.Colors, stats: res.Stats, boot: base.Stats,
				title: fmt.Sprintf("color space reduction (Theorem 1.2, C=%d)", space), palette: space}, err
		}}
	}},
	{name: "degplus1", analyze: true, repair: true, set: func(g *listcolor.Graph, o options) job {
		space := o.spaceOr(g.MaxDegree() + 1)
		inst := listcolor.NewDegreePlusOneInstance(g, space, o.seed)
		return job{inst: inst, check: properListCheck(g, inst), solve: func(cfg listcolor.Config) (outcome, error) {
			res, err := listcolor.ColorDegPlusOne(g, inst, cfg)
			return outcome{colors: res.Colors, stats: res.Stats, palette: space,
				title: fmt.Sprintf("(deg+1)-list coloring (Theorem 1.3 pipeline, %d scales, %d OLDC calls)", res.Scales, res.OLDCCalls)}, err
		}}
	}},
	{name: "nbhood", analyze: true, repair: true, set: func(g *listcolor.Graph, o options) job {
		space := o.spaceOr(g.MaxDegree() + 1)
		inst := listcolor.NewDegreePlusOneInstance(g, space, o.seed)
		return job{inst: inst, check: properListCheck(g, inst), solve: func(cfg listcolor.Config) (outcome, error) {
			res, err := listcolor.SolveNeighborhood(g, inst, o.theta, cfg)
			return outcome{colors: res.Result.Colors, stats: res.Stats, palette: space,
				title: fmt.Sprintf("bounded-θ recursion (Theorem 1.5, θ=%d)", o.theta)}, err
		}}
	}},
	{name: "edgecolor", set: func(g *listcolor.Graph, o options) job {
		return job{solve: func(cfg listcolor.Config) (outcome, error) {
			colors, palette, stats, err := listcolor.EdgeColor(g, cfg)
			used := map[int]bool{}
			for _, c := range colors {
				used[c] = true
			}
			return outcome{stats: stats, title: "(2Δ−1)-edge coloring (Theorem 1.5 application)", palette: palette,
				note: fmt.Sprintf("colors used: %d of %d", len(used), palette)}, err
		}}
	}},
	{name: "luby", repair: true, set: func(g *listcolor.Graph, o options) job {
		// -repair heals against full-palette lists: Luby's
		// (Δ+1)-coloring is directly list-relative, so the damage
		// report measures fault impact.
		pal := g.RawMaxDegree() + 1
		inst := listcolor.NewInstance(g.N(), max(o.space, pal))
		all := make([]int, pal)
		for x := range all {
			all[x] = x
		}
		zero := make([]int, pal)
		for v := 0; v < g.N(); v++ {
			inst.Lists[v] = all
			inst.Defects[v] = zero
		}
		return job{inst: inst, check: properCheck(g), solve: func(cfg listcolor.Config) (outcome, error) {
			colors, stats, err := listcolor.LubyColor(g, o.seed, cfg)
			return outcome{colors: colors, stats: stats, title: "Luby randomized (Δ+1)-coloring [ABI86, Lub86]", palette: pal}, err
		}}
	}},
	{name: "greedy", analyze: true, set: func(g *listcolor.Graph, o options) job {
		space := o.spaceOr(g.MaxDegree() + 1)
		inst := listcolor.NewDegreePlusOneInstance(g, space, o.seed)
		return job{inst: inst, check: properListCheck(g, inst), solve: func(cfg listcolor.Config) (outcome, error) {
			colors, err := listcolor.GreedyList(g, inst)
			// GreedyList runs no simulation and takes no Config:
			// record its reported total on the root span here.
			stats := listcolor.Stats{Rounds: g.N()}
			if err == nil {
				cfg.Span.Done(stats)
			}
			return outcome{colors: colors, stats: stats, title: "sequential greedy list coloring (baseline)", palette: space}, err
		}}
	}},
}

// twoSweep sets up Two-Sweep (fast = false: ε = 0) or Fast-Two-Sweep
// (ε = -eps) on a Linial bootstrap.
func twoSweep(fast bool) func(g *listcolor.Graph, o options) job {
	return func(g *listcolor.Graph, o options) job {
		d := listcolor.OrientByID(g)
		space := o.spaceOr(4*o.p*o.p + 16)
		e := o.eps
		if !fast {
			e = 0
		}
		inst := listcolor.NewMinSlackInstance(d, space, o.p, e, o.seed)
		return job{inst: inst, d: d, check: oldcCheck(d, inst), solve: func(cfg listcolor.Config) (outcome, error) {
			base, err := listcolor.LinialColor(g, cfg)
			if err != nil {
				return outcome{boot: base.Stats}, err
			}
			var res listcolor.OLDCResult
			if fast {
				res, err = listcolor.TwoSweepFast(d, inst, base.Colors, base.Palette, o.p, e, cfg)
			} else {
				res, err = listcolor.TwoSweep(d, inst, base.Colors, base.Palette, o.p, cfg)
			}
			return outcome{colors: res.Colors, stats: res.Stats, boot: base.Stats,
				title: fmt.Sprintf("Two-Sweep (Theorem 1.1, p=%d, ε=%.2f)", o.p, e), palette: space}, err
		}}
	}
}

func properCheck(g *listcolor.Graph) func([]int) error {
	return func(colors []int) error { return listcolor.IsProperColoring(g, colors) }
}

func properListCheck(g *listcolor.Graph, inst *listcolor.Instance) func([]int) error {
	return func(colors []int) error { return listcolor.ValidateProperList(g, inst, colors) }
}

func oldcCheck(d *listcolor.Digraph, inst *listcolor.Instance) func([]int) error {
	return func(colors []int) error { return listcolor.ValidateOLDC(d, inst, colors) }
}

// algoNames joins the -algo names, or only those -repair runs.
func algoNames(repairOnly bool) string {
	var names []string
	for _, a := range algorithms {
		if a.repair || !repairOnly {
			names = append(names, a.name)
		}
	}
	return strings.Join(names, "|")
}

// solve runs the named algorithm on g and prints its report to w: the
// plain report, or with doRepair the self-healing repair layer's
// recovery report under plan.
func solve(w io.Writer, g *listcolor.Graph, name string, o options, analyze bool, plan adversary.Plan, doRepair bool, cfg listcolor.Config) error {
	i := slices.IndexFunc(algorithms, func(a algorithm) bool { return a.name == name })
	if doRepair && (i < 0 || !algorithms[i].repair) {
		return fmt.Errorf("-repair supports %s, not %q", algoNames(true), name)
	}
	if i < 0 {
		return fmt.Errorf("unknown algorithm %q", name)
	}
	a := algorithms[i]
	j := a.set(g, o)
	if doRepair {
		return runRepair(w, g, name, j, plan, cfg)
	}
	out, err := j.solve(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "algorithm: %s\n", out.title)
	fmt.Fprintf(w, "rounds: %d   messages: %d   total bits: %d   max message bits: %d\n",
		out.stats.Rounds, out.stats.Messages, out.stats.TotalBits, out.stats.MaxMessageBits)
	if out.palette > 0 {
		fmt.Fprintf(w, "palette: %d colors\n", out.palette)
	}
	var validErr error
	if j.check != nil {
		validErr = j.check(out.colors)
	}
	if validErr != nil {
		fmt.Fprintf(w, "VALIDATION FAILED: %v\n", validErr)
	} else {
		fmt.Fprintln(w, "validation: OK")
	}
	if out.note != "" {
		fmt.Fprintln(w, out.note)
	}
	if analyze && a.analyze {
		rep, err := quality.Analyze(g, j.inst, out.colors)
		if err != nil {
			fmt.Fprintf(w, "analysis failed: %v\n", err)
			return nil
		}
		fmt.Fprint(w, rep.Format())
	}
	return nil
}

// runRepair routes the set-up algorithm through the self-healing layer:
// the whole solve (including its Linial bootstrap) runs under the
// fault plan, the damage is classified, and bounded local repair
// drives the coloring back to validity.
func runRepair(w io.Writer, g *listcolor.Graph, name string, j job, plan adversary.Plan, cfg listcolor.Config) error {
	tgt := repair.Target{Name: name, G: g, D: j.d, Inst: j.inst, Solve: func(c listcolor.Config) ([]int, listcolor.Stats, error) {
		out, err := j.solve(c)
		// The solver's root total leaves out the bootstrap it ran
		// first; the root carries the total billed here instead.
		st := sim.Seq(out.stats, out.boot)
		c.Span.Done(st)
		return out.colors, st, err
	}}
	rep, err := repair.Run(tgt, plan, repair.Options{Base: cfg})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "algorithm: %s under %d-event fault plan, self-healing repair\n", name, len(plan.Events))
	s := rep.SolveStats
	fmt.Fprintf(w, "faulted solve: rounds=%d messages=%d bits=%d", s.Rounds, s.Messages, s.TotalBits)
	if rep.SolveErr != nil {
		fmt.Fprintf(w, "  (error: %v)", rep.SolveErr)
	}
	fmt.Fprintln(w)
	if rep.UsedFallback {
		fmt.Fprintln(w, "solver output unusable; repair started from the first-list-color baseline")
	}
	fmt.Fprintf(w, "damage before repair: %d hard (%d uncolored), %d absorbed by defect budgets\n",
		rep.Before.Hard, rep.Before.Uncolored, rep.Before.Absorbed)
	fmt.Fprintf(w, "repair: %d recovery rounds, %d messages, %d bits\n",
		rep.RecoveryRounds, rep.RepairMessages, rep.RepairBits)
	fmt.Fprintf(w, "after repair: %d hard, %d absorbed, residual defect %d\n",
		rep.After.Hard, rep.AbsorbedConflicts, rep.ResidualDefect)
	if rep.Converged {
		fmt.Fprintln(w, "validation: OK")
	} else {
		fmt.Fprintln(w, "VALIDATION FAILED: repair budget exhausted")
	}
	return nil
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
