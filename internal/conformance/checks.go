package conformance

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"listcolor/internal/adversary"
	"listcolor/internal/baseline"
	"listcolor/internal/coloring"
	"listcolor/internal/quality"
	"listcolor/internal/sim"
)

// Options configures a matrix run.
type Options struct {
	// Seed drives all workload and instance generation.
	Seed int64
	// Heavy widens the workload matrix (the `conformance` test tier).
	Heavy bool
	// Faults additionally checks driver equivalence under a
	// deterministic message-drop schedule.
	Faults bool
	// Workloads / SolverFilter restrict the matrix to names containing
	// the substring (empty = all).
	WorkloadFilter, SolverFilter string
	// FaultMaxRounds caps fault-injected runs (drops can stall
	// composed protocols); 0 means DefaultFaultMaxRounds.
	FaultMaxRounds int
	// Parallel is the matrix worker budget: the maximum number of
	// cells checked concurrently. 0 means GOMAXPROCS; 1 runs the
	// matrix sequentially in declaration order. Every cell is already
	// seeded purely from (Seed, workload, solver) — see RunCell — so
	// the result list is identical for every value.
	Parallel int
}

// parallelism resolves the worker budget: 0 means GOMAXPROCS.
func (opt Options) parallelism() int {
	if opt.Parallel > 0 {
		return opt.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultFaultMaxRounds bounds fault-injected runs: long enough for
// every matrix protocol's clean round count, short enough that a
// protocol stalled by a dropped message fails fast (and identically
// under every driver).
const DefaultFaultMaxRounds = 2000

// CellResult is the outcome of one (workload, solver) cell.
type CellResult struct {
	Workload, Solver string
	// Skipped is non-empty when the pair is incompatible (with the
	// reason); the cell counts as neither passed nor failed.
	Skipped string
	// Checks are the recorded guarantee checks of the reference run.
	Checks []quality.GuaranteeCheck
	// Failures lists everything that went wrong (guarantee failures,
	// driver divergence, metamorphic or differential disagreement).
	Failures []string
}

// Passed reports whether the cell ran and every assertion held.
func (r CellResult) Passed() bool { return r.Skipped == "" && len(r.Failures) == 0 }

// skipReason returns why the solver cannot run on the workload, or "".
func skipReason(env *Env, s Solver) string {
	if s.NeedsTheta && env.Theta == 0 {
		return "needs a known θ bound"
	}
	if s.MaxN > 0 && env.G.N() > s.MaxN {
		return fmt.Sprintf("n=%d exceeds solver cap %d", env.G.N(), s.MaxN)
	}
	return ""
}

// dropFn returns a deterministic fault-injection predicate: a fixed
// pseudo-random ~7% of all (round, from, to) triples lose their
// message. Every driver sees the identical schedule.
func dropFn(seed int64) func(round, from, to int) bool {
	return func(round, from, to int) bool {
		x := uint64(seed) ^ uint64(round)*0x9e3779b97f4a7c15 ^ uint64(from)*0xbf58476d1ce4e5b9 ^ uint64(to)*0x94d049bb133111eb
		x ^= x >> 31
		x *= 0xd6e8feb86659fd93
		x ^= x >> 27
		return x%14 == 0
	}
}

// faultPlans is the adversary matrix every non-sequential cell must
// survive bit-identically on all drivers: one plan per fault type,
// derived deterministically from (workload graph, seed).
func faultPlans(env *Env, seed int64) []struct {
	name string
	plan adversary.Plan
} {
	return []struct {
		name string
		plan adversary.Plan
	}{
		{"crash-stop", adversary.UniformCrash(env.G, seed+101, 0.10, 2, 2)},
		{"crash-recover", adversary.CrashRecoverWindows(env.G, seed+102, 0.15, 2, 3)},
		{"partition", adversary.PartitionLinks(env.G, 2, 4)},
		{"corrupt", adversary.UniformCorrupt(seed+103, 0.15, 1, 0)},
	}
}

// diffFingerprints summarizes how two outputs diverge, for failure
// messages.
func diffFingerprints(a, b []byte) string {
	la := strings.Split(strings.TrimSpace(string(a)), "\n")
	lb := strings.Split(strings.TrimSpace(string(b)), "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("%q vs %q", truncate(la[i]), truncate(lb[i]))
		}
	}
	return fmt.Sprintf("lengths %d vs %d bytes", len(a), len(b))
}

func truncate(s string) string {
	if len(s) > 120 {
		return s[:117] + "..."
	}
	return s
}

// concurrentRun is one run a cell compares against its lockstep
// reference.
type concurrentRun struct {
	name string
	cfg  sim.Config
}

// concurrentRuns returns base under every concurrent driver, plus the
// workers driver routing each round through two receiver shards, so
// every solver is also checked through the sharded router. Rounds
// with a drop or corrupt hook route sequentially by contract, so under
// those hooks the sharded run repeats the plain workers run.
func concurrentRuns(base sim.Config) []concurrentRun {
	var runs []concurrentRun
	for _, d := range sim.AllDrivers()[1:] {
		runs = append(runs, concurrentRun{d.String(), base.WithDriver(d)})
	}
	sharded := base.WithDriver(sim.Workers)
	sharded.Shards = 2
	return append(runs, concurrentRun{"workers/2-shards", sharded})
}

// RunCell executes every conformance check of one matrix cell.
func RunCell(env *Env, s Solver, opt Options) CellResult {
	res := CellResult{Workload: env.W.Name, Solver: s.Name}
	if reason := skipReason(env, s); reason != "" {
		res.Skipped = reason
		return res
	}
	rng := rand.New(rand.NewSource(opt.Seed ^ int64(hashString(env.W.Name+"/"+s.Name))))
	c, err := s.Prepare(env, rng)
	if err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("prepare: %v", err))
		return res
	}

	// (b) Reference run + validator + theorem guarantees with headroom.
	ref := s.Run(c, sim.Config{Driver: sim.Lockstep})
	res.Checks = append(res.Checks, quality.CheckHolds("run completes", ref.Err == nil))
	if ref.Err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("reference run: %v", ref.Err))
		return res
	}
	res.Checks = append(res.Checks, quality.CheckHolds("validator passes", s.Validate(c, ref) == nil))
	if err := s.Validate(c, ref); err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("validator: %v", err))
	}
	res.Checks = append(res.Checks, s.Check(c, ref)...)

	// Parallel defect-audit equivalence: the range-partitioned audit
	// kernel must reproduce the sequential scan field-for-field — same
	// counters, same first violation text — on every cell's output.
	// Only par ≡ seq is asserted, not validity: OLDC cells judge their
	// output under orientation semantics the plain defect audit does
	// not model, so their audit may legitimately flag violations.
	if c.Inst != nil && c.G != nil && c.Inst.N() == c.G.N() && len(ref.Colors) == c.G.N() {
		seq := coloring.Audit(c.G, c.Inst, ref.Colors)
		agree := true
		for _, w := range []int{2, 3} {
			if !coloring.AuditReportsEqual(seq, coloring.AuditParallel(c.G, c.Inst, ref.Colors, w)) {
				agree = false
			}
		}
		res.Checks = append(res.Checks, quality.CheckHolds("parallel defect audit ≡ sequential", agree))
	}
	res.Failures = append(res.Failures, quality.Failures(res.Checks)...)

	// (a) Driver equivalence: byte-identical colors, rounds and
	// message-bit counts under every driver, clean and faulted.
	if !s.Sequential {
		refFP := Fingerprint(ref)
		for _, v := range concurrentRuns(sim.Config{}) {
			out := s.Run(c, v.cfg)
			if fp := Fingerprint(out); !bytes.Equal(fp, refFP) {
				res.Failures = append(res.Failures,
					fmt.Sprintf("driver %s diverges from lockstep: %s", v.name, diffFingerprints(refFP, fp)))
			}
		}
		if opt.Faults {
			maxRounds := opt.FaultMaxRounds
			if maxRounds == 0 {
				maxRounds = DefaultFaultMaxRounds
			}
			faultCfg := sim.Config{DropMessage: dropFn(opt.Seed), MaxRounds: maxRounds}
			faultRef := s.Run(c, faultCfg.WithDriver(sim.Lockstep))
			faultFP := Fingerprint(faultRef)
			for _, d := range sim.AllDrivers()[1:] {
				out := s.Run(c, faultCfg.WithDriver(d))
				if fp := Fingerprint(out); !bytes.Equal(fp, faultFP) {
					res.Failures = append(res.Failures,
						fmt.Sprintf("driver %v diverges from lockstep under fault injection: %s", d, diffFingerprints(faultFP, fp)))
				}
			}
			// Adversary plan matrix: one plan per fault type, every
			// driver bit-identical under each. Whatever damage a plan
			// does — stalls into the round limit included — it must do
			// identically everywhere.
			for _, fp := range faultPlans(env, opt.Seed) {
				cfg := fp.plan.Apply(sim.Config{MaxRounds: maxRounds})
				planRef := s.Run(c, cfg.WithDriver(sim.Lockstep))
				planFP := Fingerprint(planRef)
				for _, v := range concurrentRuns(cfg) {
					out := s.Run(c, v.cfg)
					if got := Fingerprint(out); !bytes.Equal(got, planFP) {
						res.Failures = append(res.Failures,
							fmt.Sprintf("driver %s diverges from lockstep under %s plan: %s", v.name, fp.name, diffFingerprints(planFP, got)))
					}
				}
			}
		}
	}

	// (c) Metamorphic: node-id relabeling.
	perm := rng.Perm(c.G.N())
	if c2, err := relabelCase(c, perm); err != nil {
		res.Failures = append(res.Failures, err.Error())
	} else {
		out2 := s.Run(c2, sim.Config{Driver: sim.Lockstep})
		if out2.Err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("relabeled run: %v", out2.Err))
		} else {
			if err := s.Validate(c2, out2); err != nil {
				res.Failures = append(res.Failures, fmt.Sprintf("relabeled run invalid: %v", err))
			}
			if s.RelabelRounds && out2.Stats.Rounds != ref.Stats.Rounds {
				res.Failures = append(res.Failures,
					fmt.Sprintf("relabeling changed rounds: %d vs %d", out2.Stats.Rounds, ref.Stats.Rounds))
			}
			if s.Equivariant {
				for v := range ref.Colors {
					if out2.Colors[perm[v]] != ref.Colors[v] {
						res.Failures = append(res.Failures,
							fmt.Sprintf("relabeling not equivariant at node %d: %d vs %d", v, out2.Colors[perm[v]], ref.Colors[v]))
						break
					}
				}
			}
		}
	}

	// (c) Metamorphic: color-space permutation.
	if s.ColorPerm && c.Inst != nil {
		pi := rng.Perm(c.Inst.Space)
		c3 := permuteColorsCase(c, pi)
		// Static: the permuted reference output must satisfy the
		// permuted instance without any rerun.
		mapped := Output{Colors: mapColors(pi, ref.Colors), Arcs: ref.Arcs}
		if err := s.Validate(c3, mapped); err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("permuted reference output invalid: %v", err))
		}
		// Dynamic: rerunning on the permuted instance stays valid (and
		// keeps the pinned round count, where the algorithm pins one).
		out3 := s.Run(c3, sim.Config{Driver: sim.Lockstep})
		if out3.Err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("color-permuted run: %v", out3.Err))
		} else {
			if err := s.Validate(c3, out3); err != nil {
				res.Failures = append(res.Failures, fmt.Sprintf("color-permuted run invalid: %v", err))
			}
			if s.PermuteRounds && out3.Stats.Rounds != ref.Stats.Rounds {
				res.Failures = append(res.Failures,
					fmt.Sprintf("color permutation changed rounds: %d vs %d", out3.Stats.Rounds, ref.Stats.Rounds))
			}
		}
	}

	// (d) Differential: brute-force subset-search agreement on tiny
	// instances. The slack condition makes the instance solvable, so
	// the exponential baseline must agree that a solution exists, and
	// its solution must pass the same validator.
	if s.Differential && env.W.Tiny && c.Inst != nil {
		bfColors, ok := baseline.BruteForceOLDC(c.D, c.Inst)
		if !ok {
			res.Failures = append(res.Failures,
				"differential: brute force found no solution although Two-Sweep solved the instance")
		} else if err := coloring.ValidateOLDC(c.D, c.Inst, bfColors); err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("differential: brute-force solution invalid: %v", err))
		}
		res.Checks = append(res.Checks, quality.CheckHolds("brute force agrees instance is solvable", ok))
	}
	return res
}

// RunMatrix executes the full workload × solver matrix. Each
// workload's environment is materialized exactly once and shared
// read-only by its solver cells (Materialize normalizes the graph up
// front so no lazy mutation survives into the fan-out). With a worker
// budget above 1 the cells run concurrently under a bounded
// semaphore; results always come back in declaration order, and each
// cell's randomness derives purely from (Seed, workload, solver), so
// the output is independent of scheduling.
func RunMatrix(opt Options) ([]CellResult, error) {
	type matrixCell struct {
		env *Env
		s   Solver
	}
	var cells []matrixCell
	for _, w := range Matrix(opt.Heavy) {
		if opt.WorkloadFilter != "" && !strings.Contains(w.Name, opt.WorkloadFilter) {
			continue
		}
		env, err := Materialize(w, opt.Seed)
		if err != nil {
			return nil, err
		}
		for _, s := range Solvers() {
			if opt.SolverFilter != "" && !strings.Contains(s.Name, opt.SolverFilter) {
				continue
			}
			cells = append(cells, matrixCell{env: env, s: s})
		}
	}
	results := make([]CellResult, len(cells))
	if opt.parallelism() <= 1 || len(cells) <= 1 {
		for i, c := range cells {
			results[i] = RunCell(c.env, c.s, opt)
		}
		return results, nil
	}
	sem := make(chan struct{}, opt.parallelism())
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = RunCell(cells[i].env, cells[i].s, opt)
		}(i)
	}
	wg.Wait()
	return results, nil
}

// FormatMatrix renders a pass/fail matrix (rows = workloads, columns
// = solvers) the way cmd/conform prints it.
func FormatMatrix(results []CellResult) string {
	var workloads []string
	var solvers []string
	seenW := map[string]bool{}
	seenS := map[string]bool{}
	cell := map[[2]string]CellResult{}
	for _, r := range results {
		if !seenW[r.Workload] {
			seenW[r.Workload] = true
			workloads = append(workloads, r.Workload)
		}
		if !seenS[r.Solver] {
			seenS[r.Solver] = true
			solvers = append(solvers, r.Solver)
		}
		cell[[2]string{r.Workload, r.Solver}] = r
	}
	wWidth := len("workload")
	for _, w := range workloads {
		if len(w) > wWidth {
			wWidth = len(w)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", wWidth, "workload")
	for _, s := range solvers {
		fmt.Fprintf(&b, "  %s", s)
	}
	b.WriteByte('\n')
	for _, w := range workloads {
		fmt.Fprintf(&b, "%-*s", wWidth, w)
		for _, s := range solvers {
			r, ok := cell[[2]string{w, s}]
			mark := "-"
			if ok {
				switch {
				case r.Skipped != "":
					mark = "skip"
				case r.Passed():
					mark = "ok"
				default:
					mark = "FAIL"
				}
			}
			fmt.Fprintf(&b, "  %-*s", len(s), mark)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Summary counts the matrix outcome.
type Summary struct{ Passed, Failed, Skipped int }

// Summarize tallies a result set.
func Summarize(results []CellResult) Summary {
	var s Summary
	for _, r := range results {
		switch {
		case r.Skipped != "":
			s.Skipped++
		case r.Passed():
			s.Passed++
		default:
			s.Failed++
		}
	}
	return s
}
