// Command perfbench is listcolor's end-to-end and per-layer benchmark.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One invocation runs one workload in a fresh process: it generates the
// inputs from the seed, sets the program up (timed as setup_s, the
// median of several set-ups), times the program's public calls for the
// given number of seconds, checks every output, and prints a
// human-readable report followed by one JSON line. With --trace 0 the
// JSON holds the end-to-end metrics; with --trace 1 it holds the
// per-layer metrics, computed from spans the benchmark records around
// its calls into each layer, and the run also measures its own tracing
// overhead against an untraced child run of the same seed.
//
// Workloads and the layer each one stresses are listed in
// layermap.json; BENCHMARK.json at the repository root lists the
// metrics. The exit code is 1 when any output is wrong, 2 on bad flags.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are the invocation's inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// toy shrinks every size so the self-tests run in seconds.
	toy bool
	// corrupt hands the correctness gate one wrong output (self-test).
	corrupt bool
	workDir string
}

// metric is one named figure of the final JSON line.
type metric struct {
	name  string
	unit  string
	value float64
}

// report collects a run's metrics, its human-readable notes and the
// correctness gate's verdict.
type report struct {
	attempted int
	failed    int
	problems  []string
	e2eSet    []metric
	layerSet  []metric
	notes     []string
	tr        *tracer
}

func (r *report) e2e(name, unit string, v float64) {
	r.e2eSet = append(r.e2eSet, metric{name, unit, v})
}

func (r *report) layer(name, unit string, v float64) {
	r.layerSet = append(r.layerSet, metric{name, unit, v})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a correctness-gate failure.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// opFailed counts one failed op and records why (the first few only).
func (r *report) opFailed(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		r.fail(format, args...)
	}
}

// latency reports the median and the workload's tail percentile tailQ
// of latencies in ms as <kind>_p50_ms and <kind>_p<tail>_ms, and adds
// the median of ops to the end-to-end metrics. The tail is printed,
// not bounded: layermap.json says why.
func (r *report) latency(kind string, lat []float64, tailQ float64) {
	xs := append([]float64(nil), lat...)
	p50 := quantile(xs, 0.5)
	tail := quantile(xs, tailQ)
	if !tailOK(len(xs), tailQ) {
		r.note("WARNING: %d %s samples are too few for p%g (it needs %d)", len(xs), kind, 100*tailQ, int(math.Ceil(10/(1-tailQ))))
	}
	r.note("%s_p50_ms %.4f, %s_p%g_ms %.4f over %d samples (p75 %.4f, p90 %.4f, p95 %.4f, p99 %.4f, max %.4f)", kind, p50, kind, 100*tailQ, tail, len(xs),
		quantile(xs, 0.75), quantile(xs, 0.9), quantile(xs, 0.95), quantile(xs, 0.99), xs[len(xs)-1])
	if kind == "op" {
		r.e2e("op_p50_ms", "ms", p50)
	}
}

var workloads = map[string]func(o options, r *report) error{
	"solve-wide": runSolveWide,
	"solve-deep": runSolveDeep,
	"churn":      runChurn,
	"serve":      runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "solve-wide | solve-deep | churn | serve")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: every input derives from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&o.toy, "toy", false, "toy sizes (self-tests)")
	fs.BoolVar(&o.corrupt, "corrupt", false, "hand the correctness gate a wrong output (self-tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	o.trace = trace == 1
	o.workDir = os.Getenv("PERFBENCH_WORKDIR")
	if o.workDir == "" {
		o.workDir = filepath.Join(os.TempDir(), "perfbench")
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	r := &report{}
	if o.trace {
		r.tr = newTracer()
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d: %d CPUs, GOMAXPROCS %d, %s\n",
		o.workload, o.seed, o.seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if err := fn(o, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}

	if o.trace {
		path := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-%d.csv.gz", o.workload, o.seed))
		if err := r.tr.write(path); err != nil {
			r.fail("writing spans: %v", err)
		} else {
			r.note("spans: %s (%d names)", path, len(r.tr.spanNames()))
		}
		// The untraced twin runs after this process's window, so the
		// two never share the CPUs.
		overhead(r, runChild(o))
	}

	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	set := complete(r, r.e2eSet, endToEnd)
	if o.trace {
		set = complete(r, r.layerSet, perLayer)
	}
	for _, m := range set {
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if r.attempted > 0 {
		fmt.Fprintf(stdout, "failed_frac %.6g (%d of %d ops)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	for _, p := range r.problems {
		fmt.Fprintf(stdout, "GATE FAILED: %s\n", p)
	}
	correct := len(r.problems) == 0 && r.failed == 0 && r.attempted > 0
	line, err := resultLine(correct, r.attempted, r.failed, set)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resultLine renders the final JSON object. Values keep every digit
// Go's shortest float formatting gives them.
func resultLine(correct bool, attempted, failed int, set []metric) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range set {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		if _, dup := metrics[m.name]; dup {
			return nil, fmt.Errorf("metric %s reported twice", m.name)
		}
		metrics[m.name] = value{m.value, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, metrics})
}

// childResult is the parsed last line of an untraced twin run.
type childResult struct {
	metrics map[string]float64
	err     error
}

// runChild runs this binary untraced on the same workload and seed, in
// a fresh process, and waits for it to exit.
func runChild(o options) childResult {
	exe, err := os.Executable()
	if err != nil {
		return childResult{err: err}
	}
	args := []string{"--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0"}
	if o.toy {
		args = append(args, "--toy")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	if runErr != nil {
		return childResult{err: fmt.Errorf("untraced run: %w", runErr)}
	}
	var res struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return childResult{err: fmt.Errorf("untraced run output: %w", err)}
	}
	c := childResult{metrics: map[string]float64{}}
	for k, v := range res.Metrics {
		c.metrics[k] = v.Value
	}
	return c
}

// overhead adds the tracing overhead: traced minus untraced op_p50_ms
// and cpu_ms_per_op, the traced figures coming from this process.
func overhead(r *report, c childResult) {
	if c.err != nil {
		r.fail("%v", c.err)
		return
	}
	traced := map[string]float64{}
	for _, m := range r.e2eSet {
		traced[m.name] = m.value
	}
	for _, name := range []string{"op_p50_ms", "cpu_ms_per_op"} {
		un, ok := c.metrics[name]
		if !ok {
			r.fail("untraced run printed no %s", name)
			continue
		}
		d := traced[name] - un
		r.layer("trace.overhead_"+name, "ms", d)
		r.note("tracing overhead on %s: %+.4f ms (traced %.4f, untraced %.4f, %+.1f%%)", name, d, traced[name], un, 100*d/un)
	}
}

// setups runs build k times and reports setup_s: the median process
// CPU time (user + sys) of one set-up. CPU time, unlike wall time,
// does not grow with hypervisor steal, and still shows any work moved
// into set-up; the wall times are printed beside it. Every set-up but
// the last is released through its cleanup before the next starts; the
// last one is returned for the window.
func setups[T any](r *report, k int, build func() (T, func(), error)) (T, error) {
	var cpu, wall []float64
	var cur T
	var cleanup func()
	for i := 0; i < k; i++ {
		if cleanup != nil {
			cleanup()
			cleanup = nil
		}
		runtime.GC()
		c0, start := cpuSeconds(), time.Now()
		v, c, err := build()
		wall = append(wall, time.Since(start).Seconds())
		cpu = append(cpu, cpuSeconds()-c0)
		if err != nil {
			var zero T
			return zero, fmt.Errorf("set-up %d: %w", i, err)
		}
		cur, cleanup = v, c
	}
	r.e2e("setup_s", "s", median(cpu))
	r.note("setup_s: median CPU time of %d set-ups %v s; wall %v s", k, roundAll(cpu, 4), roundAll(wall, 4))
	return cur, nil
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}
