package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The self-tests build the benchmark once and run every workload at toy
// size in fresh processes, as the real runs do.
var (
	binary  string
	workDir string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binary = filepath.Join(dir, "perfbench")
	workDir = filepath.Join(dir, "work")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building the benchmark: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type layerMap struct {
	Workloads map[string]struct {
		Boundaries []string `json:"boundaries"`
	} `json:"workloads"`
	PerLayer map[string]json.RawMessage `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestMetricLists pins the program's metric lists to BENCHMARK.json and
// checks the layer map covers every workload and per-layer metric.
func TestMetricLists(t *testing.T) {
	var b benchFile
	readJSON(t, "../BENCHMARK.json", &b)
	var lm layerMap
	readJSON(t, "layermap.json", &lm)
	check := func(kind string, got []spec, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Fatalf("%s: program lists %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
			if got[i].zeroIfUn && (got[i].unit == "ms" || got[i].unit == "s") {
				t.Errorf("%s: %s is a time but may read 0", kind, got[i].name)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	for _, m := range b.PerLayer {
		if _, ok := lm.PerLayer[m.Name]; !ok {
			t.Errorf("layermap.json has no entry for %s", m.Name)
		}
	}
	if len(lm.PerLayer) != len(b.PerLayer) {
		t.Errorf("layermap.json maps %d per-layer metrics, BENCHMARK.json lists %d", len(lm.PerLayer), len(b.PerLayer))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
		if len(lm.Workloads[w.Name].Boundaries) == 0 {
			t.Errorf("layermap.json lists no span boundaries for %s", w.Name)
		}
	}
}

// result is the parsed last line of a run.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runToy runs one toy-size invocation and returns its exit code, parsed
// result and full output.
func runToy(t *testing.T, workload string, seed, trace int, extra ...string) (int, result, string) {
	t.Helper()
	args := append([]string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", "1", "--trace", fmt.Sprint(trace), "--toy"}, extra...)
	cmd := exec.Command(binary, args...)
	cmd.Env = append(os.Environ(), "PERFBENCH_WORKDIR="+workDir)
	out, err := cmd.Output()
	code := 0
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out)
	}
	return code, res, string(out)
}

// checkMetrics asserts the result holds exactly the listed metrics,
// each with its unit.
func checkMetrics(t *testing.T, res result, want []spec) {
	t.Helper()
	for _, s := range want {
		m, ok := res.Metrics[s.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", s.name)
		case m.Unit != s.unit:
			t.Errorf("metric %s has unit %q, want %q", s.name, m.Unit, s.unit)
		case !s.zeroIfUn && m.Value == 0:
			t.Errorf("metric %s reads 0", s.name)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics printed, %d listed", len(res.Metrics), len(want))
	}
}

// spanNames reads the distinct span names of a traced run's span file.
func spanNames(t *testing.T, workload string, seed int) map[string]bool {
	t.Helper()
	f, err := os.Open(filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.csv.gz", workload, seed)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	sc := bufio.NewScanner(zr)
	for sc.Scan() {
		if fields := strings.Split(sc.Text(), ","); len(fields) == 6 {
			names[fields[3]] = true
		}
	}
	return names
}

// exactNames are the per-layer counts a seed fixes bit for bit.
var exactNames = []string{
	"sim.rounds", "sim.messages", "sim.bits",
	"deltaplus1.oldc_calls", "deltaplus1.scales", "deltaplus1.bootstrap_rounds", "deltaplus1.split_rounds", "deltaplus1.class_rounds",
	"compact.count", "repair.scanned_per_update", "repair.recolored_per_update", "repair.rounds_max",
	"service.dirty_per_update", "service.hard_per_update", "checkpoint.count", "recovery.replayed_ops",
}

func TestWorkloads(t *testing.T) {
	var lm layerMap
	readJSON(t, "layermap.json", &lm)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			code, res, out := runToy(t, w, 3, 0)
			if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("untraced run: exit %d, %+v\n%s", code, res, out)
			}
			checkMetrics(t, res, endToEnd)

			code, traced, out := runToy(t, w, 3, 1)
			if code != 0 || !traced.Correct {
				t.Fatalf("traced run: exit %d\n%s", code, out)
			}
			checkMetrics(t, traced, perLayer)
			names := spanNames(t, w, 3)
			for _, b := range lm.Workloads[w].Boundaries {
				if !names[b] {
					t.Errorf("traced run recorded no %s span", b)
				}
			}

			// The exact counts repeat bit for bit for one seed.
			_, again, _ := runToy(t, w, 3, 1)
			for _, name := range exactNames {
				if a, b := traced.Metrics[name].Value, again.Metrics[name].Value; a != b {
					t.Errorf("%s: %v then %v for the same seed", name, a, b)
				}
			}

			// A wrong answer fails the gate and the exit code.
			code, bad, out := runToy(t, w, 3, 0, "--corrupt")
			if code != 1 || bad.Correct || !strings.Contains(out, "GATE FAILED") {
				t.Errorf("corrupted run: exit %d, correct %v\n%s", code, bad.Correct, out)
			}
		})
	}
}

// TestQuantile pins the interpolation rule.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	got := []float64{quantile(xs, 0), quantile(xs, 0.5), quantile(xs, 1), quantile(xs, 0.9)}
	if want := []float64{1, 2.5, 4, 3.7}; !reflect.DeepEqual(roundAll(got, 9), want) {
		t.Errorf("quantiles %v, want %v", got, want)
	}
}
