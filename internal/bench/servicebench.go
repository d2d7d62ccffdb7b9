package bench

// servicebench.go measures the incremental coloring service: churn
// throughput (updates/sec through the single-writer apply loop),
// recolor locality (nodes touched per update, the paper's locality
// argument made measurable), and read latency through the real HTTP
// stack while a writer goroutine keeps applying batches — the numbers
// recorded as the `service` section of BENCH_harness.json and
// refreshed by `make bench-service`.

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/service"
	"listcolor/internal/stats"
)

// ServiceBenchEntry is one churn-workload measurement.
type ServiceBenchEntry struct {
	Workload string `json:"workload"`
	Nodes    int    `json:"nodes"`
	Updates  int    `json:"updates"`
	Batches  int    `json:"batches"`
	// UpdatesPerSec is applied updates over the churn phase's wall time
	// (repair included — it is the maintenance cost being priced).
	UpdatesPerSec float64 `json:"updates_per_sec"`
	// Locality quantiles are over per-batch recolored-per-update
	// ratios; the mean is total recolored over total updates.
	LocalityMean  float64 `json:"locality_mean"`
	LocalityP50   float64 `json:"locality_p50"`
	LocalityP95   float64 `json:"locality_p95"`
	LocalityMax   float64 `json:"locality_max"`
	HardConflicts int64   `json:"hard_conflicts"`
	Recolored     int64   `json:"recolored"`
	Fallbacks     int64   `json:"fallbacks"`
	Compactions   int64   `json:"compactions"`
	// Read latency is measured via GET /v1/color/{node} against a
	// net/http/httptest server while a writer goroutine applies
	// batches continuously (lock-free snapshot reads under write load).
	Reads     int     `json:"reads"`
	ReadP50Us float64 `json:"read_p50_us"`
	ReadP99Us float64 `json:"read_p99_us"`
	// Valid is the post-run full conflict scan verdict.
	Valid bool `json:"valid"`
}

// serviceWorkload parameterizes one churn measurement.
type serviceWorkload struct {
	name    string
	build   func() *graph.CSR
	updates int
	batch   int
	reads   int
}

// ServiceWorkloads returns the measured workloads: a million-node
// streamed ring (the soak shape) and a sparse GNP, scaled down under
// quick.
func ServiceWorkloads(quick bool) []serviceWorkload {
	if quick {
		return []serviceWorkload{
			{name: "ring-churn", build: func() *graph.CSR { return graph.StreamedRing(50_000) }, updates: 10_000, batch: 500, reads: 300},
			{name: "gnp-churn", build: func() *graph.CSR { return graph.StreamedGNP(20_000, 1e-4, 11) }, updates: 5_000, batch: 500, reads: 300},
		}
	}
	return []serviceWorkload{
		{name: "ring-churn", build: func() *graph.CSR { return graph.StreamedRing(1_000_000) }, updates: 100_000, batch: 1000, reads: 2000},
		{name: "gnp-churn", build: func() *graph.CSR { return graph.StreamedGNP(200_000, 2e-5, 11) }, updates: 50_000, batch: 1000, reads: 2000},
	}
}

// RunServiceBench measures every service workload.
func RunServiceBench(quick bool) ([]ServiceBenchEntry, error) {
	var out []ServiceBenchEntry
	for _, w := range ServiceWorkloads(quick) {
		e, err := measureServiceWorkload(w)
		if err != nil {
			return nil, fmt.Errorf("service bench %s: %w", w.name, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// servicePalette builds the shared full-palette proper instance churn
// benchmarks run over.
func servicePalette(n, space int) *coloring.Instance {
	full := make([]int, space)
	for i := range full {
		full[i] = i
	}
	zeros := make([]int, space)
	inst := &coloring.Instance{Space: space, Lists: make([][]int, n), Defects: make([][]int, n)}
	for v := 0; v < n; v++ {
		inst.Lists[v] = full
		inst.Defects[v] = zeros
	}
	return inst
}

// churnBatch generates one feasibility-guarded batch of random edge
// inserts/deletes against the service's current topology.
func churnBatch(svc *service.Service, rng *rand.Rand, space, size int) []service.Op {
	type ekey [2]int
	pending := make(map[ekey]bool)
	degDelta := make(map[int]int)
	ops := make([]service.Op, 0, size)
	for len(ops) < size {
		u, v := rng.Intn(svc.N()), rng.Intn(svc.N())
		if u == v {
			continue
		}
		k := ekey{u, v}
		if u > v {
			k = ekey{v, u}
		}
		present, seen := pending[k]
		if !seen {
			present = svc.HasEdge(u, v)
		}
		switch {
		case present:
			ops = append(ops, service.Op{Action: service.OpRemoveEdge, U: u, V: v})
			pending[k] = false
			degDelta[u]--
			degDelta[v]--
		case svc.DegreeOf(u)+degDelta[u] < space-2 && svc.DegreeOf(v)+degDelta[v] < space-2:
			ops = append(ops, service.Op{Action: service.OpAddEdge, U: u, V: v})
			pending[k] = true
			degDelta[u]++
			degDelta[v]++
		}
	}
	return ops
}

func measureServiceWorkload(w serviceWorkload) (ServiceBenchEntry, error) {
	base := w.build()
	space := base.RawMaxDegree() + 4
	if space < 6 {
		space = 6
	}
	svc, err := service.New(base, servicePalette(base.N(), space), nil, service.Options{})
	if err != nil {
		return ServiceBenchEntry{}, err
	}
	e := ServiceBenchEntry{Workload: w.name, Nodes: base.N()}

	// Phase 1: churn throughput + per-batch locality.
	rng := rand.New(rand.NewSource(23))
	var localities []float64
	start := time.Now()
	for e.Updates < w.updates {
		ops := churnBatch(svc, rng, space, w.batch)
		rep, err := svc.ApplyBatch(ops)
		if err != nil {
			return e, err
		}
		e.Updates += rep.Applied
		e.Batches++
		if rep.Applied > 0 {
			localities = append(localities, float64(rep.Recolored)/float64(rep.Applied))
		}
	}
	churnWall := time.Since(start).Seconds()
	if churnWall > 0 {
		e.UpdatesPerSec = float64(e.Updates) / churnWall
	}
	sort.Float64s(localities)
	e.LocalityP50 = stats.Quantile(localities, 0.50)
	e.LocalityP95 = stats.Quantile(localities, 0.95)
	e.LocalityMax = localities[len(localities)-1]

	// Phase 2: read latency through httptest under live write load.
	// The writer paces itself with a short inter-batch gap: a zero-gap
	// spin loop on a single-core host measures scheduler starvation,
	// not the read path — paced batches keep repair work in flight
	// while letting the server goroutine run.
	srv := httptest.NewServer(service.NewHandler(svc))
	var stop atomic.Bool
	var wg sync.WaitGroup
	var writerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(29))
		for !stop.Load() {
			if _, err := svc.ApplyBatch(churnBatch(svc, wrng, space, w.batch/4+1)); err != nil {
				writerErr = err
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	client := srv.Client()
	lat := make([]float64, 0, w.reads)
	rrng := rand.New(rand.NewSource(31))
	for i := 0; i < w.reads; i++ {
		url := fmt.Sprintf("%s/v1/color/%d", srv.URL, rrng.Intn(base.N()))
		t0 := time.Now()
		resp, err := client.Get(url)
		dt := time.Since(t0)
		if err != nil {
			stop.Store(true)
			wg.Wait()
			srv.Close()
			return e, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			stop.Store(true)
			wg.Wait()
			srv.Close()
			return e, fmt.Errorf("read status %d", resp.StatusCode)
		}
		resp.Body.Close()
		lat = append(lat, float64(dt.Nanoseconds())/1e3)
	}
	stop.Store(true)
	wg.Wait()
	srv.Close()
	if writerErr != nil {
		return e, writerErr
	}
	sort.Float64s(lat)
	e.Reads = len(lat)
	e.ReadP50Us = stats.Quantile(lat, 0.50)
	e.ReadP99Us = stats.Quantile(lat, 0.99)

	st := svc.Stats()
	e.HardConflicts = st.HardConflicts
	e.Recolored = st.Recolored
	e.Fallbacks = st.Fallbacks
	e.Compactions = st.Compactions
	if st.Updates > 0 {
		e.LocalityMean = float64(st.Recolored) / float64(st.Updates)
	}
	e.Valid = svc.ValidateState() == nil
	return e, nil
}
