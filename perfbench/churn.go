package main

import (
	"math/rand"
	"time"

	"listcolor/internal/bench"
	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/service"
)

// edgeOp is a pre-generated churn op in compact form: the window turns
// each batch into service ops in one reused buffer, so the inputs of a
// whole run fit in a few tens of MB.
type edgeOp struct {
	u, v int32
	add  bool
}

// fullPalette gives every node the palette [0, space) with zero defect
// budgets, the instance colord serves.
func fullPalette(n, space int) *coloring.Instance {
	full := make([]int, space)
	zero := make([]int, space)
	for i := range full {
		full[i] = i
	}
	inst := &coloring.Instance{Space: space, Lists: make([][]int, n), Defects: make([][]int, n)}
	for v := 0; v < n; v++ {
		inst.Lists[v], inst.Defects[v] = full, zero
	}
	return inst
}

// edgeGen generates random edge inserts and deletes, in equal measure,
// that are valid against the graph the service holds: the generator
// keeps its own record of every node's neighbors, seeded from the base
// CSR's rows. A delete removes a random edge at a random node; an
// insert joins two random non-adjacent nodes whose degrees stay below
// space-2, so the full palette always leaves repair room and the
// degrees stay near the base graph's.
type edgeGen struct {
	rng    *rand.Rand
	n      int
	maxDeg int
	deg    []int32
	adj    []int32 // node v's neighbors are adj[v*maxDeg : v*maxDeg+deg[v]]
}

func newEdgeGen(base *graph.CSR, space int, seed int64) *edgeGen {
	n, maxDeg := base.N(), space-2
	g := &edgeGen{rng: rand.New(rand.NewSource(seed)), n: n, maxDeg: maxDeg,
		deg: make([]int32, n), adj: make([]int32, n*maxDeg)}
	for v := 0; v < n; v++ {
		for _, u := range base.Neighbors(v) {
			g.link(v, u)
		}
	}
	return g
}

func (g *edgeGen) row(v int) []int32 { return g.adj[v*g.maxDeg : v*g.maxDeg+int(g.deg[v])] }

func (g *edgeGen) has(u, v int) bool {
	for _, w := range g.row(u) {
		if int(w) == v {
			return true
		}
	}
	return false
}

func (g *edgeGen) link(u, v int) {
	g.adj[u*g.maxDeg+int(g.deg[u])] = int32(v)
	g.deg[u]++
}

func (g *edgeGen) unlink(u, v int) {
	row := g.row(u)
	for i, w := range row {
		if int(w) == v {
			row[i] = row[len(row)-1]
			g.deg[u]--
			return
		}
	}
}

// batch returns the next k ops.
func (g *edgeGen) batch(k int) []edgeOp {
	ops := make([]edgeOp, 0, k)
	for len(ops) < k {
		u := g.rng.Intn(g.n)
		if g.rng.Intn(2) == 0 {
			if g.deg[u] == 0 {
				continue
			}
			v := int(g.row(u)[g.rng.Intn(int(g.deg[u]))])
			g.unlink(u, v)
			g.unlink(v, u)
			ops = append(ops, edgeOp{int32(u), int32(v), false})
			continue
		}
		v := g.rng.Intn(g.n)
		if u == v || int(g.deg[u]) >= g.maxDeg || int(g.deg[v]) >= g.maxDeg || g.has(u, v) {
			continue
		}
		g.link(u, v)
		g.link(v, u)
		ops = append(ops, edgeOp{int32(u), int32(v), true})
	}
	return ops
}

// toOps renders a compact batch into buf.
func toOps(buf []service.Op, batch []edgeOp) []service.Op {
	buf = buf[:0]
	for _, e := range batch {
		action := service.OpRemoveEdge
		if e.add {
			action = service.OpAddEdge
		}
		buf = append(buf, service.Op{Action: action, U: int(e.u), V: int(e.v)})
	}
	return buf
}

// churnSetup is what churn and serve build before their windows.
type churnSetup struct {
	base  *graph.CSR
	space int
	inst  *coloring.Instance
	svc   *service.Service
}

// repairSums accumulates the BatchReport counters of a run's leading
// batches, which the seed fixes exactly.
type repairSums struct {
	batches, updates, dirty, hard, scanned, recolored, roundsMax, compactions int64
}

func (s *repairSums) add(rep service.BatchReport) {
	s.batches++
	s.updates += int64(rep.Applied)
	s.dirty += int64(rep.Dirty)
	s.hard += int64(rep.Hard)
	s.scanned += int64(rep.Scanned)
	s.recolored += int64(rep.Recolored)
	if int64(rep.Rounds) > s.roundsMax {
		s.roundsMax = int64(rep.Rounds)
	}
	if rep.Compacted {
		s.compactions++
	}
}

func (s *repairSums) report(r *report) {
	per := func(x int64) float64 { return float64(x) / float64(max(s.updates, 1)) }
	r.layer("compact.count", "count", float64(s.compactions))
	r.layer("repair.scanned_per_update", "1", per(s.scanned))
	r.layer("repair.recolored_per_update", "1", per(s.recolored))
	r.layer("repair.rounds_max", "count", float64(s.roundsMax))
	r.layer("service.dirty_per_update", "1", per(s.dirty))
	r.layer("service.hard_per_update", "1", per(s.hard))
	r.note("exact repair counts over the first %d batches (%d updates): dirty %d, hard %d, scanned %d, recolored %d, max rounds %d, compactions %d",
		s.batches, s.updates, s.dirty, s.hard, s.scanned, s.recolored, s.roundsMax, s.compactions)
}

// periodic counts the batches a periodic event touched: compaction
// launches, the swap that follows each launch, and topology-view
// collapses (the published view's delta chain getting shorter).
type periodic struct {
	launches, swaps, collapses int
	swapLat                    []float64
	lastDepth                  int
	launched                   bool
}

func (p *periodic) observe(rep service.BatchReport, lat float64, depth int) {
	if p.launched {
		p.swaps++
		p.swapLat = append(p.swapLat, lat)
	}
	p.launched = rep.Compacted
	if rep.Compacted {
		p.launches++
	}
	if depth < p.lastDepth {
		p.collapses++
	}
	p.lastDepth = depth
}

// emptyBatchMS probes the fixed per-batch cost: the median of k empty
// batches.
func emptyBatchMS(r *report, k int, apply func([]service.Op) (service.BatchReport, error)) float64 {
	var xs []float64
	for i := 0; i < k; i++ {
		sp := r.tr.begin("service.empty_batch", -1, -1)
		start := time.Now()
		if _, err := apply(nil); err != nil {
			r.fail("empty batch: %v", err)
		}
		xs = append(xs, msSince(start))
		r.tr.end(sp)
	}
	return median(xs)
}

// auditService runs the whole-state checks after a window: the
// service's own validator and audit, and an independent audit of the
// colors a reader sees in the published snapshot.
func auditService(o options, r *report, svc *service.Service, inst *coloring.Instance) {
	sp := r.tr.begin("coloring.validate", -1, -1)
	start := time.Now()
	err := svc.ValidateState()
	r.layer("coloring.validate_ms", "ms", msSince(start))
	r.tr.end(sp)
	if err != nil {
		r.fail("ValidateState: %v", err)
	}
	sp = r.tr.begin("coloring.audit", -1, -1)
	start = time.Now()
	rep := svc.AuditState(0)
	r.layer("coloring.audit_ms", "ms", msSince(start))
	r.tr.end(sp)
	if rep.Err() != nil {
		r.fail("AuditState: %v", rep.Err())
	}
	snap := svc.Snapshot()
	colors := append([]int(nil), snap.Colors...)
	if o.corrupt {
		u := snap.Topo.Neighbors(0)
		if len(u) > 0 {
			colors[0] = colors[u[0]]
		}
	}
	if rep := coloring.AuditParallel(snap.Topo, inst, colors, 0); rep.Err() != nil {
		r.fail("snapshot read audit at version %d: %v", snap.Version, rep.Err())
	}
}

// runChurn: a closed loop of ApplyBatch calls on a G(n, p) substrate,
// fed 1000-op batches of random edge inserts and deletes generated
// before the window.
func runChurn(o options, r *report) error {
	n, batchOps, exactBatches, maxRate := 200_000, 1000, 200, 200.0
	if o.toy {
		n, batchOps, exactBatches, maxRate = 4000, 100, 10, 2000
	}
	const avgDegree, headroom = 4.0, 4
	st, err := setups(r, 7, func() (churnSetup, func(), error) {
		base := graph.StreamedGNP(n, avgDegree/float64(n-1), o.seed)
		space := base.RawMaxDegree() + headroom
		inst := fullPalette(n, space)
		svc, err := service.New(base, inst, nil, service.Options{})
		return churnSetup{base, space, inst, svc}, nil, err
	})
	if err != nil {
		return err
	}
	gen := newEdgeGen(st.base, st.space, o.seed*7919+1)
	batches := make([][]edgeOp, int(maxRate*o.seconds)+exactBatches)
	for i := range batches {
		batches[i] = gen.batch(batchOps)
	}
	buf := make([]service.Op, 0, batchOps)

	var lat []float64
	var sums repairSums
	var ev periodic
	applied := 0
	w := openWindow()
	deadline := w.start.Add(time.Duration(o.seconds * float64(time.Second)))
	for b := 0; b < len(batches) && time.Now().Before(deadline); b++ {
		ops := toOps(buf, batches[b])
		sp := r.tr.begin("service.ApplyBatch", -1, int64(b))
		start := time.Now()
		rep, err := st.svc.ApplyBatch(ops)
		l := msSince(start)
		r.tr.end(sp)
		lat = append(lat, l)
		r.attempted++
		applied += rep.Applied
		if b < exactBatches {
			sums.add(rep)
		}
		ev.observe(rep, l, st.svc.Snapshot().Topo.Depth())
		switch {
		case err != nil:
			r.opFailed("batch %d: %v", b, err)
		case !rep.Converged:
			r.opFailed("batch %d: repair did not converge", b)
		}
	}
	w.close()
	peak := float64(bench.PeakRSSBytes()) / (1 << 20)
	if len(lat) == len(batches) {
		r.note("WARNING: the window used up all %d pre-generated batches and ended after %.3f s", len(batches), w.wall)
	}
	if sums.batches < int64(exactBatches) {
		r.fail("window applied %d batches, fewer than the %d the exact counts cover", sums.batches, exactBatches)
	}

	r.latency("op", lat, 0.99)
	r.note("throughput_per_s %.1f applied updates per second", float64(applied)/w.wall)
	w.report(r, len(lat))
	r.e2e("peak_rss_mb", "MB", peak)
	r.note("periodic events over %d batches: %d compaction launches, %d swaps, %d view collapses (%.1f%%, %.1f%% of batches)",
		len(lat), ev.launches, ev.swaps, ev.collapses, 100*float64(ev.swaps)/float64(len(lat)), 100*float64(ev.collapses)/float64(len(lat)))

	sums.report(r)
	swapMS := median(ev.swapLat)
	r.layer("compact.swap_share", "1", sum(ev.swapLat)/sum(lat))
	empty := emptyBatchMS(r, 21, st.svc.ApplyBatch)
	r.note("layer times: service.empty_batch_ms %.4f, compact.swap_ms %.4f (p50 of %d swaps)", empty, swapMS, len(ev.swapLat))
	auditService(o, r, st.svc, st.inst)
	return nil
}
