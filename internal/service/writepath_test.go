package service

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
)

// churnGen draws random edge inserts and deletes, in equal measure,
// that stay valid in order against the graph the service holds: it
// keeps its own record of every node's neighbors, in flat int32
// arrays so the generator adds no pointers for the collector to scan.
// Inserts keep both degrees at most maxDeg, so a palette of maxDeg+2
// colors always leaves repair room.
type churnGen struct {
	rng    *rand.Rand
	maxDeg int
	deg    []int32
	adj    []int32 // v's neighbors are adj[v*maxDeg : v*maxDeg+deg[v]]
}

func newChurnGen(base *graph.CSR, maxDeg int, seed int64) *churnGen {
	n := base.N()
	g := &churnGen{rng: rand.New(rand.NewSource(seed)), maxDeg: maxDeg,
		deg: make([]int32, n), adj: make([]int32, n*maxDeg)}
	for v := 0; v < n; v++ {
		for _, u := range base.Row(v) {
			g.link(v, u)
		}
	}
	return g
}

func (g *churnGen) row(v int) []int32 { return g.adj[v*g.maxDeg : v*g.maxDeg+int(g.deg[v])] }

func (g *churnGen) link(u, v int) {
	g.adj[u*g.maxDeg+int(g.deg[u])] = int32(v)
	g.deg[u]++
}

func (g *churnGen) unlink(u, v int) {
	row := g.row(u)
	i := slices.Index(row, int32(v))
	row[i] = row[len(row)-1]
	g.deg[u]--
}

// batch refills ops with the next k ops.
func (g *churnGen) batch(ops []Op, k int) []Op {
	ops = ops[:0]
	n := len(g.deg)
	for len(ops) < k {
		u := g.rng.Intn(n)
		if g.rng.Intn(2) == 0 {
			if g.deg[u] == 0 {
				continue
			}
			v := int(g.row(u)[g.rng.Intn(int(g.deg[u]))])
			g.unlink(u, v)
			g.unlink(v, u)
			ops = append(ops, Op{Action: OpRemoveEdge, U: u, V: v})
			continue
		}
		v := g.rng.Intn(n)
		if u == v || int(g.deg[u]) >= g.maxDeg || int(g.deg[v]) >= g.maxDeg || slices.Contains(g.row(u), int32(v)) {
			continue
		}
		g.link(u, v)
		g.link(v, u)
		ops = append(ops, Op{Action: OpAddEdge, U: u, V: v})
	}
	return ops
}

// BenchmarkServiceApplyBatch times one churn batch at the shape of the
// repository benchmark's churn workload: a 2·10⁵-node G(n, p) service
// with average degree 4 and 1000-op batches. Compactions launch and
// swap inside the timed batches, as they do in a long-running service.
func BenchmarkServiceApplyBatch(b *testing.B) {
	const n, avgDegree = 200_000, 4.0
	benchmarkApply(b, graph.StreamedGNP(n, avgDegree/float64(n-1), 1), 1000)
}

// BenchmarkServiceApplySmallBatch times one write at the shape of the
// repository benchmark's serve workload: 32-op batches on a 10⁵-node
// ring. Its B/op is the publish cost, which does not grow with n.
func BenchmarkServiceApplySmallBatch(b *testing.B) {
	benchmarkApply(b, graph.StreamedRing(100_000), 32)
}

// benchmarkApply times ApplyBatch on a service over base with the
// shared full palette of max degree + 4 colors, fed b.N batches of
// valid edge inserts and deletes generated before the timer starts.
// The timed region ends with one empty ApplyBatch, which waits for the
// last launched compaction to be swapped in: every compaction then
// runs inside the timed region, so B/op counts all of their
// allocation and reads the same from run to run.
func benchmarkApply(b *testing.B, base *graph.CSR, batchOps int) {
	const headroom = 4
	space := base.RawMaxDegree() + headroom
	svc, err := New(base, coloring.FullPalette(base.N(), space, 0), nil, Options{})
	if err != nil {
		b.Fatal(err)
	}
	gen := newChurnGen(base, space-2, 7)
	batches := make([][]Op, b.N)
	for i := range batches {
		batches[i] = gen.batch(make([]Op, 0, batchOps), batchOps)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, ops := range batches {
		rep, err := svc.ApplyBatch(ops)
		if err != nil || !rep.Converged {
			b.Fatalf("batch %d: converged %v, err %v", i, rep.Converged, err)
		}
	}
	if _, err := svc.ApplyBatch(nil); err != nil {
		b.Fatal(err)
	}
}

// TestApplyBatchAllocs guards the write path's per-batch memory: once
// warm, a small batch on a 5·10⁵-node ring allocates O(batch), not
// n-sized colors, heal or dirty-set state. A Snapshot pins its colors,
// so of the two batches after one, one copies the 8·n bytes of colors
// instead of reusing their buffer. A large CompactThreshold keeps
// compaction out of the window.
func TestApplyBatchAllocs(t *testing.T) {
	const n = 500_000
	svc := mustService(t, graph.StreamedRing(n), coloring.FullPalette(n, 4, 0), Options{CompactThreshold: n})
	// chords returns 5 inserts between distant degree-2 nodes, or the
	// 5 deletes that undo them, plus 5 ring-edge deletes or re-inserts.
	chords := func(action, ring string) []Op {
		var ops []Op
		for i := 1; i <= 5; i++ {
			u := i * (n / 11)
			ops = append(ops, Op{Action: action, U: u, V: u + n/2}, Op{Action: ring, U: u + 3, V: u + 4})
		}
		return ops
	}
	for _, ops := range [][]Op{chords(OpAddEdge, OpRemoveEdge), chords(OpRemoveEdge, OpAddEdge)} {
		if _, err := svc.ApplyBatch(ops); err != nil { // warm-up: sizes the lent state
			t.Fatal(err)
		}
	}
	// measure applies the batches and returns the bytes they allocated.
	measure := func(batches ...[]Op) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, ops := range batches {
			rep, err := svc.ApplyBatch(ops)
			if err != nil || rep.Applied != 10 || !rep.Converged || rep.Compacted {
				t.Fatalf("measured batch: %+v, err %v", rep, err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	got, limit := measure(chords(OpAddEdge, OpRemoveEdge)), uint64(256<<10)
	t.Logf("warm 10-op batch allocated %d bytes (limit %d)", got, limit)
	if got > limit {
		t.Fatalf("a warm 10-op batch on %d nodes allocated %d bytes, want ≤ 256 KiB", n, got)
	}
	svc.Snapshot()
	got, limit = measure(chords(OpRemoveEdge, OpAddEdge), chords(OpAddEdge, OpRemoveEdge)), uint64(8*n+256<<10)
	t.Logf("the two 10-op batches after a Snapshot allocated %d bytes (limit %d)", got, limit)
	if got > limit {
		t.Fatalf("the two 10-op batches after a Snapshot on %d nodes allocated %d bytes, want ≤ 8·n + 256 KiB = %d", n, got, limit)
	}
}

// TestSetListLeavesSharedRunIntact: the service's clone shares one
// list among the nodes of an identical run, so set_list must replace a
// node's list and budgets, never write through them — its neighbors in
// the run keep the palette, and so does the caller's instance.
func TestSetListLeavesSharedRunIntact(t *testing.T) {
	inst := coloring.FullPalette(12, 5, 0)
	full := slices.Clone(inst.Lists[0])
	svc := mustService(t, graph.StreamedRing(12), inst, Options{})
	if &svc.inst.Lists[4][0] != &svc.inst.Lists[6][0] {
		t.Fatal("clone did not share the run's list")
	}
	if _, err := svc.ApplyBatch([]Op{{Action: OpSetList, Node: 5, List: []int{3, 1}, Defects: []int{1, 0}}}); err != nil {
		t.Fatal(err)
	}
	if got := svc.inst.Lists[5]; !slices.Equal(got, []int{1, 3}) || !slices.Equal(svc.inst.Defects[5], []int{0, 1}) {
		t.Fatalf("node 5 list %v defects %v, want [1 3] [0 1]", got, svc.inst.Defects[5])
	}
	for _, v := range []int{4, 6} {
		if !slices.Equal(svc.inst.Lists[v], full) || slices.ContainsFunc(svc.inst.Defects[v], func(d int) bool { return d != 0 }) {
			t.Fatalf("set_list on node 5 changed node %d: list %v defects %v", v, svc.inst.Lists[v], svc.inst.Defects[v])
		}
	}
	for v := range inst.Lists {
		if !slices.Equal(inst.Lists[v], full) {
			t.Fatalf("set_list reached the caller's instance at node %d: %v", v, inst.Lists[v])
		}
	}
	if err := svc.ValidateState(); err != nil {
		t.Fatal(err)
	}
}
