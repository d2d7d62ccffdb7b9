package service

import (
	"slices"
	"sync"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
)

// TestSnapshotReadsLockFree pins the read-path contract: Stats,
// HasEdge, DegreeOf, Color, and ColorsOf are served from the atomic
// snapshot and never take the writer lock — calling them while the
// lock is held must not deadlock.
func TestSnapshotReadsLockFree(t *testing.T) {
	s := mustService(t, graph.StreamedRing(32), coloring.FullPalette(32, 4, 0), Options{})
	if _, err := s.ApplyBatch([]Op{{Action: OpAddEdge, U: 0, V: 2}}); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}

	s.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if !s.HasEdge(0, 2) {
			t.Error("HasEdge(0,2) = false after insert")
		}
		if d := s.DegreeOf(0); d != 3 {
			t.Errorf("DegreeOf(0) = %d, want 3", d)
		}
		if st := s.Stats(); st.Updates != 1 {
			t.Errorf("Stats().Updates = %d, want 1", st.Updates)
		}
		if _, _, ok := s.Color(0); !ok {
			t.Error("Color(0) not ok")
		}
		if _, _, ok := s.ColorsOf([]int{0, 1}); !ok {
			t.Error("ColorsOf not ok")
		}
	}()
	<-done
	s.mu.Unlock()
}

// TestServiceConcurrentCompactionReadWrite is the -race soak for the
// topology read path: a writer applies churn-script batches with a
// small compaction threshold while reader goroutines hammer the
// snapshot endpoints, including topology reads through the published
// TopoView chain across background compaction swaps.
func TestServiceConcurrentCompactionReadWrite(t *testing.T) {
	const n = 600
	base := graph.StreamedRing(n)
	inst := slackInstance(base)
	s := mustService(t, base, inst, Options{CompactThreshold: 32})
	script := churnScript(base, 30, 8, 99)
	fillSetLists(script, inst.Space)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := i % s.N()
				s.Color(v)
				s.HasEdge(v, (v+1)%n)
				s.DegreeOf(v)
				s.Stats()
				s.ColorsOf([]int{v, (v + 7) % n})
				snap := s.Snapshot()
				if snap.Topo.N() != len(snap.Colors) {
					t.Errorf("snapshot topo n=%d vs %d colors", snap.Topo.N(), len(snap.Colors))
					return
				}
				i++
			}
		}(g)
	}

	for bi, ops := range script {
		if _, err := s.ApplyBatch(ops); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := s.ValidateState(); err != nil {
		t.Fatalf("final state invalid: %v", err)
	}
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatal("soak never compacted")
	}
}

// benchReads is the read mix the lock-contention satellite measures:
// previously Stats/HasEdge/DegreeOf took the writer lock and stalled
// behind ApplyBatch; now all three serve from the atomic snapshot.
func benchReads(s *Service, i, n int) int {
	v := i % n
	sink := 0
	if s.HasEdge(v, (v+1)%n) {
		sink++
	}
	sink += s.DegreeOf(v)
	sink += int(s.Stats().Updates)
	return sink
}

// BenchmarkSnapshotReadsIdleWriter is the baseline read cost with no
// writer traffic.
func BenchmarkSnapshotReadsIdleWriter(b *testing.B) {
	const n = 4096
	base := graph.StreamedRing(n)
	s, err := New(base, coloring.FullPalette(n, 4, 0), nil, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += benchReads(s, i, n)
	}
	_ = sink
}

// BenchmarkSnapshotReadsBusyWriter is the same read mix while a
// writer applies churn batches flat out. With lock-served reads this
// degraded by the writer's batch occupancy (multi-millisecond
// stalls); with snapshot-served reads the per-read cost stays within
// a small constant of the idle baseline.
func BenchmarkSnapshotReadsBusyWriter(b *testing.B) {
	const n = 4096
	base := graph.StreamedRing(n)
	inst := slackInstance(base)
	s, err := New(base, inst, nil, Options{})
	if err != nil {
		b.Fatal(err)
	}
	script := churnScript(base, 64, 32, 1)
	fillSetLists(script, inst.Space)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = s.ApplyBatch(script[i%len(script)])
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += benchReads(s, i, n)
	}
	b.StopTimer()
	close(stop)
	<-done
	_ = sink
}

// TestBackgroundCompactionSwap pins the off-critical-path compaction
// protocol against an overlay that never compacts: the launch batch
// reports Compacted; the next batch swaps in a fresh overlay over a
// CSR equal to the state the launch batch published, so only the rows
// that batch touched stay patched; and reads after the swap, and under
// further churn, equal the never-compacted overlay's.
func TestBackgroundCompactionSwap(t *testing.T) {
	base := graph.StreamedRing(64)
	s := mustService(t, base, coloring.FullPalette(64, 5, 0), Options{CompactThreshold: 8})
	ref := graph.NewOverlay(base) // never compacts: the oracle
	apply := func(label string, ops []Op) BatchReport {
		t.Helper()
		rep, err := s.ApplyBatch(ops)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, op := range ops {
			switch op.Action {
			case OpAddEdge:
				err = ref.AddEdge(op.U, op.V)
			case OpRemoveEdge:
				ref.RemoveEdge(op.U, op.V)
			case OpAddNode:
				ref.AddNode()
			case OpRemoveNode:
				ref.RemoveNode(op.Node)
			}
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
		}
		return rep
	}
	matchesRef := func(label string) {
		t.Helper()
		topo := s.Snapshot().Topo
		if topo.N() != ref.N() || topo.Arcs() != 2*ref.M() {
			t.Fatalf("%s: snapshot n=%d arcs=%d, reference n=%d arcs=%d", label, topo.N(), topo.Arcs(), ref.N(), 2*ref.M())
		}
		for v := 0; v < ref.N(); v++ {
			if !slices.Equal(topo.Row(v), ref.Neighbors(v)) {
				t.Fatalf("%s: row %d: snapshot %v, reference %v", label, v, topo.Row(v), ref.Neighbors(v))
			}
		}
		if err := s.ValidateState(); err != nil {
			t.Fatalf("%s: state invalid: %v", label, err)
		}
	}

	var launched bool
	for i := 0; i < 12 && !launched; i++ {
		u := (3 * i) % 64
		launched = apply("churn", []Op{
			{Action: OpAddEdge, U: u, V: (u + 5) % 64},
			{Action: OpAddEdge, U: (u + 11) % 64, V: (u + 17) % 64},
		}).Compacted
	}
	if !launched {
		t.Fatal("compaction never launched")
	}
	if got := s.Stats().Compactions; got != 1 {
		t.Fatalf("Compactions = %d, want 1", got)
	}
	patchedAtLaunch := s.Stats().Patched
	if patchedAtLaunch <= 8 {
		t.Fatalf("patched = %d at launch, want > threshold", patchedAtLaunch)
	}
	atLaunch := s.Snapshot().Topo

	// The next batch waits for the compaction and swaps; the overlay
	// holds only the two rows this batch touched.
	apply("swap batch", []Op{{Action: OpAddEdge, U: 1, V: 30}})
	csr := s.ov.Base()
	if csr == base {
		t.Fatal("no compaction swap happened")
	}
	if csr.N() != atLaunch.N() || csr.Arcs() != atLaunch.Arcs() {
		t.Fatalf("compacted CSR n=%d arcs=%d, launch state n=%d arcs=%d", csr.N(), csr.Arcs(), atLaunch.N(), atLaunch.Arcs())
	}
	for v := 0; v < csr.N(); v++ {
		if !slices.Equal(csr.Row(v), atLaunch.Row(v)) {
			t.Fatalf("compacted CSR row %d = %v, launch state %v", v, csr.Row(v), atLaunch.Row(v))
		}
	}
	if got := s.Stats().Patched; got != 2 {
		t.Fatalf("patched = %d after swap, want the 2 rows the swap batch touched", got)
	}
	matchesRef("after swap")

	// Churn continues on the swapped overlay.
	apply("post-swap churn", []Op{{Action: OpRemoveEdge, U: 1, V: 30}, {Action: OpAddNode}, {Action: OpAddEdge, U: 64, V: 5}})
	matchesRef("post-swap churn")
	apply("post-swap node removal", []Op{{Action: OpRemoveNode, Node: 0}, {Action: OpAddEdge, U: 2, V: 40}})
	matchesRef("post-swap node removal")
}

// TestTopologyFingerprintMatchesCompactedCSR pins the claim in
// TopologyFingerprint's doc: after churn and a background compaction
// swap, the snapshot's topology (compacted CSR plus delta chain)
// hashes to the same value as the live overlay folded into a fresh
// CSR.
func TestTopologyFingerprintMatchesCompactedCSR(t *testing.T) {
	base := graph.StreamedRing(200)
	inst := slackInstance(base)
	s := mustService(t, base, inst, Options{CompactThreshold: 16})
	script := churnScript(base, 20, 8, 5)
	fillSetLists(script, inst.Space)
	for bi, ops := range script {
		if _, err := s.ApplyBatch(ops); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		csr := graph.CSRFromGraph(s.ov.Graph())
		if got, want := s.TopologyFingerprint(), csr.Fingerprint(); got != want {
			t.Fatalf("batch %d: TopologyFingerprint %#x, compacted CSR %#x", bi, got, want)
		}
	}
	if s.ov.Base() == base {
		t.Fatal("no compaction swap happened")
	}
	if s.ov.Patched() == 0 {
		t.Fatal("no patches over the swapped base")
	}
}
