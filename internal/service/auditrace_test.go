package service

import (
	"sync"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
)

// Race soak for the parallel defect-audit kernel under churn: while a
// writer applies edge batches, readers continuously audit lock-free
// snapshots (Topo + Colors) with a reader-owned instance at several
// worker counts. Every snapshot is post-repair state, so every audit
// must come back valid AND identical across worker counts; the -race
// CI job runs this to prove the range-partitioned scan never touches
// writer state. (The instance is reader-owned because the service may
// mutate its own under the writer lock; audits are read-only over the
// published snapshot.)
func TestAuditParallelSnapshotRaceSoak(t *testing.T) {
	n, space := 600, 8
	s := mustService(t, graph.StreamedRing(n), coloring.FullPalette(n, space, 0), Options{})
	inst := coloring.FullPalette(n, space, 0) // reader-owned copy, never mutated

	const batches = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				seq := coloring.Audit(snap.Topo, inst, snap.Colors)
				if !seq.Valid() {
					t.Errorf("snapshot v%d audits invalid: %v", snap.Version, seq.Violation)
					return
				}
				for _, w := range []int{2, 5} {
					par := coloring.AuditParallel(snap.Topo, inst, snap.Colors, w)
					if !coloring.AuditReportsEqual(seq, par) {
						t.Errorf("snapshot v%d: workers=%d report diverges", snap.Version, w)
						return
					}
				}
			}
		}()
	}

	// Writer: toggle chord edges (v, v+2) on and off — degrees stay
	// ≤ 4, well inside the palette, so repair always succeeds.
	for b := 0; b < batches; b++ {
		var ops []Op
		action := OpAddEdge
		if b%2 == 1 {
			action = OpRemoveEdge // remove exactly what the previous batch added
		}
		for v := (b / 2) % 7; v < n-2; v += 7 {
			ops = append(ops, Op{Action: action, U: v, V: v + 2})
		}
		if _, err := s.ApplyBatch(ops); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	close(stop)
	wg.Wait()

	if err := s.ValidateState(); err != nil {
		t.Fatalf("final state invalid: %v", err)
	}
}
