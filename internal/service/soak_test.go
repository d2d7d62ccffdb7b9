package service

import (
	"math/rand"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
)

// TestServiceChurnSoakMillion is the acceptance soak: a 10⁶-node
// streamed ring under 10⁵ churn updates applied in batches of 1000,
// with a full conflict scan of the live state after every batch —
// zero validity violations tolerated. It also crosses the compaction
// threshold several times, so overlay → CSR folds happen under load.
// Skipped with -short; tier-1 `go test ./...` runs it (the scale-test
// convention from internal/sim/scale_test.go).
func TestServiceChurnSoakMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node churn soak skipped in -short mode")
	}
	const (
		n         = 1_000_000
		updates   = 100_000
		batchSize = 1000
		space     = 6
	)
	s := mustService(t, graph.StreamedRing(n), coloring.FullPalette(n, space, 0), Options{CompactThreshold: 50_000})
	if err := s.ValidateState(); err != nil {
		t.Fatalf("initial state: %v", err)
	}

	rng := rand.New(rand.NewSource(1))
	applied := 0
	batches := 0
	maxRounds := 0
	for applied < updates {
		var ops []Op
		for len(ops) < batchSize {
			u, v := rng.Intn(s.N()), rng.Intn(s.N())
			if u == v {
				continue
			}
			switch {
			case s.ov.HasEdge(u, v):
				ops = append(ops, Op{Action: OpRemoveEdge, U: u, V: v})
			case s.ov.Degree(u) < space-2 && s.ov.Degree(v) < space-2:
				ops = append(ops, Op{Action: OpAddEdge, U: u, V: v})
			default:
				continue
			}
		}
		rep, err := s.ApplyBatch(ops)
		if err != nil {
			t.Fatalf("batch %d: %v", batches, err)
		}
		if !rep.Converged {
			t.Fatalf("batch %d did not converge: %+v", batches, rep)
		}
		if rep.Fallbacks != 0 {
			t.Fatalf("batch %d needed %d fallbacks", batches, rep.Fallbacks)
		}
		// The acceptance check: full conflict scan between batches.
		if err := s.ValidateState(); err != nil {
			t.Fatalf("validity violation after batch %d: %v", batches, err)
		}
		applied += rep.Applied
		batches++
		if rep.Rounds > maxRounds {
			maxRounds = rep.Rounds
		}
	}

	st := s.Stats()
	if st.Updates < updates {
		t.Fatalf("stats report %d updates, applied %d", st.Updates, applied)
	}
	if st.Compactions == 0 {
		t.Error("soak never crossed the compaction threshold")
	}
	if st.RecolorLocality > 2.0 {
		t.Errorf("recolor locality %.2f: churn repair is not local", st.RecolorLocality)
	}
	t.Logf("soak: %d updates in %d batches, %.0f upd/s, locality %.3f, max rounds/batch %d, %d compactions, %d hard, %d recolored",
		applied, batches, st.UpdatesPerSec, st.RecolorLocality, maxRounds, st.Compactions, st.HardConflicts, st.Recolored)
}
