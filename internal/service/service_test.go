package service

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/repair"
)

func mustService(t *testing.T, base *graph.CSR, inst *coloring.Instance, opts Options) *Service {
	t.Helper()
	s, err := New(base, inst, nil, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestServiceLifecycle(t *testing.T) {
	s := mustService(t, graph.StreamedRing(12), coloring.FullPalette(12, 4, 0), Options{})
	if err := s.ValidateState(); err != nil {
		t.Fatalf("initial state invalid: %v", err)
	}
	if c, ver, ok := s.Color(3); !ok || ver != 0 || c < 0 || c >= 4 {
		t.Fatalf("Color(3) = (%d, %d, %v)", c, ver, ok)
	}
	if _, _, ok := s.Color(12); ok {
		t.Fatal("Color(12) accepted an unknown node")
	}

	rep, err := s.ApplyBatch([]Op{
		{Action: OpAddEdge, U: 0, V: 6},
		{Action: OpAddEdge, U: 3, V: 9},
		{Action: OpRemoveEdge, U: 1, V: 2},
	})
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if rep.Applied != 3 || rep.Dirty != 6 || !rep.Converged || rep.Version != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if err := s.ValidateState(); err != nil {
		t.Fatalf("state invalid after batch: %v", err)
	}
	snap := s.Snapshot()
	if snap.Version != 1 || len(snap.Colors) != 12 {
		t.Fatalf("snapshot = version %d, %d colors", snap.Version, len(snap.Colors))
	}
	cs, ver, ok := s.ColorsOf([]int{0, 6, 3, 9})
	if !ok || ver != 1 || len(cs) != 4 {
		t.Fatalf("ColorsOf = (%v, %d, %v)", cs, ver, ok)
	}
	if cs[0] == cs[1] || cs[2] == cs[3] {
		t.Fatalf("inserted edges still monochromatic: %v", cs)
	}

	st := s.Stats()
	if st.Batches != 1 || st.Updates != 3 || st.Edges != 12+2-1 || st.Nodes != 12 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServiceNodeChurn(t *testing.T) {
	s := mustService(t, graph.StreamedRing(8), coloring.FullPalette(8, 4, 0), Options{})
	rep, err := s.ApplyBatch([]Op{
		{Action: OpAddNode},
		{Action: OpAddNode, List: []int{1, 2}, Defects: []int{0, 0}},
	})
	if err != nil {
		t.Fatalf("add nodes: %v", err)
	}
	if !reflect.DeepEqual(rep.NewNodes, []int{8, 9}) {
		t.Fatalf("NewNodes = %v", rep.NewNodes)
	}
	if s.N() != 10 {
		t.Fatalf("N = %d", s.N())
	}
	if _, err := s.ApplyBatch([]Op{
		{Action: OpAddEdge, U: 8, V: 0},
		{Action: OpAddEdge, U: 9, V: 8},
		{Action: OpAddEdge, U: 9, V: 1},
	}); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := s.ValidateState(); err != nil {
		t.Fatalf("after attach: %v", err)
	}
	if c, _, ok := s.Color(9); !ok || (c != 1 && c != 2) {
		t.Fatalf("node 9 color %d outside its custom list", c)
	}

	rep, err = s.ApplyBatch([]Op{{Action: OpRemoveNode, Node: 8}})
	if err != nil {
		t.Fatalf("remove node: %v", err)
	}
	if rep.Dirty != 3 { // 8 and its former neighbors 0, 9
		t.Fatalf("remove-node dirty = %d, want 3", rep.Dirty)
	}
	if err := s.ValidateState(); err != nil {
		t.Fatalf("after remove: %v", err)
	}

	// set_list forces a recolor when the current color leaves the list;
	// the unsorted input also exercises list normalization.
	c9, _, _ := s.Color(9)
	newList := []int{3, 3 - c9} // excludes the current color (1 or 2)
	rep, err = s.ApplyBatch([]Op{{Action: OpSetList, Node: 9, List: newList}})
	if err != nil {
		t.Fatalf("set_list: %v", err)
	}
	if rep.Hard != 1 || rep.Recolored < 1 || !rep.Converged {
		t.Fatalf("set_list report = %+v", rep)
	}
	if c, _, _ := s.Color(9); c != newList[0] && c != newList[1] {
		t.Fatalf("node 9 color %d after list change to %v", c, newList)
	}
}

func TestServiceBatchRejection(t *testing.T) {
	s := mustService(t, graph.StreamedRing(10), coloring.FullPalette(10, 4, 0), Options{})
	rep, err := s.ApplyBatch([]Op{
		{Action: OpAddEdge, U: 0, V: 5},
		{Action: OpAddEdge, U: 2, V: 2}, // self-loop: rejected
		{Action: OpAddEdge, U: 1, V: 6}, // never applied
	})
	if !errors.Is(err, ErrOp) {
		t.Fatalf("err = %v, want ErrOp", err)
	}
	if rep.Applied != 1 || rep.Version != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if err := s.ValidateState(); err != nil {
		t.Fatalf("state invalid after rejected batch: %v", err)
	}
	st := s.Stats()
	if st.Updates != 1 || st.Rejected != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// The accepted prefix is live, the suffix is not.
	cs, _, _ := s.ColorsOf([]int{1, 6})
	_ = cs
	for _, bad := range [][]Op{
		{{Action: "nonsense"}},
		{{Action: OpRemoveEdge, U: 1, V: 6}},
		{{Action: OpSetList, Node: 3, List: []int{99}}},
		{{Action: OpSetList, Node: 3, List: []int{1}, Defects: []int{0, 0}}},
		{{Action: OpSetList, Node: 3, List: []int{1}, Defects: []int{-1}}},
		{{Action: OpSetList, Node: 3, List: []int{1, 1}}},
		{{Action: OpRemoveNode, Node: 77}},
	} {
		if _, err := s.ApplyBatch(bad); !errors.Is(err, ErrOp) {
			t.Errorf("ops %+v: err = %v, want ErrOp", bad, err)
		}
	}
}

func TestServiceCompaction(t *testing.T) {
	s := mustService(t, graph.StreamedRing(64), coloring.FullPalette(64, 5, 0), Options{CompactThreshold: 8})
	rng := rand.New(rand.NewSource(2))
	sawCompact := false
	for b := 0; b < 10; b++ {
		var ops []Op
		for i := 0; i < 6; i++ {
			u, v := rng.Intn(64), rng.Intn(64)
			if u == v || s.ov.HasEdge(u, v) || s.ov.Degree(u) >= 3 || s.ov.Degree(v) >= 3 {
				continue
			}
			ops = append(ops, Op{Action: OpAddEdge, U: u, V: v})
		}
		rep, err := s.ApplyBatch(ops)
		if err != nil && !errors.Is(err, ErrOp) {
			t.Fatalf("batch %d: %v", b, err)
		}
		if rep.Compacted {
			sawCompact = true
		}
		if err := s.ValidateState(); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	if !sawCompact {
		t.Fatal("compaction never triggered at threshold 8")
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("compactions not counted")
	}
}

// TestServiceDifferentialGlobalRepair is the churn locality contract
// (the tentpole's correctness argument): for random batches, the
// service's incremental post-repair coloring — HealLocal seeded only
// at the dirty set — must be byte-identical to repairing the *whole*
// mutated graph from the same pre-batch coloring with the global
// full-scan solver, whenever repair reports zero hard-conflict
// fallbacks. The reference replays each batch on its own overlay +
// instance and runs repair.Heal.
func TestServiceDifferentialGlobalRepair(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		base := graph.StreamedGNP(50, 0.08, seed)
		space := 2*base.RawMaxDegree() + 10
		inst := coloring.FullPalette(50, space, 0)
		s := mustService(t, base, inst, Options{})

		ref := graph.NewOverlay(base)
		refInst := inst.Clone()
		refColors := append([]int(nil), s.Snapshot().Colors...)

		rng := rand.New(rand.NewSource(seed * 131))
		for batch := 0; batch < 25; batch++ {
			var ops []Op
			for i := 0; i < 4; i++ {
				switch k := rng.Intn(10); {
				case k < 5:
					u, v := rng.Intn(s.N()), rng.Intn(s.N())
					if u != v && !ref.HasEdge(u, v) &&
						ref.Degree(u) < space-2 && ref.Degree(v) < space-2 {
						ops = append(ops, Op{Action: OpAddEdge, U: u, V: v})
					}
				case k < 8:
					u := rng.Intn(s.N())
					row := ref.Neighbors(u)
					if len(row) > 0 {
						ops = append(ops, Op{Action: OpRemoveEdge, U: u, V: row[rng.Intn(len(row))]})
					}
				case k < 9:
					ops = append(ops, Op{Action: OpAddNode})
				default:
					v := rng.Intn(s.N())
					list := []int{rng.Intn(space), space - 1 - rng.Intn(space/2)}
					if list[0] == list[1] {
						list = list[:1]
					}
					ops = append(ops, Op{Action: OpSetList, Node: v, List: list})
				}
			}
			rep, err := s.ApplyBatch(ops)
			if err != nil {
				t.Fatalf("seed %d batch %d: %v (ops %+v)", seed, batch, err, ops)
			}

			// Replay on the reference state.
			for _, op := range ops {
				switch op.Action {
				case OpAddEdge:
					if err := ref.AddEdge(op.U, op.V); err != nil {
						t.Fatalf("ref AddEdge: %v", err)
					}
				case OpRemoveEdge:
					if !ref.RemoveEdge(op.U, op.V) {
						t.Fatalf("ref RemoveEdge {%d,%d} absent", op.U, op.V)
					}
				case OpAddNode:
					ref.AddNode()
					full := make([]int, space)
					for i := range full {
						full[i] = i
					}
					refInst.Lists = append(refInst.Lists, full)
					refInst.Defects = append(refInst.Defects, make([]int, space))
					refColors = append(refColors, full[0])
				case OpSetList:
					// Mirror the service's list normalization.
					sorted := append([]int(nil), op.List...)
					sort.Ints(sorted)
					refInst.Lists[op.Node] = sorted
					refInst.Defects[op.Node] = make([]int, len(sorted))
				}
			}
			hr := repair.Heal(ref, refInst, refColors, repair.HealOptions{})
			if rep.Fallbacks == 0 {
				if !reflect.DeepEqual(refColors, s.Snapshot().Colors) {
					t.Fatalf("seed %d batch %d: incremental coloring diverges from global repair", seed, batch)
				}
				if !hr.Converged || !rep.Converged {
					t.Fatalf("seed %d batch %d: converged local=%v global=%v", seed, batch, rep.Converged, hr.Converged)
				}
			}
			if err := s.ValidateState(); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
		}
	}
}

// TestServiceConcurrentReadWrite is the race soak CI runs with -race
// -count 2: one writer applying batches, several lock-free readers
// checking snapshot self-consistency (colors array intact, versions
// monotone) plus stats reads.
func TestServiceConcurrentReadWrite(t *testing.T) {
	const n = 2000
	s := mustService(t, graph.StreamedRing(n), coloring.FullPalette(n, 6, 0), Options{})
	var stop atomic.Bool
	var wg sync.WaitGroup

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			lastVer := uint64(0)
			for !stop.Load() {
				snap := s.Snapshot()
				if snap.Version < lastVer {
					t.Errorf("reader %d: version went backwards %d -> %d", r, lastVer, snap.Version)
					return
				}
				lastVer = snap.Version
				if len(snap.Colors) < n {
					t.Errorf("reader %d: snapshot shrank to %d", r, len(snap.Colors))
					return
				}
				v := rng.Intn(n)
				if c, _, ok := s.Color(v); !ok || c < 0 || c >= 6 {
					t.Errorf("reader %d: Color(%d) = (%d, %v)", r, v, c, ok)
					return
				}
				_ = s.Stats()
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(7))
	for b := 0; b < 60; b++ {
		var ops []Op
		for i := 0; i < 20; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if s.ov.HasEdge(u, v) {
				ops = append(ops, Op{Action: OpRemoveEdge, U: u, V: v})
			} else if s.ov.Degree(u) < 4 && s.ov.Degree(v) < 4 {
				ops = append(ops, Op{Action: OpAddEdge, U: u, V: v})
			}
		}
		if _, err := s.ApplyBatch(ops); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := s.ValidateState(); err != nil {
		t.Fatal(err)
	}
}
