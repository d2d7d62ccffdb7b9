package graph

import (
	"reflect"
	"testing"
)

// mirrorView checks a TopoView row-for-row against an overlay.
func mirrorView(t *testing.T, view *TopoView, ov *Overlay, label string) {
	t.Helper()
	if view.N() != ov.N() || view.Arcs() != ov.arcs {
		t.Fatalf("%s: view n=%d arcs=%d, overlay n=%d arcs=%d", label, view.N(), view.Arcs(), ov.N(), ov.arcs)
	}
	for v := 0; v < ov.N(); v++ {
		if !reflect.DeepEqual(append([]int{}, view.Row(v)...), append([]int{}, ov.Neighbors(v)...)) {
			t.Fatalf("%s: row %d: view %v, overlay %v", label, v, view.Row(v), ov.Neighbors(v))
		}
	}
	next := 0
	view.EachRow(func(v int, row []int) {
		if v != next || !reflect.DeepEqual(append([]int{}, row...), append([]int{}, ov.Neighbors(v)...)) {
			t.Fatalf("%s: EachRow gave row %d as %v, want row %d, overlay %v", label, v, row, next, ov.Neighbors(next))
		}
		next++
	})
	if next != ov.N() {
		t.Fatalf("%s: EachRow visited %d of %d rows", label, next, ov.N())
	}
}

// TestTopoViewTracksOverlay drives an overlay through batched churn
// with a Publish after every batch and checks each published view
// matches the overlay state at its version — including stale older
// views staying frozen (immutability across COW generations).
func TestTopoViewTracksOverlay(t *testing.T) {
	base := StreamedRing(24)
	ov := NewOverlay(base)
	var view *TopoView

	type versioned struct {
		view *TopoView
		rows [][]int
	}
	var history []versioned

	record := func() {
		rows := make([][]int, ov.N())
		for v := 0; v < ov.N(); v++ {
			rows[v] = append([]int(nil), ov.Neighbors(v)...)
		}
		history = append(history, versioned{view: view, rows: rows})
	}

	batches := [][]func() error{
		{func() error { return ov.AddEdge(0, 5) }, func() error { return ov.AddEdge(3, 9) }},
		{func() error { ov.RemoveEdge(0, 1); return nil }, func() error { ov.AddNode(); return ov.AddEdge(24, 2) }},
		{func() error { ov.RemoveNode(5); return nil }},
		{func() error { return ov.AddEdge(5, 7) }, func() error { return ov.AddEdge(10, 14) }},
	}
	for bi, batch := range batches {
		for _, op := range batch {
			if err := op(); err != nil {
				t.Fatalf("batch %d: %v", bi, err)
			}
		}
		view = ov.Publish()
		mirrorView(t, view, ov, "live")
		record()
	}

	// Older views must still reflect their version exactly.
	for i, h := range history {
		for v := 0; v < h.view.N(); v++ {
			got := append([]int{}, h.view.Row(v)...)
			if !reflect.DeepEqual(got, append([]int{}, h.rows[v]...)) {
				t.Fatalf("version %d row %d changed: %v vs %v", i, v, got, h.rows[v])
			}
		}
	}

	// HasEdge/Degree consistency plus out-of-range behavior.
	if view.HasEdge(5, 7) != ov.HasEdge(5, 7) || view.Degree(24) != ov.Degree(24) {
		t.Fatal("HasEdge/Degree diverge from overlay")
	}
	if view.Row(-1) != nil || view.Row(view.N()) != nil || view.HasEdge(0, 999) {
		t.Fatal("out-of-range reads not nil/false")
	}
}

// TestTopoViewCollapse pins the depth bound: a long chain of
// publications collapses past collapseDepth and the collapsed view is
// row-identical to the chained one.
func TestTopoViewCollapse(t *testing.T) {
	ov := NewOverlay(StreamedRing(16))
	var view *TopoView
	for i := 0; i < collapseDepth+10; i++ {
		u := i % 16
		w := (u + 3 + i%5) % 16
		if u != w && !ov.HasEdge(u, w) {
			if err := ov.AddEdge(u, w); err != nil {
				t.Fatal(err)
			}
		} else if ov.HasEdge(u, w) {
			ov.RemoveEdge(u, w)
		}
		view = ov.Publish()
	}
	if view.Depth() > collapseDepth {
		t.Fatalf("depth %d exceeds bound %d", view.Depth(), collapseDepth)
	}
	mirrorView(t, view, ov, "collapsed")
	collapsed := view.collapse()
	mirrorView(t, collapsed, ov, "explicit collapse")
	// Publishing with nothing mutated returns the same view.
	if ov.Publish() != view {
		t.Fatal("empty Publish did not return the previous view")
	}
}

// TestFingerprintGolden pins the shared structure hash to fixed values,
// so a change to its mixing cannot silently re-key every recorded
// fingerprint, and checks that the Graph, CSR and TopoView forms of one
// labeled graph agree.
func TestFingerprintGolden(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(1, 3)
	cases := []struct {
		name      string
		got, want uint64
	}{
		{"ring17 csr", StreamedRing(17).Fingerprint(), 0x9c0a643d26174776},
		{"ring17 view", NewTopoView(StreamedRing(17)).Fingerprint(), 0x9c0a643d26174776},
		{"gnp csr", StreamedGNP(300, 0.02, 5).Fingerprint(), 0xd888fab75774140f},
		{"empty graph", New(0).Fingerprint(), 0xa8c7f832281a39c5},
		{"graph4", g.Fingerprint(), 0x3a20e4515ed0d922},
		{"graph4 csr", CSRFromGraph(g).Fingerprint(), 0x3a20e4515ed0d922},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s: fingerprint %#x, want %#x", tc.name, tc.got, tc.want)
		}
	}
}

// TestOverlayUnpatchedReadAllocs is the satellite pin: steady-state
// reads on unpatched rows — the overwhelming majority on a compacted
// substrate — allocate nothing.
func TestOverlayUnpatchedReadAllocs(t *testing.T) {
	ov := NewOverlay(StreamedRing(1024))
	if err := ov.AddEdge(0, 2); err != nil { // one patched row pair
		t.Fatal(err)
	}
	view := ov.Publish()
	sink := 0
	allocs := testing.AllocsPerRun(200, func() {
		for v := 100; v < 140; v++ {
			sink += len(ov.Neighbors(v))
			if ov.HasEdge(v, v+1) {
				sink++
			}
			sink += ov.Degree(v)
		}
	})
	if allocs != 0 {
		t.Fatalf("unpatched reads allocate %.1f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		for v := 100; v < 140; v++ {
			sink += len(view.Row(v))
			if view.HasEdge(v, v+1) {
				sink++
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("TopoView reads allocate %.1f/op, want 0", allocs)
	}
	_ = sink
}

// TestOverlayToggleSpareCapacity pins the unpublished write path:
// after warm-up, repeatedly toggling edges on already-patched rows
// allocates nothing per op, because a private row's spare capacity
// absorbs the regrowth.
func TestOverlayToggleSpareCapacity(t *testing.T) {
	ov := NewOverlay(StreamedRing(256))
	// Nothing is published: the rows stay private and mutable in place.
	for v := 0; v < 64; v++ {
		if err := ov.AddEdge(v, v+100); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for v := 0; v < 64; v++ {
			ov.RemoveEdge(v, v+100)
			if err := ov.AddEdge(v, v+100); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state edge toggles allocate %.2f/op, want ~0", allocs)
	}
}

func BenchmarkOverlayNeighborsUnpatched(b *testing.B) {
	ov := NewOverlay(StreamedRing(1 << 16))
	b.ReportAllocs()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += len(ov.Neighbors(i & 0xffff))
	}
	_ = sink
}

func BenchmarkOverlayNeighborsPatched(b *testing.B) {
	ov := NewOverlay(StreamedRing(1 << 16))
	for v := 0; v < 1<<16; v += 2 {
		if err := ov.AddEdge(v, (v+7)&0xffff); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += len(ov.Neighbors(i & 0xffff))
	}
	_ = sink
}

func BenchmarkOverlayHasEdgeUnpatched(b *testing.B) {
	ov := NewOverlay(StreamedRing(1 << 16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := i & 0xffff
		ov.HasEdge(v, (v+1)&0xffff)
	}
}

func BenchmarkOverlayHasEdgePatched(b *testing.B) {
	ov := NewOverlay(StreamedRing(1 << 16))
	for v := 0; v < 1<<16; v += 2 {
		if err := ov.AddEdge(v, (v+7)&0xffff); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i & 0xffff
		ov.HasEdge(v, (v+1)&0xffff)
	}
}
