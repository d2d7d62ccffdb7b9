package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
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

// pinnedView is a published view and a copy of the overlay's rows
// taken when it was published.
type pinnedView struct {
	view *TopoView
	rows [][]int
}

// pinView copies ov's rows next to view, which ov just published.
func pinView(view *TopoView, ov *Overlay) *pinnedView {
	rows := make([][]int, ov.N())
	for v := range rows {
		rows[v] = append([]int(nil), ov.Neighbors(v)...)
	}
	return &pinnedView{view: view, rows: rows}
}

// diff reports the first row the view no longer reads as it was
// published. It takes no *testing.T, so reader goroutines call it too.
func (p *pinnedView) diff() error {
	if p.view.N() != len(p.rows) {
		return fmt.Errorf("view n=%d, published with %d rows", p.view.N(), len(p.rows))
	}
	for v, want := range p.rows {
		if got := p.view.Row(v); !slices.Equal(got, want) {
			return fmt.Errorf("row %d reads %v, published as %v", v, got, want)
		}
	}
	return nil
}

// TestTopoViewTracksOverlay drives an overlay through batched churn
// with a Publish after every batch and checks each published view
// matches the overlay state at its version — including stale older
// views staying frozen (immutability across COW generations).
func TestTopoViewTracksOverlay(t *testing.T) {
	base := StreamedRing(24)
	ov := NewOverlay(base)
	var view *TopoView
	var history []*pinnedView

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
		history = append(history, pinView(view, ov))
	}

	// Older views must still reflect their version exactly.
	for i, h := range history {
		if err := h.diff(); err != nil {
			t.Fatalf("version %d: %v", i, err)
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

// TestTopoViewLongHistory publishes after every edge toggle and checks
// that, after 18 publications, both the newest view and the first one
// read the overlay's rows at their versions, and that a Publish with
// nothing mutated returns the previous view.
func TestTopoViewLongHistory(t *testing.T) {
	ov := NewOverlay(StreamedRing(16))
	var first, newest *pinnedView
	for i := 0; i < 18; i++ {
		u := i % 16
		w := (u + 3 + i%5) % 16
		if ov.HasEdge(u, w) {
			ov.RemoveEdge(u, w)
		} else if err := ov.AddEdge(u, w); err != nil {
			t.Fatal(err)
		}
		newest = pinView(ov.Publish(), ov)
		if first == nil {
			first = newest
		}
	}
	mirrorView(t, newest.view, ov, "newest")
	if err := first.diff(); err != nil {
		t.Fatalf("first view: %v", err)
	}
	if ov.Publish() != newest.view {
		t.Fatal("empty Publish did not return the previous view")
	}
}

// reachableVersions counts the row versions the overlay's array
// reaches, superseded ones included.
func (o *Overlay) reachableVersions() int {
	count := 0
	for v := range o.rows {
		for ver := o.rows[v].Load(); ver != nil; ver = ver.prev {
			count++
		}
	}
	return count
}

// TestOverlayHistoryBounded toggles one edge with a Publish after
// every toggle, 10·n times, on an overlay that never compacts. The
// superseded versions the array keeps reachable must stay within
// max(Patched, n/16) (the fresh-array rule), and the first view must
// still read its own rows from the array it was published with.
func TestOverlayHistoryBounded(t *testing.T) {
	const n = 64
	ov := NewOverlay(StreamedRing(n))
	var first *pinnedView
	for i := 0; i < 10*n; i++ {
		if !ov.RemoveEdge(0, 2) {
			if err := ov.AddEdge(0, 2); err != nil {
				t.Fatal(err)
			}
		}
		if view := ov.Publish(); first == nil {
			first = pinView(view, ov)
		}
		bound := ov.Patched() + max(ov.Patched(), n/16) + 2
		if got := ov.reachableVersions(); got > bound {
			t.Fatalf("publication %d: the array reaches %d versions, bound %d (patched %d)", i, got, bound, ov.Patched())
		}
	}
	if ov.Patched() != 2 {
		t.Fatalf("Patched = %d, want 2", ov.Patched())
	}
	if err := first.diff(); err != nil {
		t.Fatalf("first view after %d publications: %v", 10*n, err)
	}
}

// TestTopoViewConcurrentReaders runs one writer that mutates, appends
// vertices past the row array's capacity, publishes and starts fresh
// arrays, while reader goroutines re-read the views they hold and
// compare them with the rows copied at publication. Run it under
// -race: readers load row versions while the writer stores new ones
// into the same arrays.
func TestTopoViewConcurrentReaders(t *testing.T) {
	const n, publications, readers = 48, 400, 2
	ov := NewOverlay(StreamedRing(n))
	var latest atomic.Pointer[pinnedView]
	latest.Store(pinView(ov.Publish(), ov))
	done := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []*pinnedView
			for {
				select {
				case <-done:
					return
				default:
				}
				if p := latest.Load(); len(held) == 0 || held[len(held)-1] != p {
					held = append(held, p)
					if len(held) > 8 {
						held = held[1:]
					}
				}
				for _, p := range held {
					if err := p.diff(); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(1))
	grown, fresh := 0, 0
	for i := 0; i < publications; i++ {
		for k := 0; k < 4; k++ {
			switch u, w, op := rng.Intn(ov.N()), rng.Intn(ov.N()), rng.Intn(20); {
			case op == 0:
				if len(ov.rows) == cap(ov.rows) {
					grown++
				}
				if err := ov.AddEdge(ov.AddNode(), u); err != nil {
					t.Fatal(err)
				}
			case op == 1:
				ov.RemoveNode(u)
			case u != w && !ov.RemoveEdge(u, w):
				if err := ov.AddEdge(u, w); err != nil {
					t.Fatal(err)
				}
			}
		}
		superseded := ov.superseded
		p := pinView(ov.Publish(), ov)
		if superseded > 0 && ov.superseded == 0 {
			fresh++
		}
		latest.Store(p)
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if grown == 0 || fresh == 0 {
		t.Fatalf("the writer grew the array %d times and started %d fresh arrays; want both", grown, fresh)
	}
	t.Logf("%d publications, %d array growths, %d fresh arrays", publications, grown, fresh)
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
		{"ring17 view", NewOverlay(StreamedRing(17)).Publish().Fingerprint(), 0x9c0a643d26174776},
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
