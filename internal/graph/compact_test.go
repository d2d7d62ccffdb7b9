package graph

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
)

// streamedFold is the reference fold for TopoView.Compact: a two-pass
// StreamCSR build over the view's rows, each edge emitted once from its
// lower endpoint.
func streamedFold(view *TopoView) (*CSR, error) {
	return StreamCSR(view.N(), func(emit func(u, v int)) {
		for u := 0; u < view.N(); u++ {
			for _, v := range view.Row(u) {
				if v > u {
					emit(u, v)
				}
			}
		}
	})
}

// FuzzTopoViewCompact decodes arbitrary bytes into an op stream on a
// small overlay — edge inserts and deletes, node adds and removes,
// publications, and compactions onto a fresh overlay — and demands
// that every compaction equals the streamed reference fold of the same
// view. It also keeps the last few published views, each with a copy
// of its rows, and re-reads every one after each later op: that walks
// row versions past younger ones, across AddNode growing the row array
// past its capacity and across fresh arrays (at n ≤ 64, n/16 is tiny).
func FuzzTopoViewCompact(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{12, 3, 0, 1, 5, 2, 3, 4, 6, 0, 9, 3, 4, 7, 1, 2, 3, 5})
	long := []byte{20, 9}
	for i := byte(0); i < 24; i++ {
		long = append(long, 0, i, 3*i+1, 5, 2, i+2, i, 4, i, 6)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		ov := NewOverlay(StreamedGNP(next()%24+1, 0.15, int64(next())))
		var kept []*pinnedView
		publish := func() *TopoView {
			view := ov.Publish()
			if len(kept) == 0 || kept[len(kept)-1].view != view {
				kept = append(kept, pinView(view, ov))
				if len(kept) > 4 {
					kept = kept[1:]
				}
			}
			return view
		}
		compact := func() {
			view := publish()
			got, err := view.Compact()
			if err != nil {
				t.Fatalf("Compact: %v", err)
			}
			want, err := streamedFold(view)
			if err != nil {
				t.Fatalf("streamed fold: %v", err)
			}
			assertCSREqualsGraph(t, got, want.Graph())
			if err := got.Validate(); err != nil {
				t.Fatalf("merged CSR invalid: %v", err)
			}
			ov = NewOverlay(got)
		}
		for len(data) > 0 {
			switch next() % 8 {
			case 0, 1:
				u, v := next()%ov.N(), next()%ov.N()
				if u != v && !ov.HasEdge(u, v) {
					if err := ov.AddEdge(u, v); err != nil {
						t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
					}
				}
			case 2:
				ov.RemoveEdge(next()%ov.N(), next()%ov.N())
			case 3:
				if ov.N() < 64 { // keeps each input's cost linear in its length
					ov.AddNode()
				}
			case 4:
				ov.RemoveNode(next() % ov.N())
			case 5, 6:
				publish()
			case 7:
				compact()
			}
			for i, p := range kept {
				if err := p.diff(); err != nil {
					t.Fatalf("kept view %d of %d: %v", i, len(kept), err)
				}
			}
		}
		compact()
	})
}

// TestTopoViewCompactRejectsCorruptViews hand-builds version arrays
// whose row for vertex 0, or whose arc count, breaks the CSR
// invariants; Compact must return an error for each instead of a CSR.
// A younger, malformed version sits on top of each corrupt row, and
// the view must skip it: a view that read it would fail those cases
// with a self-loop, and the valid control would not compact.
func TestTopoViewCompactRejectsCorruptViews(t *testing.T) {
	ring := StreamedRing(6) // row 0 is [1 5]; 12 arcs
	view := func(arcs int64, row0 []int) *TopoView {
		rows := make([]atomic.Pointer[rowVersion], 6)
		if row0 != nil {
			rows[0].Store(&rowVersion{adj: []int{0, 9}, gen: 2, prev: &rowVersion{adj: row0, gen: 1}})
		}
		return &TopoView{base: ring, rows: rows, gen: 1, patched: 1, n: 6, arcs: arcs}
	}
	cases := []struct {
		name string
		view *TopoView
		want error // nil: any error
	}{
		{"unsorted row", view(12, []int{5, 1}), nil},
		{"duplicate neighbor", view(12, []int{1, 1}), ErrParallelEdge},
		{"self-loop", view(12, []int{0, 1}), ErrSelfLoop},
		{"out-of-range id", view(12, []int{1, 6}), ErrVertexRange},
		{"arc-count mismatch", view(14, nil), nil},
		{"one-sided row", view(12, []int{1, 2, 5}), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.view.Compact()
			if err == nil {
				t.Fatalf("accepted a corrupt view: %v", c)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
	if _, err := view(12, []int{1, 5}).Compact(); err != nil {
		t.Fatalf("valid view under a malformed younger version: %v", err)
	}
}

var compactSink *CSR

// BenchmarkTopoViewCompact folds a view at churn's compaction point: a
// 2·10⁵-node G(n, p) substrate of average degree 4, churned by 1000-op
// insert/delete batches with one Publish per batch until more than n/8
// rows are patched (the service's default compaction threshold).
func BenchmarkTopoViewCompact(b *testing.B) {
	const n, batch = 200_000, 1000
	ov := NewOverlay(StreamedGNP(n, 4.0/(n-1), 1))
	rng := rand.New(rand.NewSource(2))
	var view *TopoView
	for ov.Patched() <= n/8 {
		for ops := 0; ops < batch; {
			u := rng.Intn(n)
			if rng.Intn(2) == 0 {
				if row := ov.Neighbors(u); len(row) > 0 {
					ov.RemoveEdge(u, row[rng.Intn(len(row))])
					ops++
				}
				continue
			}
			if v := rng.Intn(n); u != v && !ov.HasEdge(u, v) {
				if err := ov.AddEdge(u, v); err != nil {
					b.Fatal(err)
				}
				ops++
			}
		}
		view = ov.Publish()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := view.Compact()
		if err != nil {
			b.Fatal(err)
		}
		compactSink = c
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}
