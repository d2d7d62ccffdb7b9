package graph

import (
	"fmt"
	"sync/atomic"
)

// TopoView is the immutable, lock-free topology snapshot an Overlay
// publishes (Overlay.Publish) and the incremental coloring service
// serves next to each color snapshot: the base CSR, the overlay's row
// array as of the publication, and the generation the publication
// sealed. A view reads vertex v by loading v's newest row version and
// following prev past versions younger than its generation, falling
// back to the base row — no locks, no copies — while the writer keeps
// mutating its overlay. A row untouched since the publication takes
// no step.
type TopoView struct {
	base *CSR
	// rows[v] is the newest version of v's row in the array the view
	// was published with; the overlay keeps storing newer versions into
	// it until it outgrows it or starts a fresh array, and the view
	// skips them.
	rows    []atomic.Pointer[rowVersion]
	gen     int
	patched int
	n       int
	arcs    int64
}

// N returns the vertex count at the view's version.
func (t *TopoView) N() int { return t.n }

// M returns the undirected edge count at the view's version.
func (t *TopoView) M() int64 { return t.arcs / 2 }

// Arcs returns the directed-edge count 2·M.
func (t *TopoView) Arcs() int64 { return t.arcs }

// Depth returns 0. It stays only for a caller that still reports it,
// perfbench's churn workload.
func (t *TopoView) Depth() int { return 0 }

// version returns the newest version of v's row that the view's
// generation sealed, or nil when v reads the base row.
func (t *TopoView) version(v int) *rowVersion {
	ver := t.rows[v].Load()
	for ver != nil && ver.gen > t.gen {
		ver = ver.prev
	}
	return ver
}

// Row returns v's sorted neighbor list at the view's version: its
// row version, else the base row. The slice is owned by the view and
// must not be modified. Out-of-range vertices yield nil.
func (t *TopoView) Row(v int) []int {
	if v < 0 || v >= t.n {
		return nil
	}
	return t.row(v)
}

// row is Row for v in [0, n).
func (t *TopoView) row(v int) []int {
	if ver := t.version(v); ver != nil {
		return ver.adj
	}
	if v < t.base.N() {
		return t.base.Row(v)
	}
	return nil
}

// EachRow calls fn(v, Row(v)) for every vertex in ascending id order.
func (t *TopoView) EachRow(fn func(v int, row []int)) {
	for v := 0; v < t.n; v++ {
		fn(v, t.row(v))
	}
}

// Neighbors is Row under the repair.Topology method name.
func (t *TopoView) Neighbors(v int) []int { return t.Row(v) }

// Degree returns the degree of v at the view's version (0 when out of
// range).
func (t *TopoView) Degree(v int) int { return len(t.Row(v)) }

// HasEdge reports whether {u, v} is present at the view's version, by
// binary search on u's row.
func (t *TopoView) HasEdge(u, v int) bool { return hasEdge(t.n, u, v, t.row) }

// hasEdge reports whether u ≠ v are both in [0, n) and v is in u's
// sorted row, read by row: the edge query of Overlay and TopoView.
func hasEdge(n, u, v int, row func(int) []int) bool {
	if u < 0 || u >= n || v < 0 || v >= n || u == v {
		return false
	}
	r := row(u)
	i := searchInts(r, v)
	return i < len(r) && r[i] == v
}

// patchRow is a patched vertex and its row at the view's version.
type patchRow struct {
	id  int
	row []int
}

// Compact folds the view into a fresh CSR by a run-copy merge: one
// pass over the ids sets the row offsets and collects the patched
// rows, and the column array is filled with one copy per maximal run
// of unpatched base rows and one per patched row. Base rows were
// checked when their CSR was built; a patched row that is unsorted,
// repeats a neighbor, or holds its own id or an id outside [0, n), and
// rows that do not sum to the view's arc count, make Compact return an
// error instead of a CSR. Symmetry is not rechecked: the overlay's API
// keeps rows symmetric. The view is immutable, so Compact may run on
// any goroutine while the overlay that published it keeps mutating.
func (t *TopoView) Compact() (*CSR, error) {
	n, base := t.n, t.base
	rowPtr := make([]int64, n+1)
	patches := make([]patchRow, 0, t.patched)
	for v := 0; v < n; v++ {
		d := 0
		if ver := t.version(v); ver != nil {
			patches = append(patches, patchRow{v, ver.adj})
			d = len(ver.adj)
		} else if v < base.N() {
			d = base.Degree(v)
		}
		rowPtr[v+1] = rowPtr[v] + int64(d)
	}
	arcs := rowPtr[n]
	if arcs != t.arcs {
		return nil, fmt.Errorf("graph: view has %d arcs, its rows sum to %d", t.arcs, arcs)
	}
	if err := checkArcCount(arcs, maxIntArcs); err != nil {
		return nil, err
	}
	col := make([]int, arcs)
	// copyBase copies the unpatched base rows [lo, hi) in one run; ids
	// past the base that no version covers are isolated.
	copyBase := func(lo, hi int) {
		if hi = min(hi, base.N()); lo < hi {
			copy(col[rowPtr[lo]:rowPtr[hi]], base.col[base.rowPtr[lo]:base.rowPtr[hi]])
		}
	}
	lo := 0
	for _, p := range patches {
		if err := checkRow(p.id, p.row, n); err != nil {
			return nil, err
		}
		copyBase(lo, p.id)
		copy(col[rowPtr[p.id]:], p.row)
		lo = p.id + 1
	}
	copyBase(lo, n)
	return &CSR{n: n, rowPtr: rowPtr, col: col}, nil
}

// Fingerprint returns the structure hash of the topology at the
// view's version — the same value CSR.Fingerprint gives for the same
// labeled graph, whatever versions the view reads.
func (t *TopoView) Fingerprint() uint64 {
	return fingerprint(t.n, t.row)
}

// searchInts is sort.SearchInts without the interface indirection —
// the view read path stays allocation-free and inlinable.
func searchInts(row []int, x int) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
