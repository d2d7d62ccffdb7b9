package graph

import "fmt"

// TopoView is the immutable, lock-free topology snapshot an Overlay
// publishes (Overlay.Publish) and the incremental coloring service
// serves next to each color snapshot: a base CSR plus a chain of
// per-publication delta maps (the rows each batch mutated). Readers
// resolve a row by walking the chain newest-first and falling back to
// the base — no locks, no copies — while the writer keeps mutating its
// overlay, because overlay rows become copy-on-write the moment they
// are published into a view.
//
// The chain depth is bounded: it grows by one per publication, starts
// over on a fresh overlay over a newly compacted CSR, and collapses
// eagerly to a single delta map once it exceeds collapseDepth (so a
// service configured never to compact still reads in O(1) map probes).
type TopoView struct {
	base   *CSR
	parent *TopoView
	// delta holds the rows the producing batch mutated. A present
	// entry fully replaces deeper rows (nil means isolated). The map
	// and its row slices are immutable once the view is constructed.
	delta map[int][]int
	n     int
	arcs  int64
	depth int
}

// collapseDepth caps the delta-chain length; beyond it extend merges
// the chain into one map so read cost stays bounded between
// compactions. Every snapshot read of a patched-or-not row probes up
// to depth maps before falling through to the CSR, so the cap is kept
// small: collapsing merges only the accumulated patch union (cheap,
// amortized over the window) while each extra level taxes every read.
const collapseDepth = 8

// NewTopoView returns a view of the bare CSR (no deltas).
func NewTopoView(base *CSR) *TopoView {
	return &TopoView{base: base, n: base.N(), arcs: base.Arcs()}
}

// extend layers one publication's mutated rows over the view. The
// delta map and its row slices transfer ownership to the view and must
// not be mutated afterwards. An empty delta with unchanged counts
// returns the receiver unchanged.
func (t *TopoView) extend(delta map[int][]int, n int, arcs int64) *TopoView {
	if len(delta) == 0 && n == t.n && arcs == t.arcs {
		return t
	}
	nt := &TopoView{base: t.base, parent: t, delta: delta, n: n, arcs: arcs, depth: t.depth + 1}
	if nt.depth > collapseDepth {
		return nt.collapse()
	}
	return nt
}

// collapse merges the delta chain into a single-level view (newest
// entry wins per row). The map is sized for the chain's entries, a
// bound on its distinct rows, so it never grows. The receiver is
// unchanged.
func (t *TopoView) collapse() *TopoView {
	merged := make(map[int][]int, t.chainEntries())
	for v := t; v != nil; v = v.parent {
		for id, row := range v.delta {
			if _, ok := merged[id]; !ok {
				merged[id] = row
			}
		}
	}
	return &TopoView{base: t.base, delta: merged, n: t.n, arcs: t.arcs}
}

// chainEntries returns the number of delta entries along the chain,
// repeats of a row included.
func (t *TopoView) chainEntries() int {
	size := 0
	for view := t; view != nil; view = view.parent {
		size += len(view.delta)
	}
	return size
}

// N returns the vertex count at the view's version.
func (t *TopoView) N() int { return t.n }

// M returns the undirected edge count at the view's version.
func (t *TopoView) M() int64 { return t.arcs / 2 }

// Arcs returns the directed-edge count 2·M.
func (t *TopoView) Arcs() int64 { return t.arcs }

// Depth returns the delta-chain length (diagnostics).
func (t *TopoView) Depth() int { return t.depth }

// Row returns v's sorted neighbor list at the view's version: the
// newest delta entry covering v, else the base row. The slice is
// owned by the view and must not be modified. Out-of-range vertices
// yield nil.
func (t *TopoView) Row(v int) []int {
	if v < 0 || v >= t.n {
		return nil
	}
	for view := t; view != nil; view = view.parent {
		if row, ok := view.delta[v]; ok {
			return row
		}
	}
	if v < t.base.N() {
		return t.base.Row(v)
	}
	return nil
}

// EachRow calls fn(v, Row(v)) for every vertex in ascending id order.
// It resolves the delta chain once for the whole walk, where a Row
// call per vertex probes every level of the chain for every vertex.
func (t *TopoView) EachRow(fn func(v int, row []int)) {
	patches, err := t.patches()
	if err != nil {
		// Only a view no Overlay published holds a delta entry outside
		// [0, n), and Row never reads one.
		for v := 0; v < t.n; v++ {
			fn(v, t.Row(v))
		}
		return
	}
	for v := 0; v < t.n; v++ {
		var row []int
		if len(patches) > 0 && patches[0].id == v {
			row, patches = patches[0].row, patches[1:]
		} else if v < t.base.N() {
			row = t.base.Row(v)
		}
		fn(v, row)
	}
}

// Neighbors is Row under the repair.Topology method name.
func (t *TopoView) Neighbors(v int) []int { return t.Row(v) }

// Degree returns the degree of v at the view's version (0 when out of
// range).
func (t *TopoView) Degree(v int) int { return len(t.Row(v)) }

// HasEdge reports whether {u, v} is present at the view's version, by
// binary search on u's row.
func (t *TopoView) HasEdge(u, v int) bool {
	if u < 0 || u >= t.n || v < 0 || v >= t.n || u == v {
		return false
	}
	row := t.Row(u)
	i := searchInts(row, v)
	return i < len(row) && row[i] == v
}

// Compact folds the view into a fresh CSR by a run-copy merge: the
// patched rows are taken once from the delta chain (newest entry
// wins), one pass over the ids sets the row offsets, and the column
// array is filled with one copy per maximal run of unpatched base rows
// and one per patched row. Base rows were checked when their CSR was
// built; a patched row that is unsorted, repeats a neighbor, or holds
// its own id or an id outside [0, n), and rows that do not sum to the
// view's arc count, make Compact return an error instead of a CSR.
// Symmetry is not rechecked: the overlay's API keeps rows symmetric.
// The view is immutable, so Compact may run on any goroutine while the
// overlay that published it keeps mutating.
func (t *TopoView) Compact() (*CSR, error) {
	patches, err := t.patches()
	if err != nil {
		return nil, err
	}
	n, base := t.n, t.base
	rowPtr := make([]int64, n+1)
	k := 0
	for v := 0; v < n; v++ {
		d := 0
		if k < len(patches) && patches[k].id == v {
			d = len(patches[k].row)
			k++
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
	// past the base that no delta covers are isolated.
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

// patchRow is a patched vertex and its newest delta row.
type patchRow struct {
	id  int
	row []int
}

// patches returns the view's patched rows in ascending id order, each
// id once with its newest delta entry. A newest-first walk of the
// chain keeps the first row it finds per id (slot[id] is 1 + its index
// in found); a scan of slot then puts them in id order.
func (t *TopoView) patches() ([]patchRow, error) {
	entries := t.chainEntries()
	if entries == 0 {
		return nil, nil
	}
	found, slot := make([][]int, 0, entries), make([]int, t.n)
	for view := t; view != nil; view = view.parent {
		for id, row := range view.delta {
			if id < 0 || id >= t.n {
				return nil, fmt.Errorf("%w: patched row %d in a view on %d vertices", ErrVertexRange, id, t.n)
			}
			if slot[id] == 0 {
				found = append(found, row)
				slot[id] = len(found)
			}
		}
	}
	out := make([]patchRow, 0, len(found))
	for id, s := range slot {
		if s > 0 {
			out = append(out, patchRow{id, found[s-1]})
		}
	}
	return out, nil
}

// Fingerprint returns the structure hash of the topology at the
// view's version — the same value CSR.Fingerprint gives for the same
// labeled graph, whatever the delta chain looks like.
func (t *TopoView) Fingerprint() uint64 {
	return fingerprint(t.n, t.Row)
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
