package graph

import (
	"fmt"
	"sort"
)

// Index is the dense position index sub-graphs are induced through,
// in place of a map: while an Induce call runs, pos[v] is 1 + v's
// position in the keep set and 0 for every other vertex. Each call
// installs its keep set and clears it before returning, so one Index,
// grown to the largest graph it has seen, serves every induce of a
// solve, sub-graphs of sub-graphs included. It is not safe for
// concurrent use; the zero value is ready.
type Index struct{ pos []int }

// set installs keep over a graph on n vertices. keep must be strictly
// ascending within [0, n); anything else is refused with a panic, like
// an out-of-range vertex.
func (ix *Index) set(keep []int, n int) {
	if len(ix.pos) < n {
		ix.pos = make([]int, n)
	}
	prev := -1
	for i, v := range keep {
		if v <= prev || v >= n {
			ix.clear(keep[:i])
			panic(fmt.Sprintf("graph: induce keep set is not strictly ascending in [0, %d): keep[%d] = %d", n, i, v))
		}
		ix.pos[v] = i + 1
		prev = v
	}
}

func (ix *Index) clear(keep []int) {
	for _, v := range keep {
		ix.pos[v] = 0
	}
}

// Induce returns the sub-graph of c induced by keep, which must be
// strictly ascending: vertex i of the result is keep[i], so keep is
// also the map back to c's ids. Rows stay sorted because the index is
// monotone. The result is written into dst, whose arrays are reused
// when they are large enough, or into a fresh CSR when dst is nil; no
// map and no per-row slices either way. dst must not be c, and nothing
// may still read what dst held. Keeping every vertex returns c itself
// and leaves dst alone.
func (c *CSR) Induce(keep []int, ix *Index, dst *CSR) *CSR {
	ix.set(keep, c.n)
	defer ix.clear(keep)
	if len(keep) == c.n {
		return c
	}
	if dst == nil {
		dst = new(CSR)
	}
	rowPtr := Carve(dst.rowPtr, len(keep)+1)
	rowPtr[0] = 0
	for i, v := range keep {
		kept := 0
		for _, w := range c.Row(v) {
			if ix.pos[w] > 0 {
				kept++
			}
		}
		rowPtr[i+1] = rowPtr[i] + int64(kept)
	}
	col := Carve(dst.col, int(rowPtr[len(keep)]))[:0]
	for _, v := range keep {
		col = ix.appendKept(col, c.Row(v))
	}
	*dst = CSR{n: len(keep), rowPtr: rowPtr, col: col}
	return dst
}

// Vertices returns the ids 0..n-1, the keep set of a whole graph and
// the identity coloring, written into dst (or a fresh slice, as Carve
// decides).
func Vertices(n int, dst []int) []int {
	ids := Carve(dst, n)
	for v := range ids {
		ids[v] = v
	}
	return ids
}

// Restrict returns vals[keep[i]] at each i, written into dst (or a
// fresh slice, as Carve decides): per-vertex values carried to the
// sub-graph induced by the same keep set.
func Restrict(vals, keep, dst []int) []int {
	out := Carve(dst, len(keep))
	for i, v := range keep {
		out[i] = vals[v]
	}
	return out
}

// Carve returns s with length k, reallocated only when its capacity is
// short, so a nil s gets fresh storage. Its entries are stale: the
// caller clears or overwrites them.
func Carve[T any](s []T, k int) []T {
	if cap(s) < k {
		return make([]T, k)
	}
	return s[:k]
}

// appendKept appends the new ids of row's kept vertices to dst.
func (ix *Index) appendKept(dst, row []int) []int {
	for _, w := range row {
		if p := ix.pos[w]; p > 0 {
			dst = append(dst, p-1)
		}
	}
	return dst
}

// Oriented is an edge orientation of a CSR graph held as one split
// offset per row over a column array in which each row lists its
// out-neighbors, then its in-neighbors, each ascending:
// Out(v) = dir[RowStart(v):split[v]] and In(v) = dir[split[v]:RowStart(v+1)].
//
// For the orientation by id (every edge toward the smaller id, as in
// OrientByID) the out-neighbors are the prefix of each sorted row, so
// dir is the CSR's own column array and Out and In are zero-copy
// sub-slices of the row. Inducing on an ascending keep set preserves
// that order, which is why the solve path never leaves this form.
type Oriented struct {
	*CSR
	dir   []int
	split []int64
	byID  bool
	// sub is the induced CSR when this orientation is the destination
	// of an Induce: the storage it owns, never another graph's.
	sub CSR
}

// OrientCSRByID orients every edge of c toward the smaller id, sharing
// c's column array. The split offsets are written into dst (or a fresh
// orientation when dst is nil); dst's CSR becomes c.
func OrientCSRByID(c *CSR, dst *Oriented) *Oriented {
	if dst == nil {
		dst = new(Oriented)
	}
	split := Carve(dst.split, c.n)
	for v := range split {
		split[v] = c.rowPtr[v] + int64(sort.SearchInts(c.Row(v), v))
	}
	dst.CSR, dst.dir, dst.split, dst.byID = c, c.col, split, true
	return dst
}

// orientCSR orients c by out: u → v iff out(u, v), which must give
// every edge exactly one direction. It writes into dst as
// OrientCSRByID does.
func orientCSR(c *CSR, out func(u, v int) bool, dst *Oriented) *Oriented {
	if dst == nil {
		dst = new(Oriented)
	}
	dir := dst.dir
	if dst.byID {
		dir = nil // the column array of the CSR dst oriented last
	}
	dir, split := Carve(dir, len(c.col))[:0], Carve(dst.split, c.n)
	for v := 0; v < c.n; v++ {
		for half := 0; half < 2; half++ {
			for _, w := range c.Row(v) {
				if out(v, w) == (half == 0) {
					dir = append(dir, w)
				}
			}
			if half == 0 {
				split[v] = int64(len(dir))
			}
		}
	}
	dst.CSR, dst.dir, dst.split, dst.byID = c, dir, split, false
	return dst
}

// arc returns the position of v in u's row, which must hold it.
func (c *CSR) arc(u, v int) int64 {
	return c.rowPtr[u] + int64(sort.SearchInts(c.Row(u), v))
}

// Out returns v's ascending out-neighbors (read-only).
func (o *Oriented) Out(v int) []int { return o.dir[o.rowPtr[v]:o.split[v]] }

// In returns v's ascending in-neighbors (read-only).
func (o *Oriented) In(v int) []int { return o.dir[o.split[v]:o.rowPtr[v+1]] }

// Outdeg returns the out-degree of v.
func (o *Oriented) Outdeg(v int) int { return int(o.split[v] - o.rowPtr[v]) }

// Beta returns β_v := max(1, outdeg(v)), the paper's Section 2
// convention that keeps slack conditions well defined for sinks.
func (o *Oriented) Beta(v int) int { return max(1, o.Outdeg(v)) }

// MaxBeta returns β(G) := max_v β_v.
func (o *Oriented) MaxBeta() int {
	b := 1
	for v := 0; v < o.n; v++ {
		b = max(b, o.Outdeg(v))
	}
	return b
}

// HasArc reports whether the edge {u,v} is oriented u → v.
func (o *Oriented) HasArc(u, v int) bool {
	return u >= 0 && u < o.n && v >= 0 && v < o.n && contains(o.Out(u), v)
}

// contains reports whether the ascending row holds x.
func contains(row []int, x int) bool {
	i := sort.SearchInts(row, x)
	return i < len(row) && row[i] == x
}

// Induce returns the sub-orientation induced by keep (strictly
// ascending, as for CSR.Induce): every kept arc keeps its direction.
// The sub-graph and its orientation are written into dst, which must
// not be o, or into a fresh orientation when dst is nil. Keeping every
// vertex returns o itself.
func (o *Oriented) Induce(keep []int, ix *Index, dst *Oriented) *Oriented {
	var buf *CSR
	if dst != nil {
		buf = &dst.sub
	}
	sub := o.CSR.Induce(keep, ix, buf)
	switch {
	case sub == o.CSR:
		return o
	case o.byID:
		return OrientCSRByID(sub, dst)
	}
	return orientCSR(sub, func(i, j int) bool { return o.HasArc(keep[i], keep[j]) }, dst)
}

// Filter returns the orientation restricted to the edges {u, v} for
// which keep(u, v) holds, directions unchanged; keep must be symmetric.
func (o *Oriented) Filter(keep func(u, v int) bool) *Oriented {
	c := &CSR{n: o.n, rowPtr: make([]int64, o.n+1), col: make([]int, 0, len(o.col))}
	for v := 0; v < o.n; v++ {
		for _, w := range o.Row(v) {
			if keep(v, w) {
				c.col = append(c.col, w)
			}
		}
		c.rowPtr[v+1] = int64(len(c.col))
	}
	if o.byID {
		return OrientCSRByID(c, nil)
	}
	return orientCSR(c, o.HasArc, nil)
}
