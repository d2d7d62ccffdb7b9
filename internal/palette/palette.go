// Package palette is the shared node-local color-set kernel: a
// word-packed bitset (Set), a dense per-color counter with
// O(touched) reset (Counter), and a rank table over sorted neighbor
// ids (Index). Every solver's hot path — Phase-I sublist selection in
// twosweep, pruned-list construction in deltaplus1, the received-color
// table in linial, greedy conflict counting in classic and baseline —
// runs on these three primitives instead of per-round `map[int]int`
// rebuilds.
//
// All state is meant to be allocated once per node (at protocol Init
// or solver setup) and reused across rounds: Reset/Clear recycle the
// backing arrays, so steady-state operation performs no allocation.
// SelectScratch (select.go) is the pooled arena of one node's Phase-I
// selection; DESIGN.md §"Palette kernel" documents the lifecycle and
// the ops-accounting contract.
package palette

import "math/bits"

const wordBits = 64

// Set is a word-packed bitset over the dense color universe
// [0, space). The zero value is unusable; call NewSet.
type Set struct {
	words []uint64
	space int
}

// NewSet returns an empty set over [0, space).
func NewSet(space int) *Set {
	if space < 0 {
		panic("palette: negative space")
	}
	return &Set{words: make([]uint64, (space+wordBits-1)/wordBits), space: space}
}

func (s *Set) check(x int) {
	if x < 0 || x >= s.space {
		panic("palette: color out of range")
	}
}

// Insert adds x to the set.
func (s *Set) Insert(x int) {
	s.check(x)
	s.words[x/wordBits] |= 1 << uint(x%wordBits)
}

// Remove deletes x from the set (a no-op if absent).
func (s *Set) Remove(x int) {
	s.check(x)
	s.words[x/wordBits] &^= 1 << uint(x%wordBits)
}

// Contains reports whether x is in the set.
func (s *Set) Contains(x int) bool {
	s.check(x)
	return s.words[x/wordBits]&(1<<uint(x%wordBits)) != 0
}

// Len returns the number of colors in the set (popcount).
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clear empties the set, keeping the backing array.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill inserts every color of the universe.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes the bits above space-1 in the last word so that
// popcounts and word-wise operations stay exact.
func (s *Set) trim() {
	if r := s.space % wordBits; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(r)) - 1
	}
}

// NthSet returns the i-th smallest member (0-indexed), or (0, false)
// if the set holds fewer than i+1 colors.
func (s *Set) NthSet(i int) (int, bool) {
	if i < 0 {
		return 0, false
	}
	for wi, w := range s.words {
		c := bits.OnesCount64(w)
		if i >= c {
			i -= c
			continue
		}
		for ; w != 0; w &= w - 1 {
			if i == 0 {
				return wi*wordBits + bits.TrailingZeros64(w), true
			}
			i--
		}
	}
	return 0, false
}

// Counter is a dense per-color counter over [0, space) with an
// O(touched) Reset: only the colors actually incremented since the
// last Reset are re-zeroed, so a node whose lists are much smaller
// than the color space pays for its own traffic, not the universe.
type Counter struct {
	counts  []int32
	touched []int32
}

// NewCounter returns a zeroed counter over [0, space).
func NewCounter(space int) *Counter {
	if space < 0 {
		panic("palette: negative space")
	}
	c := CounterOn(make([]int32, space), nil)
	return &c
}

// CounterOn returns a counter over [0, len(counts)) on caller-owned
// arrays, so a run can carve every node's counter from one
// allocation. counts must be all zero; touched's capacity is how many
// distinct colors the counter records before Add grows it.
func CounterOn(counts, touched []int32) Counter {
	return Counter{counts: counts, touched: touched[:0]}
}

// Add increments the count of x by one.
func (c *Counter) Add(x int) { c.AddN(x, 1) }

// AddN increments the count of x by n.
func (c *Counter) AddN(x, n int) {
	if c.counts[x] == 0 && n != 0 {
		c.touched = append(c.touched, int32(x))
	}
	c.counts[x] += int32(n)
}

// Get returns the count of x.
func (c *Counter) Get(x int) int { return int(c.counts[x]) }

// Reset zeroes the counter, touching only the colors counted since
// the previous Reset.
func (c *Counter) Reset() {
	for _, x := range c.touched {
		c.counts[x] = 0
	}
	c.touched = c.touched[:0]
}

// ArgMin returns the smallest color in [0, limit) with the minimum
// count — the greedy "least-used color" choice of the classical
// sweeps.
func (c *Counter) ArgMin(limit int) int {
	best := 0
	for x := 1; x < limit; x++ {
		if c.counts[x] < c.counts[best] {
			best = x
		}
	}
	return best
}

// Index is a rank table over a sorted id list: it maps a global
// neighbor id to its dense position, so per-neighbor state lives in
// flat slices instead of maps. The id slice is referenced, not
// copied, and must stay sorted ascending and unmodified.
type Index struct {
	ids []int
}

// NewIndex returns an index over the sorted ids. It panics if ids is
// not strictly ascending.
func NewIndex(ids []int) Index {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			panic("palette: NewIndex ids not strictly ascending")
		}
	}
	return Index{ids: ids}
}

// Len returns the number of indexed ids.
func (ix Index) Len() int { return len(ix.ids) }

// Rank returns the dense position of id and whether it is present.
func (ix Index) Rank(id int) (int, bool) {
	lo, hi := 0, len(ix.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ix.ids) && ix.ids[lo] == id {
		return lo, true
	}
	return 0, false
}
