package palette

import (
	"math/rand"
	"sort"
	"testing"
)

// TestSetColorZeroAndWordBoundaries pins the edge colors: 0, the last
// bit of a word (63), the first bit of the next word (64), and the
// last color of a non-multiple-of-64 universe.
func TestSetColorZeroAndWordBoundaries(t *testing.T) {
	s := NewSet(130)
	for _, x := range []int{0, 63, 64, 127, 128, 129} {
		if s.Contains(x) {
			t.Fatalf("fresh set contains %d", x)
		}
		s.Insert(x)
		if !s.Contains(x) {
			t.Fatalf("inserted %d not contained", x)
		}
	}
	if got := s.Len(); got != 6 {
		t.Fatalf("Len = %d, want 6", got)
	}
	s.Remove(64)
	s.Remove(64) // removing an absent color is a no-op
	if s.Contains(64) || s.Len() != 5 {
		t.Fatalf("remove(64) failed: Len = %d", s.Len())
	}
}

// TestFillWordBoundaries pins Fill on universes that are and are not
// word multiples: it sets exactly [0, space), so the ragged last word
// holds no bit past the universe.
func TestFillWordBoundaries(t *testing.T) {
	for _, space := range []int{1, 64, 65, 128, 130} {
		s := NewSet(space)
		s.Fill()
		if got := s.Len(); got != space {
			t.Fatalf("space %d: Fill left Len = %d", space, got)
		}
		if x, ok := s.NthSet(space - 1); !ok || x != space-1 {
			t.Fatalf("space %d: last member = %d,%v, want %d", space, x, ok, space-1)
		}
		s.Remove(space - 1)
		if s.Contains(space-1) || s.Len() != space-1 {
			t.Fatalf("space %d: Remove(last) left Len = %d", space, s.Len())
		}
	}
}

// TestNthSetMatchesSortedOrder checks the select-i-th operation against
// the ascending member list on random sets spanning word boundaries.
func TestNthSetMatchesSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := NewSet(300)
	want := map[int]bool{}
	for i := 0; i < 90; i++ {
		x := rng.Intn(300)
		s.Insert(x)
		want[x] = true
	}
	var sorted []int
	for x := range want {
		sorted = append(sorted, x)
	}
	sort.Ints(sorted)
	for i, x := range sorted {
		got, ok := s.NthSet(i)
		if !ok || got != x {
			t.Fatalf("NthSet(%d) = %d,%v, want %d", i, got, ok, x)
		}
	}
	if _, ok := s.NthSet(len(sorted)); ok {
		t.Fatal("NthSet past the end returned a member")
	}
	if _, ok := s.NthSet(-1); ok {
		t.Fatal("NthSet(-1) returned a member")
	}
}

// TestCounterTouchedReset pins the O(touched) reset: counts zero out,
// colors never counted stay untouched, and the counter is reusable.
func TestCounterTouchedReset(t *testing.T) {
	c := NewCounter(100)
	c.Add(0)
	c.AddN(64, 3)
	c.Add(99)
	c.AddN(99, 2)
	if c.Get(0) != 1 || c.Get(64) != 3 || c.Get(99) != 3 || c.Get(50) != 0 {
		t.Fatalf("counts wrong: %d %d %d %d", c.Get(0), c.Get(64), c.Get(99), c.Get(50))
	}
	c.Reset()
	for x := 0; x < 100; x++ {
		if c.Get(x) != 0 {
			t.Fatalf("Reset left count at %d", x)
		}
	}
	// Reuse after Reset: the touched list must rebuild correctly.
	c.Add(7)
	c.Add(7)
	if c.Get(7) != 2 {
		t.Fatalf("count after reuse = %d", c.Get(7))
	}
	if got := c.ArgMin(8); got != 0 {
		t.Fatalf("ArgMin(8) = %d, want 0", got)
	}
	c.AddN(0, 5)
	c.AddN(1, 5)
	if got := c.ArgMin(2); got != 0 {
		t.Fatalf("ArgMin tie = %d, want smallest index 0", got)
	}
}

// TestIndexRank pins the rank table against linear search, including
// absent ids below, between and above the indexed range.
func TestIndexRank(t *testing.T) {
	ids := []int{2, 5, 9, 64, 128}
	ix := NewIndex(ids)
	if ix.Len() != 5 {
		t.Fatalf("Len = %d", ix.Len())
	}
	for want, id := range ids {
		got, ok := ix.Rank(id)
		if !ok || got != want {
			t.Fatalf("Rank(%d) = %d,%v, want %d", id, got, ok, want)
		}
	}
	for _, id := range []int{-1, 0, 3, 10, 127, 1000} {
		if _, ok := ix.Rank(id); ok {
			t.Fatalf("Rank(%d) found an absent id", id)
		}
	}
	// Empty index.
	if _, ok := NewIndex(nil).Rank(0); ok {
		t.Fatal("empty index found a rank")
	}
}

// TestSelectScratchArenaReuse pins the selection arena lifecycle: the
// second and later selections on one scratch allocate nothing, results
// survive until the next call, and Reset-style reuse across different
// list sizes is safe.
func TestSelectScratchArenaReuse(t *testing.T) {
	sc := NewSelectScratch()
	k := NewCounter(64)
	k.Add(4)
	list := []int{0, 4, 8, 12, 16, 20, 24, 28}
	defects := []int{1, 7, 3, 5, 0, 2, 6, 4}
	// Warm up, then require allocation-free steady state.
	sc.SelectTopP(list, defects, k, 3)
	allocs := testing.AllocsPerRun(50, func() {
		sc.SelectTopP(list, defects, k, 3)
	})
	if allocs != 0 {
		t.Fatalf("steady-state selection allocates %.1f/op", allocs)
	}
	got, ops := sc.SelectTopP(list, defects, k, 3)
	if len(got) != 3 || ops <= 0 {
		t.Fatalf("selection = %v ops %d", got, ops)
	}
	// Shrinking and growing the list must reuse / regrow cleanly.
	short, shortOps := sc.SelectTopP(list[:2], defects[:2], k, 3)
	if len(short) != 2 || shortOps <= 0 {
		t.Fatalf("short selection = %v", short)
	}
	long := make([]int, 40)
	longDef := make([]int, 40)
	for i := range long {
		long[i] = i
		longDef[i] = i % 7
	}
	kk := NewCounter(64)
	full, _ := sc.SelectTopP(long, longDef, kk, 5)
	if len(full) != 5 {
		t.Fatalf("grown selection = %v", full)
	}
}
