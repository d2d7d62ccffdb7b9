package twosweep

// Differential tests for the palette-kernel Phase-I selection: the
// map-based selectors in internal/baseline (SelectSort and
// SelectBruteForce) are the retained pre-kernel reference
// implementations, kept as the oracle. Both the table test and the
// fuzz target feed the kernel selector and its reference identical
// inputs and demand identical colors AND identical ops counts — the
// deterministic local-computation measure benchmarks E6/E15 report
// must not drift when the representation changes.

import (
	"testing"

	"listcolor/internal/baseline"
	"listcolor/internal/palette"
)

// buildK materializes the same k function both ways: a map keyed by
// color for the reference and a kernel Counter for the palette path.
func buildK(list []int, vals []int, space int) (map[int]int, *palette.Counter) {
	m := make(map[int]int, len(list))
	c := palette.NewCounter(space)
	for i, x := range list {
		m[x] = vals[i%len(vals)]
		c.AddN(x, vals[i%len(vals)])
	}
	return m, c
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSortSelectorMatchesMapReference drives the kernel sort selector
// and the retained map-based reference over a matrix of list shapes:
// dense and sparse color values, word-boundary colors (≥64), ties in
// the score, k exceeding d, lists shorter and longer than p. Colors
// and ops must match exactly on every cell.
func TestSortSelectorMatchesMapReference(t *testing.T) {
	type cell struct {
		name    string
		list    []int
		defects []int
		kvals   []int
		p       int
	}
	mk := func(n, stride, offset int) []int {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = offset + i*stride
		}
		return xs
	}
	cells := []cell{
		{"singleton", []int{0}, []int{3}, []int{1}, 1},
		{"dense-small", mk(5, 1, 0), []int{4, 1, 3, 1, 2}, []int{0, 2, 1}, 2},
		{"all-ties", mk(8, 2, 0), []int{2, 2, 2, 2, 2, 2, 2, 2}, []int{1}, 3},
		{"k-exceeds-d", mk(6, 3, 1), []int{0, 1, 0, 2, 0, 1}, []int{5, 3, 7}, 4},
		{"word-boundary-colors", mk(9, 16, 60), []int{1, 5, 2, 8, 0, 3, 7, 4, 6}, []int{2, 0, 4}, 3},
		{"p-exceeds-list", mk(3, 1, 64), []int{1, 2, 3}, []int{0}, 8},
		{"long-list", mk(64, 5, 0), mk(64, 1, 0), []int{3, 0, 1, 4, 2}, 8},
		{"descending-scores", mk(33, 2, 0), mk(33, 1, 0), []int{0}, 5},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			space := c.list[len(c.list)-1] + 1
			km, kc := buildK(c.list, c.kvals, space)
			scratch := palette.NewSelectScratch()
			got, gotOps := SortSelector(c.list, c.defects, kc, c.p, scratch)
			ref := baseline.SelectSort(c.list, c.defects, km, c.p)
			if !equalInts(got, ref.Colors) {
				t.Fatalf("colors diverge: kernel %v, reference %v", got, ref.Colors)
			}
			if gotOps != ref.Ops {
				t.Fatalf("ops diverge: kernel %d, reference %d", gotOps, ref.Ops)
			}
		})
	}
}

// TestSubsetSelectorMatchesMapReference does the same for the
// exhaustive subset search: SubsetSelector, which copies the kernel
// Counter into a map, against SelectBruteForce called on the map
// directly.
func TestSubsetSelectorMatchesMapReference(t *testing.T) {
	lists := [][]int{
		{0},
		{0, 1, 2, 3},
		{1, 4, 9, 16, 25, 36},
		{60, 62, 64, 66, 68, 70, 72, 74, 76, 78},
	}
	for _, list := range lists {
		defects := make([]int, len(list))
		kvals := make([]int, len(list))
		for i := range list {
			defects[i] = (i * 5) % 7
			kvals[i] = (i * 3) % 4
		}
		for p := 1; p <= len(list)+1; p++ {
			space := list[len(list)-1] + 1
			km, kc := buildK(list, kvals, space)
			gotColors, gotOps := baseline.SubsetSelector(list, defects, kc, p, nil)
			ref := baseline.SelectBruteForce(list, defects, km, p)
			if !equalInts(gotColors, ref.Colors) {
				t.Fatalf("list %v p %d: colors diverge: %v vs %v", list, p, gotColors, ref.Colors)
			}
			if gotOps != ref.Ops {
				t.Fatalf("list %v p %d: ops diverge: %d vs %d", list, p, gotOps, ref.Ops)
			}
		}
	}
}

// decodeSelectorInput builds a valid selector input from fuzz bytes: a
// strictly ascending list with arbitrary gaps (crossing word
// boundaries for larger inputs), bounded defects and k values, and a
// p in [1, Λ+2].
func decodeSelectorInput(data []byte) (list, defects []int, kvals []int, p, space int) {
	read := func(i int) int {
		if len(data) == 0 {
			return 0
		}
		return int(data[i%len(data)])
	}
	n := read(0)%12 + 1
	list = make([]int, n)
	defects = make([]int, n)
	kvals = make([]int, n)
	x := read(1) % 8
	for i := 0; i < n; i++ {
		list[i] = x
		x += read(2+i)%9 + 1
		defects[i] = read(20+i) % 9
		kvals[i] = read(40+i) % 6
	}
	p = read(60)%(n+2) + 1
	space = list[n-1] + 1
	return
}

// FuzzSelectorEquivalence feeds both selector pairs adversarial
// list/defect/k/p combinations and demands identical colors and ops.
func FuzzSelectorEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{11, 7, 8, 8, 8, 8, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{5, 3, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		list, defects, kvals, p, space := decodeSelectorInput(data)
		km, kc := buildK(list, kvals, space)
		scratch := palette.NewSelectScratch()
		gotColors, gotOps := SortSelector(list, defects, kc, p, scratch)
		ref := baseline.SelectSort(list, defects, km, p)
		if !equalInts(gotColors, ref.Colors) || gotOps != ref.Ops {
			t.Fatalf("sort: kernel %v/%d, reference %v/%d", gotColors, gotOps, ref.Colors, ref.Ops)
		}
		subColors, subOps := baseline.SubsetSelector(list, defects, kc, p, nil)
		refBF := baseline.SelectBruteForce(list, defects, km, p)
		if !equalInts(subColors, refBF.Colors) || subOps != refBF.Ops {
			t.Fatalf("subset: kernel %v/%d, reference %v/%d", subColors, subOps, refBF.Colors, refBF.Ops)
		}
	})
}
