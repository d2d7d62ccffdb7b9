package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"listcolor/internal/baseline"
	"listcolor/internal/palette"
)

// BenchmarkSelection times the node-local Phase-I selection (the
// per-node computation Lemma 3.3 charges O(Λ log Λ) for) in both
// implementations: the palette kernel, whose steady state must report
// 0 allocs/op, and the retained map-based reference. The shapes are
// Λ = Δ lists over a 2Δ color space with the paper's p = 8 budget, for
// the degree range the experiments sweep.
func BenchmarkSelection(b *testing.B) {
	const p = 8
	for _, delta := range []int{16, 64, 128, 256} {
		list, defects, km, kc := selectionInput(delta, 2*delta, int64(delta))
		b.Run(fmt.Sprintf("delta%d/map-ref", delta), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				baseline.SelectSort(list, defects, km, p)
			}
		})
		b.Run(fmt.Sprintf("delta%d/palette", delta), func(b *testing.B) {
			scratch := palette.NewSelectScratch()
			scratch.SelectTopP(list, defects, kc, p) // warm the arena
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scratch.SelectTopP(list, defects, kc, p)
			}
		})
	}
}

// selectionInput builds a deterministic selection input: a sorted list
// of lambda distinct colors from [0, space), per-color defects, and the
// k counts in both representations (the map for the reference path,
// the kernel Counter for the palette path).
func selectionInput(lambda, space int, seed int64) (list, defects []int, km map[int]int, kc *palette.Counter) {
	rng := rand.New(rand.NewSource(seed))
	list = rng.Perm(space)[:lambda]
	sort.Ints(list)
	defects = make([]int, lambda)
	km = make(map[int]int, lambda)
	kc = palette.NewCounter(space)
	for i, x := range list {
		defects[i] = rng.Intn(8)
		kv := rng.Intn(5)
		km[x] = kv
		kc.AddN(x, kv)
	}
	return list, defects, km, kc
}
