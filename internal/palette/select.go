package palette

import "sort"

// SelectScratch is the pooled arena of one node's Phase-I sublist
// selection: the index permutation the stable sort runs on and the
// output color buffer. A node holds one scratch and reuses it for
// every selection, so steady-state selection performs no allocation.
// The slice returned by SelectTopP aliases the scratch and stays valid
// until the next SelectTopP call — exactly the lifetime the Two-Sweep
// protocol needs, since each node selects once per run and broadcasts
// the result unchanged.
type SelectScratch struct {
	sorter selSorter
	out    []int
}

// NewSelectScratch returns an empty scratch; buffers grow on first
// use and are reused afterwards.
func NewSelectScratch() *SelectScratch { return &SelectScratch{} }

// SelectScratchOn returns a scratch on the caller-owned buf, so a run
// can carve every node's scratch from one allocation: selections over
// at most n colors that take at most len(buf)−2n of them run in buf.
func SelectScratchOn(buf []int, n int) SelectScratch {
	var sc SelectScratch
	sc.carve(buf, n)
	return sc
}

// carve lays the permutation, the scores and the output over buf, the
// first two n long.
func (sc *SelectScratch) carve(buf []int, n int) {
	sc.sorter.idx, sc.sorter.scores, sc.out = buf[:n:n], buf[n:2*n:2*n], buf[2*n:2*n:len(buf)]
}

// selSorter is the sort.Interface the selection sorts through. It
// reproduces the retained map-based reference selector
// (baseline.SelectSort) comparison for comparison: sort.Stable and
// sort.SliceStable share one stable-sort implementation, and the
// scores are precomputed before sorting, so the comparison sequence —
// and with it the deterministic `ops` count benchmarks E6/E15 report —
// is exactly the reference's. Do not change the sort call or the Less
// logic without updating the reference selectors in internal/baseline
// and the differential tests in internal/twosweep.
type selSorter struct {
	idx    []int
	scores []int
	ops    int64
}

func (s *selSorter) Len() int      { return len(s.idx) }
func (s *selSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

func (s *selSorter) Less(a, b int) bool {
	s.ops++
	return s.scores[s.idx[a]] > s.scores[s.idx[b]]
}

// SelectTopP is the paper's Phase-I selection on the kernel: sort L_v
// by d_v(x) − k_v(x) descending (stable, so ties go to the smaller
// color) and take the first p colors, returned sorted ascending.
// Identical colors and identical ops as the map-based reference
// selector; zero allocations once the scratch has warmed up.
func (sc *SelectScratch) SelectTopP(list, defects []int, k *Counter, p int) ([]int, int64) {
	n := len(list)
	take := min(p, n)
	if cap(sc.sorter.idx) < n || cap(sc.out) < take {
		// One array backs the permutation, the scores and the output.
		sc.carve(make([]int, 2*n+take), n)
	}
	idx := sc.sorter.idx[:n]
	scores := sc.sorter.scores[:n]
	for i := range idx {
		idx[i] = i
		scores[i] = defects[i] - k.Get(list[i])
	}
	sc.sorter.idx, sc.sorter.scores = idx, scores
	sc.sorter.ops = 0
	sort.Stable(&sc.sorter)
	out := sc.out[:0]
	for _, i := range idx[:take] {
		sc.sorter.ops++
		out = append(out, list[i])
	}
	sort.Ints(out)
	sc.out = out
	return out, sc.sorter.ops
}
