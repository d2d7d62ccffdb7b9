package service

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
)

// applyCopying applies ops to a copying reference — a service whose
// every version was pinned by a Snapshot, so each of its batches
// copies the published colors into a fresh buffer and never reuses
// one — and pins and returns the colors the batch published.
func applyCopying(t *testing.T, s *Service, ops []Op) []int {
	t.Helper()
	if _, err := s.ApplyBatch(ops); err != nil && !errors.Is(err, ErrOp) {
		t.Fatalf("reference batch: %v", err)
	}
	return slices.Clone(s.Snapshot().Colors)
}

// copyingRun replays script on a fresh copying reference and returns
// every version's colors, version 0 first.
func copyingRun(t *testing.T, base *graph.CSR, inst *coloring.Instance, opts Options, script [][]Op) [][]int {
	t.Helper()
	s := mustService(t, base, inst, opts)
	refs := [][]int{slices.Clone(s.Snapshot().Colors)}
	for _, ops := range script {
		refs = append(refs, applyCopying(t, s, ops))
	}
	return refs
}

// clashScript builds batches on a copying reference over base with
// coloring.FullPalette(n, 4, 0) and returns them with every version's
// colors. Each batch joins two pairs of ring nodes a quarter to three
// quarters of the way around from each other that share a color at
// that point and have no chord yet, so repair recolors one end of
// each; the batches listed in addNode also append a node.
func clashScript(t *testing.T, base *graph.CSR, batches int, addNode ...int) ([][]Op, [][]int) {
	t.Helper()
	n := base.N()
	ref := mustService(t, base, coloring.FullPalette(n, 4, 0), Options{})
	refs := [][]int{slices.Clone(ref.Snapshot().Colors)}
	used := make([]bool, n)
	var script [][]Op
	for b := 0; b < batches; b++ {
		var ops []Op
		for u := 0; u < n/4 && len(ops) < 2; u++ {
			for w := u + n/4; w < u+3*n/4 && !used[u]; w++ {
				if !used[w] && refs[b][w] == refs[b][u] {
					used[u], used[w] = true, true
					ops = append(ops, Op{Action: OpAddEdge, U: u, V: w})
				}
			}
		}
		if len(ops) < 2 {
			t.Fatalf("batch %d: ran out of clashing pairs", b)
		}
		if slices.Contains(addNode, b) {
			ops = append(ops, Op{Action: OpAddNode})
		}
		script = append(script, ops)
		refs = append(refs, applyCopying(t, ref, ops))
		if slices.Equal(refs[b], refs[b+1][:len(refs[b])]) {
			t.Fatalf("batch %d recolored nothing", b)
		}
	}
	return script, refs
}

// mustApply applies ops and checks the published colors against the
// reference at the new version.
func mustApply(t *testing.T, s *Service, ops []Op, refs [][]int) {
	t.Helper()
	if _, err := s.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if p := s.pub.Load(); !slices.Equal(p.Colors, refs[p.Version]) {
		t.Fatalf("version %d colors differ from the copying reference", p.Version)
	}
}

// TestStaleReaderRereadsNewest: a reader that loaded a version whose
// buffer the writer has since taken back finds the buffer's epoch
// changed and reads the newest version instead — whether the writer
// finished the batch that reused the buffer or is still inside it — so
// it never reports one version's number with another's colors.
func TestStaleReaderRereadsNewest(t *testing.T) {
	base := graph.StreamedRing(64)
	script, refs := clashScript(t, base, 3)
	s := mustService(t, base, coloring.FullPalette(64, 4, 0), Options{})
	mustApply(t, s, script[0], refs)
	v1 := s.pub.Load()
	mustApply(t, s, script[1], refs)
	v2 := s.pub.Load()
	mustApply(t, s, script[2], refs)
	if s.pub.Load().buf != v1.buf {
		t.Fatal("version 3 did not reuse version 1's buffer")
	}
	read := func(old *published) (uint64, []int) {
		p := s.acquire(old)
		defer p.buf.mu.RUnlock()
		return p.Version, slices.Clone(p.Colors)
	}
	if ver, colors := read(v1); ver != 3 || !slices.Equal(colors, refs[3]) {
		t.Fatalf("reader of version 1 got version %d, colors equal to version 3's: %v", ver, slices.Equal(colors, refs[3]))
	}

	// The writer takes version 2's buffer back for the next batch and
	// starts writing into it.
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.takeSpare()
	if b != v2.buf {
		t.Fatal("the next batch did not take version 2's buffer back")
	}
	b.colors[0] = -1
	if ver, colors := read(v2); ver != 3 || !slices.Equal(colors, refs[3]) {
		t.Fatalf("reader of version 2 mid-batch got version %d, colors equal to version 3's: %v", ver, slices.Equal(colors, refs[3]))
	}
}

// TestPinnedSnapshotSurvivesReuse: a Snapshot's Colors stay
// byte-identical across later batches, add_node included. The batch
// that would take the pinned buffer back copies the published colors
// into a fresh buffer instead, and reuse resumes with the other one.
func TestPinnedSnapshotSurvivesReuse(t *testing.T) {
	base := graph.StreamedRing(64)
	script, refs := clashScript(t, base, 5, 3, 4)
	s := mustService(t, base, coloring.FullPalette(64, 4, 0), Options{})
	mustApply(t, s, script[0], refs)
	mustApply(t, s, script[1], refs)
	snap := s.Snapshot()
	pinned, want := s.pub.Load().buf, slices.Clone(snap.Colors)
	if snap.Version != 2 || !slices.Equal(want, refs[2]) {
		t.Fatalf("snapshot at version %d, colors equal to version 2's: %v", snap.Version, slices.Equal(want, refs[2]))
	}
	bufs := map[uint64]*colorBuf{}
	for v := 3; v <= 5; v++ {
		mustApply(t, s, script[v-1], refs)
		if s.pub.Load().buf == pinned {
			t.Fatalf("version %d reused the pinned buffer", v)
		}
		if !slices.Equal(snap.Colors, want) {
			t.Fatalf("pinned snapshot colors changed at version %d", v)
		}
		bufs[uint64(v)] = s.pub.Load().buf
	}
	if bufs[4] == bufs[3] {
		t.Fatal("version 4 shares version 3's buffer")
	}
	if bufs[5] != bufs[3] {
		t.Fatal("version 5 did not reuse version 3's buffer")
	}
}

// TestReadLockedSpareNotReused: while a reader holds a version's read
// lock, the batch that would take its buffer back fails the try-lock
// and copies instead, so the reader's colors do not change under it;
// colors at every version equal the copying reference's.
func TestReadLockedSpareNotReused(t *testing.T) {
	base := graph.StreamedRing(64)
	script, refs := clashScript(t, base, 4)
	s := mustService(t, base, coloring.FullPalette(64, 4, 0), Options{})
	mustApply(t, s, script[0], refs)
	p := s.acquire(s.pub.Load())
	held := slices.Clone(p.Colors)
	mustApply(t, s, script[1], refs)
	mustApply(t, s, script[2], refs)
	if s.pub.Load().buf == p.buf {
		t.Fatal("version 3 reused the read-locked buffer")
	}
	if !slices.Equal(p.Colors, held) {
		t.Fatal("read-locked colors changed under the reader")
	}
	p.buf.mu.RUnlock()
	spare := s.spare
	mustApply(t, s, script[3], refs)
	if s.pub.Load().buf != spare {
		t.Fatal("version 4 did not reuse the unlocked spare")
	}
}

// TestServiceConcurrentVersionConsistency is the per-version soak:
// four readers check that every Color, ColorsOf and Snapshot answer
// equals a copying reference run at the version it reports, while a
// writer replays a churn script with node add/remove, set_list and a
// small compaction threshold. Snapshot calls pin buffers, so the
// writer runs both the reuse path and the copying fallback.
func TestServiceConcurrentVersionConsistency(t *testing.T) {
	const n = 600
	base := graph.StreamedRing(n)
	opts := Options{CompactThreshold: 32}
	script := churnScript(base, 200, 8, 23)
	fillSetLists(script, slackInstance(base).Space)
	refs := copyingRun(t, base, slackInstance(base), opts, script)
	s := mustService(t, base, slackInstance(base), opts)

	var stop atomic.Bool
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop.Store(true)
	check := func(r int, what string, ver uint64, v, got int) bool {
		if ref := refs[ver]; v < len(ref) && got == ref[v] {
			return true
		}
		t.Errorf("reader %d: %s of node %d = %d at version %d, not the reference's", r, what, v, got, ver)
		return false
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; !stop.Load(); i++ {
				v := rng.Intn(n + 8)
				c, ver, ok := s.Color(v)
				if ok != (v < len(refs[ver])) {
					t.Errorf("reader %d: Color(%d) ok=%v at version %d", r, v, ok, ver)
					return
				}
				if ok && !check(r, "Color", ver, v, c) {
					return
				}
				nodes := []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)}
				cs, ver, _ := s.ColorsOf(nodes)
				for k, u := range nodes {
					if !check(r, "ColorsOf", ver, u, cs[k]) {
						return
					}
				}
				if i%16 == 0 {
					snap := s.Snapshot()
					if !slices.Equal(snap.Colors, refs[snap.Version]) {
						t.Errorf("reader %d: Snapshot colors differ from the reference at version %d", r, snap.Version)
						return
					}
				}
			}
		}(r)
	}
	for bi, ops := range script {
		if _, err := s.ApplyBatch(ops); err != nil && !errors.Is(err, ErrOp) {
			t.Fatalf("batch %d: %v", bi, err)
		}
	}
	if p := s.pub.Load(); !slices.Equal(p.Colors, refs[len(script)]) {
		t.Fatal("final colors differ from the reference")
	}
}
