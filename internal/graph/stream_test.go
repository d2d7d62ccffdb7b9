package graph

import (
	"runtime"
	"testing"
)

// TestStreamedGeneratorsMatchReference replays each streaming
// generator's edge stream through the adjacency-list build path and
// demands the streamed CSR be byte-identical to it (offsets, columns,
// fingerprint) on small instances.
func TestStreamedGeneratorsMatchReference(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		csr    *CSR
		stream EdgeStream
	}{
		{"ring3", 3, StreamedRing(3), RingStream(3)},
		{"ring17", 17, StreamedRing(17), RingStream(17)},
		{"gnp sparse", 64, StreamedGNP(64, 0.07, 5), GNPStream(64, 0.07, 5)},
		{"gnp dense", 24, StreamedGNP(24, 0.6, 6), GNPStream(24, 0.6, 6)},
		{"gnp empty", 20, StreamedGNP(20, 0, 7), GNPStream(20, 0, 7)},
		{"gnp complete", 9, StreamedGNP(9, 1, 8), GNPStream(9, 1, 8)},
		{"powerlaw k1", 40, StreamedPowerLaw(40, 1, 9), PowerLawStream(40, 1, 9)},
		{"powerlaw k3", 60, StreamedPowerLaw(60, 3, 10), PowerLawStream(60, 3, 10)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := buildReference(t, tc.n, tc.stream)
			assertCSREqualsGraph(t, tc.csr, ref)
			if err := tc.csr.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

// TestStreamedGNPIsComplete pins the skip-sampling boundary p=1: every
// pair must be present.
func TestStreamedGNPIsComplete(t *testing.T) {
	c := StreamedGNP(12, 1, 1)
	if c.M() != 12*11/2 {
		t.Fatalf("p=1 edges = %d, want %d", c.M(), 12*11/2)
	}
}

// TestStreamedGNPDensity sanity-checks the skip sampler against the
// expected edge count (binomial mean ± 6σ) so a systematically biased
// skip formula cannot hide behind replay consistency.
func TestStreamedGNPDensity(t *testing.T) {
	n, p := 2000, 0.01
	c := StreamedGNP(n, p, 42)
	pairs := float64(n) * float64(n-1) / 2
	mean := pairs * p
	sigma := 140.6 // sqrt(pairs·p·(1−p)) ≈ 140.6
	got := float64(c.M())
	if got < mean-6*sigma || got > mean+6*sigma {
		t.Fatalf("G(%d,%v) has %v edges, want %v ± %v", n, p, got, mean, 6*sigma)
	}
}

// TestStreamedPowerLawShape checks the attachment invariants: exact
// edge count and minimum degree k.
func TestStreamedPowerLawShape(t *testing.T) {
	n, k := 300, 3
	c := StreamedPowerLaw(n, k, 11)
	wantEdges := int64(k*(k+1)/2 + (n-k-1)*k)
	if c.M() != wantEdges {
		t.Fatalf("edges = %d, want %d", c.M(), wantEdges)
	}
	for v := 0; v < n; v++ {
		if c.Degree(v) < k {
			t.Fatalf("vertex %d degree %d < k=%d", v, c.Degree(v), k)
		}
	}
}

// TestAttachAccept pins PowerLawStream's rejection predicate directly:
// both draw branches route through it, so self-loops and duplicate
// attachments are excluded by the predicate itself, not by the ranges
// the draws happen to produce.
func TestAttachAccept(t *testing.T) {
	cases := []struct {
		name   string
		chosen []int32
		t, v   int32
		want   bool
	}{
		{"fresh target", []int32{1, 4}, 2, 9, true},
		{"self-loop", nil, 9, 9, false},
		{"duplicate", []int32{1, 4}, 4, 9, false},
		{"duplicate first", []int32{4, 1}, 4, 9, false},
		{"empty chosen", nil, 0, 9, true},
		{"self with chosen", []int32{1}, 9, 9, false},
		// The predicate must not trust the draw: a candidate above v
		// (impossible from either branch today) is still only rejected
		// for self/dup reasons, never accepted as a duplicate or self.
		{"future vertex", []int32{1}, 11, 9, true},
	}
	for _, tc := range cases {
		if got := attachAccept(tc.chosen, tc.t, tc.v); got != tc.want {
			t.Errorf("%s: attachAccept(%v, %d, %d) = %v, want %v", tc.name, tc.chosen, tc.t, tc.v, got, tc.want)
		}
	}
}

// TestPowerLawStreamAttachmentInvariantMillion is the satellite's
// million-node invariant: replay the raw attachment stream (not the
// deduplicating CSR build) and assert every arriving vertex contributes
// exactly k attachment edges with no self-loop and no duplicate target
// — per arrival, at stream level, where a rejection bug would actually
// surface. Skipped in -short mode (docs/TESTING.md §Scale tests).
func TestPowerLawStreamAttachmentInvariantMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	const (
		n = 1_000_000
		k = 3
	)
	var (
		cur     = -1     // arriving vertex currently being checked
		seen    [k]int32 // targets of the current arrival
		cnt     = 0      // attachments of the current arrival
		badness = 0      // total violations (capped reporting)
		edges   = int64(0)
	)
	flush := func() {
		if cur > k && cnt != k {
			badness++
			if badness < 10 {
				t.Errorf("vertex %d attached %d times, want %d", cur, cnt, k)
			}
		}
	}
	PowerLawStream(n, k, 77)(func(u, v int) {
		edges++
		if u == v {
			badness++
			if badness < 10 {
				t.Errorf("self-loop at vertex %d", u)
			}
		}
		if u <= k && v <= k {
			return // seed clique
		}
		// Attachment edges are emitted (arriving vertex, target),
		// grouped by arrival in ascending order.
		if u != cur {
			flush()
			cur, cnt = u, 0
		}
		if v >= u {
			badness++
			if badness < 10 {
				t.Errorf("vertex %d attached to non-prior vertex %d", u, v)
			}
		}
		for i := 0; i < cnt && i < k; i++ {
			if seen[i] == int32(v) {
				badness++
				if badness < 10 {
					t.Errorf("vertex %d attached to %d twice", u, v)
				}
			}
		}
		if cnt < k {
			seen[cnt] = int32(v)
		}
		cnt++
	})
	flush()
	wantEdges := int64(k*(k+1)/2 + (n-k-1)*k)
	if edges != wantEdges {
		t.Fatalf("stream emitted %d edges, want %d", edges, wantEdges)
	}
	if badness > 0 {
		t.Fatalf("%d attachment invariant violations", badness)
	}
}

// TestStreamedGeneratorInvariantsLarge runs the structural invariants
// the fuzz target checks on small n — degree sum, sortedness,
// simplicity, symmetry — on million-node streamed builds, where the
// map-built reference would be too slow to compare against. Skipped in
// -short mode (docs/TESTING.md §Scale tests).
func TestStreamedGeneratorInvariantsLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	const n = 1_000_000
	cases := []struct {
		name string
		csr  *CSR
	}{
		{"ring", StreamedRing(n)},
		{"gnp", StreamedGNP(n, 4.0/float64(n), 21)},
		{"powerlaw", StreamedPowerLaw(n, 3, 22)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.csr
			if c.N() != n {
				t.Fatalf("n = %d", c.N())
			}
			var degSum int64
			for v := 0; v < n; v++ {
				degSum += int64(c.Degree(v))
			}
			if degSum != c.Arcs() || degSum != 2*c.M() {
				t.Fatalf("degree sum %d, arcs %d, 2m %d", degSum, c.Arcs(), 2*c.M())
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

// FuzzStreamingCSRBuild decodes arbitrary bytes into an edge stream
// (deduplicated, self-loop-free, so both build paths accept it) and
// asserts the streamed CSR is byte-identical to the map-built
// reference: same offsets, same columns, same fingerprint.
func FuzzStreamingCSRBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0})
	f.Add([]byte{9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			data = []byte{0}
		}
		n := int(data[0])%32 + 1
		type edge struct{ u, v int }
		seen := make(map[edge]bool)
		var edges []edge
		for i := 1; i+1 < len(data); i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			e := edge{u, v}
			if seen[e] {
				continue
			}
			seen[e] = true
			edges = append(edges, e)
		}
		stream := func(emit func(u, v int)) {
			for _, e := range edges {
				emit(e.u, e.v)
			}
		}
		c, err := StreamCSR(n, stream)
		if err != nil {
			t.Fatalf("StreamCSR rejected a clean stream: %v", err)
		}
		ref := buildReference(t, n, stream)
		assertCSREqualsGraph(t, c, ref)
		if err := c.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
	})
}

// allocDelta measures the heap bytes fn allocates (single-goroutine
// accounting via TotalAlloc, the codec tests' technique).
func allocDelta(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// Guard for the scratch pool: PowerLawStream replays must reuse the
// pooled sampling scratch instead of reallocating the ≈8·k·n-byte
// pool per replay. Asserted via allocation accounting over repeated
// builds after a warm-up populates the pool; the generous bound (one
// CSR's worth of output per build, plus slack) fails loudly if the
// per-replay make([]int32, ...) ever returns.
func TestPowerLawStreamScratchReuse(t *testing.T) {
	n, k := 20000, 4
	StreamedPowerLaw(n, k, 1) // warm the pool

	const builds = 4
	poolBytes := int64(8 * k * n) // one pool reallocation would cost ≈ this
	// Steady-state cost per build: rowPtr (8(n+1)) + col (8·arcs) for
	// two CSRs (count+fill temp is the CSR itself) plus RNG + slack.
	csrBytes := int64(8*(n+1)) + 8*int64(2*((n-k-1)*k+k*(k+1)/2))
	budget := builds * (csrBytes + poolBytes/4)

	var delta int64
	for attempt := 0; attempt < 5; attempt++ {
		delta = allocDelta(func() {
			for i := 0; i < builds; i++ {
				StreamedPowerLaw(n, k, int64(2+i))
			}
		})
		if delta <= budget {
			return
		}
		// A GC between warm-up and measurement can empty the pool;
		// re-warm and retry before declaring a regression.
		StreamedPowerLaw(n, k, 1)
	}
	t.Fatalf("%d builds allocated %d bytes, budget %d (scratch pool not reused?)", builds, delta, budget)
}
