package coloring

import (
	"errors"
	"strings"
	"testing"

	"listcolor/internal/graph"
)

// auditInstance gives every node the sorted list [0, space) with a
// uniform defect budget.
func auditInstance(n, space, defect int) *Instance {
	list := make([]int, space)
	defs := make([]int, space)
	for i := range list {
		list[i] = i
		defs[i] = defect
	}
	in := &Instance{Space: space, Lists: make([][]int, n), Defects: make([][]int, n)}
	for v := 0; v < n; v++ {
		in.Lists[v] = list
		in.Defects[v] = defs
	}
	return in
}

// ringColors colors the n-cycle properly for n even, with one
// monochromatic edge for n odd — handy known ground truth.
func ringColors(n int) []int {
	colors := make([]int, n)
	for v := range colors {
		colors[v] = v % 2
	}
	return colors
}

func auditWorkerCounts() []int { return []int{2, 3, 4, 7, 16} }

func TestAuditValidColoring(t *testing.T) {
	n := 100
	g := graph.StreamedRing(n)
	in := auditInstance(n, 3, 0)
	rep := Audit(g, in, ringColors(n))
	if !rep.Valid() || rep.Err() != nil {
		t.Fatalf("valid coloring audited invalid: %v", rep.Violation)
	}
	if rep.Nodes != n || rep.ScannedArcs != 2*int64(n) {
		t.Fatalf("Nodes=%d ScannedArcs=%d, want %d and %d", rep.Nodes, rep.ScannedArcs, n, 2*n)
	}
	if rep.Conflicts != 0 || rep.MaxDefect != 0 || rep.HardNodes != 0 || rep.OffList != 0 {
		t.Fatalf("clean audit carries violations: %+v", rep)
	}
}

func TestAuditCountsDefects(t *testing.T) {
	// Odd ring with alternating colors: nodes n-1 and 0 share color 0,
	// giving exactly one monochromatic edge = 2 conflict endpoints.
	n := 9
	g := graph.StreamedRing(n)
	colors := ringColors(n)

	strict := Audit(g, auditInstance(n, 3, 0), colors)
	if strict.Valid() {
		t.Fatal("odd-ring alternation audited valid under zero budgets")
	}
	if strict.Conflicts != 2 || strict.HardNodes != 2 || strict.MaxDefect != 1 {
		t.Fatalf("Conflicts=%d HardNodes=%d MaxDefect=%d, want 2, 2, 1",
			strict.Conflicts, strict.HardNodes, strict.MaxDefect)
	}
	if !errors.Is(strict.Violation, ErrViolation) || !strings.Contains(strict.Violation.Error(), "node 0") {
		t.Fatalf("first violation should name node 0 (smallest id): %v", strict.Violation)
	}

	slack := Audit(g, auditInstance(n, 3, 1), colors)
	if !slack.Valid() {
		t.Fatalf("budget-1 audit rejected: %v", slack.Violation)
	}
	if slack.Absorbed != 2 || slack.TightNodes != 2 {
		t.Fatalf("Absorbed=%d TightNodes=%d, want 2 and 2", slack.Absorbed, slack.TightNodes)
	}
}

func TestAuditOffListColor(t *testing.T) {
	n := 10
	g := graph.StreamedRing(n)
	colors := ringColors(n)
	colors[4] = 99
	rep := Audit(g, auditInstance(n, 3, 0), colors)
	if rep.Valid() || rep.OffList != 1 {
		t.Fatalf("off-list color not flagged: %+v", rep)
	}
	want := "node 4 chose color 99 ∉ L_v"
	if !strings.Contains(rep.Violation.Error(), want) {
		t.Fatalf("violation %q does not mention %q", rep.Violation, want)
	}
}

func TestAuditShapeMismatch(t *testing.T) {
	g := graph.StreamedRing(10)
	rep := Audit(g, auditInstance(4, 3, 0), make([]int, 10))
	if rep.Valid() || !errors.Is(rep.Violation, ErrViolation) {
		t.Fatalf("shape mismatch not flagged: %+v", rep)
	}
}

// The tentpole invariant: the parallel audit reproduces the sequential
// report field-for-field — including the violation's exact text — at
// every worker count, on valid, defective, and invalid colorings.
func TestAuditParallelMatchesSequential(t *testing.T) {
	n := 3000
	g := graph.StreamedGNP(n, 4.0/float64(n), 7)
	colorings := map[string][]int{}

	tight := make([]int, n) // few colors: plenty of conflicts
	wild := make([]int, n)  // some off-list, some conflicted
	for v := 0; v < n; v++ {
		tight[v] = v % 3
		wild[v] = v % 5
	}
	wild[17], wild[2900] = 99, -1
	colorings["proper-ish"] = ringColors(n)
	colorings["tight"] = tight
	colorings["wild"] = wild

	for name, colors := range colorings {
		for _, defect := range []int{0, 1, 3} {
			in := auditInstance(n, 5, defect)
			seq := Audit(g, in, colors)
			for _, w := range auditWorkerCounts() {
				par := AuditParallel(g, in, colors, w)
				if !AuditReportsEqual(seq, par) {
					t.Fatalf("%s/defect=%d workers=%d: parallel report diverges:\nseq %+v\npar %+v",
						name, defect, w, seq, par)
				}
			}
		}
	}
}

// AuditInto's conflict sink must be the realized monochromatic degree
// of every node — off-list nodes included — independent of workers.
func TestAuditIntoFillsConflicts(t *testing.T) {
	n := 2500
	csr := graph.StreamedGNP(n, 5.0/float64(n), 3)
	g := csr.Graph()
	colors := make([]int, n)
	for v := range colors {
		colors[v] = v % 4
	}
	colors[9] = 77 // off-list; its mono degree must still be recorded
	in := auditInstance(n, 4, 0)
	want := graph.MonochromaticDegree(g, colors)
	for _, w := range []int{1, 3, 8} {
		got := make([]int, n)
		AuditInto(csr, in, colors, got, w)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("workers=%d: conflicts[%d] = %d, want %d", w, v, got[v], want[v])
			}
		}
	}
}

// Auto-fallback: workers ≤ 0 below auditMinN (or on a single-core
// host) never starts goroutines; explicit workers > 1 always does.
func TestAuditParallelAutoFallback(t *testing.T) {
	n := auditMinN / 4
	g := graph.StreamedRing(n)
	in := auditInstance(n, 3, 0)
	colors := ringColors(n)
	before := auditParallelRuns.Load()
	AuditParallel(g, in, colors, 0)
	AuditParallel(g, in, colors, 1)
	Audit(g, in, colors)
	if got := auditParallelRuns.Load(); got != before {
		t.Fatalf("sequential-path audits took the parallel path %d times", got-before)
	}
	AuditParallel(g, in, colors, 2)
	if got := auditParallelRuns.Load(); got != before+1 {
		t.Fatalf("explicit workers=2 did not take the parallel path")
	}
}

// The audit's validity verdict must agree with the sequential
// validator on every coloring (the violation chosen may differ when
// off-list and over-budget nodes coexist — the validator does two
// passes, the audit one — but valid/invalid never disagrees).
func TestAuditAgreesWithValidator(t *testing.T) {
	n := 60
	csr := graph.StreamedGNP(n, 0.1, 5)
	g := csr.Graph()
	for _, defect := range []int{0, 2} {
		in := auditInstance(n, 4, defect)
		for variant := 0; variant < 8; variant++ {
			colors := make([]int, n)
			for v := range colors {
				colors[v] = (v*7 + variant*3) % (4 + variant%2) // variant 1,3,.. can go off-list
			}
			rep := Audit(csr, in, colors)
			err := ValidateListDefective(g, in, colors)
			if rep.Valid() != (err == nil) {
				t.Fatalf("defect=%d variant=%d: audit valid=%v, validator err=%v",
					defect, variant, rep.Valid(), err)
			}
		}
	}
}

func BenchmarkAuditSequential(b *testing.B) {
	n := 100000
	g := graph.StreamedGNP(n, 8.0/float64(n), 2)
	in := auditInstance(n, 12, 1)
	colors := make([]int, n)
	for v := range colors {
		colors[v] = v % 12
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Audit(g, in, colors)
	}
}

// The no-regression guarantee of the auto-fallback at conformance
// sizes: AuditParallel with workers ≤ 0 on n ≤ 1024 is the sequential
// scan plus one branch.
func BenchmarkAuditAutoSmallN(b *testing.B) {
	n := 1024
	g := graph.StreamedRing(n)
	in := auditInstance(n, 3, 0)
	colors := ringColors(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AuditParallel(g, in, colors, 0)
	}
}
