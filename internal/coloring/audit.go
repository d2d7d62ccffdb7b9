package coloring

// Parallel validity/defect audit: the whole-graph conflict scan every
// layer above the substrate runs — conformance cells, the incremental
// service's between-batch validation (`colord -churn -verify`), the
// churn soaks, and the quality metrics — as one read-only,
// range-partitioned kernel. W workers scan contiguous vertex ranges of
// the topology; per-range partial reports merge deterministically
// (counters sum, maxima max, and the surviving violation is the one at
// the smallest node id, because ranges merge in ascending order and
// each range scans ascending), so the report — including the exact
// violation error text — is identical at every worker count. The
// sequential Audit is the reference the equivalence tests pin
// AuditParallel against.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Topology is the read-only adjacency an audit scans: satisfied by
// graph.Graph, graph.CSR, graph.Overlay, and graph.TopoView (the
// service's lock-free snapshots), so one kernel serves the static and
// the churned worlds.
type Topology interface {
	N() int
	Neighbors(v int) []int
}

// auditMinN is the auto-mode threshold below which AuditParallel
// (workers ≤ 0) stays sequential: conformance-sized instances must pay
// zero goroutine overhead (BenchmarkAuditSmallN pins the regression).
const auditMinN = 2048

// auditParallelRuns counts audits that took the parallel path —
// white-box instrumentation for the auto-fallback tests.
var auditParallelRuns atomic.Int64

// AuditReport is the outcome of a whole-graph validity/defect scan.
// All fields are independent of the worker count that produced them.
type AuditReport struct {
	// Nodes is the scanned vertex count; ScannedArcs is the number of
	// adjacency entries visited (2·m on a full scan).
	Nodes       int
	ScannedArcs int64
	// Conflicts is Σ_v (same-colored neighbors of v): every
	// monochromatic edge counts once per endpoint.
	Conflicts int64
	// Absorbed is the conflict mass soaked up by defect budgets — the
	// Σ of per-node conflict counts over nodes within budget.
	Absorbed int64
	// HardNodes counts nodes whose conflicts exceed their budget;
	// OffList counts nodes wearing a color outside their list. Either
	// being non-zero makes the coloring invalid.
	HardNodes int
	OffList   int
	// TightNodes counts nodes at exactly their (positive) budget;
	// MaxDefect is the largest realized per-node conflict count.
	TightNodes int
	MaxDefect  int
	// Violation is the first (smallest node id) constraint violation,
	// nil when the coloring is valid. The error text matches the
	// sequential validators' vocabulary (ErrViolation-wrapped).
	Violation error
}

// Valid reports whether the scan found no violation.
func (r AuditReport) Valid() bool { return r.Violation == nil }

// Err returns the first violation (nil when valid) — the drop-in form
// for callers that used a sequential validator.
func (r AuditReport) Err() error { return r.Violation }

// Audit runs the sequential whole-graph scan — the reference
// AuditParallel must match field-for-field at every worker count.
func Audit(topo Topology, inst *Instance, colors []int) AuditReport {
	return AuditInto(topo, inst, colors, nil, 1)
}

// AuditParallel runs the range-partitioned scan. workers ≤ 0 selects
// GOMAXPROCS and auto-falls back to the sequential path when that is 1
// or the graph is below auditMinN; an explicit workers > 1 forces the
// parallel machinery (equivalence tests and single-CPU benchmark
// containers rely on that).
func AuditParallel(topo Topology, inst *Instance, colors []int, workers int) AuditReport {
	return AuditInto(topo, inst, colors, nil, workers)
}

// AuditInto is AuditParallel with an optional per-node conflict sink:
// when conflicts is non-nil (length N), conflicts[v] receives v's
// same-colored-neighbor count — each range writes only its own
// disjoint span, so the fill is race-free and worker-independent. The
// quality metrics feed on it instead of re-walking adjacency.
func AuditInto(topo Topology, inst *Instance, colors []int, conflicts []int, workers int) AuditReport {
	n := topo.N()
	if inst.N() != n || len(colors) != n || (conflicts != nil && len(conflicts) != n) {
		return AuditReport{
			Nodes: n,
			Violation: fmt.Errorf("%w: %d nodes, %d constraints, %d colors",
				ErrViolation, n, inst.N(), len(colors)),
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if n < auditMinN {
			workers = 1
		}
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return auditRange(topo, inst, colors, conflicts, 0, n)
	}
	auditParallelRuns.Add(1)
	parts := make([]AuditReport, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			parts[w] = auditRange(topo, inst, colors, conflicts, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	out := AuditReport{Nodes: n}
	for _, p := range parts {
		out.ScannedArcs += p.ScannedArcs
		out.Conflicts += p.Conflicts
		out.Absorbed += p.Absorbed
		out.HardNodes += p.HardNodes
		out.OffList += p.OffList
		out.TightNodes += p.TightNodes
		if p.MaxDefect > out.MaxDefect {
			out.MaxDefect = p.MaxDefect
		}
		if out.Violation == nil {
			out.Violation = p.Violation // ranges merge ascending: smallest id wins
		}
	}
	return out
}

// auditRange scans vertices [lo, hi), ascending, recording the range's
// first violation. Nodes outside their list still have their conflict
// count taken (the quality sink wants realized monochromatic degrees
// for every node), but are excluded from the budget bookkeeping.
func auditRange(topo Topology, inst *Instance, colors []int, conflicts []int, lo, hi int) AuditReport {
	r := AuditReport{Nodes: topo.N()}
	for v := lo; v < hi; v++ {
		x := colors[v]
		nbrs := topo.Neighbors(v)
		r.ScannedArcs += int64(len(nbrs))
		conf := 0
		for _, u := range nbrs {
			if colors[u] == x {
				conf++
			}
		}
		if conflicts != nil {
			conflicts[v] = conf
		}
		r.Conflicts += int64(conf)
		if conf > r.MaxDefect {
			r.MaxDefect = conf
		}
		allowed, ok := inst.DefectOf(v, x)
		switch {
		case !ok:
			r.OffList++
			if r.Violation == nil {
				r.Violation = fmt.Errorf("%w: node %d chose color %d ∉ L_v", ErrViolation, v, x)
			}
		case conf > allowed:
			r.HardNodes++
			if r.Violation == nil {
				r.Violation = fmt.Errorf("%w: node %d color %d has %d conflicting neighbors > defect %d",
					ErrViolation, v, x, conf, allowed)
			}
		default:
			r.Absorbed += int64(conf)
			if conf == allowed && allowed > 0 {
				r.TightNodes++
			}
		}
	}
	return r
}

// AuditReportsEqual reports whether two audit reports agree on every
// field, comparing violations by presence and text — the equivalence
// predicate of the seq-vs-par conformance checks.
func AuditReportsEqual(a, b AuditReport) bool {
	if a.Nodes != b.Nodes || a.ScannedArcs != b.ScannedArcs ||
		a.Conflicts != b.Conflicts || a.Absorbed != b.Absorbed ||
		a.HardNodes != b.HardNodes || a.OffList != b.OffList ||
		a.TightNodes != b.TightNodes || a.MaxDefect != b.MaxDefect {
		return false
	}
	if (a.Violation == nil) != (b.Violation == nil) {
		return false
	}
	if a.Violation != nil && a.Violation.Error() != b.Violation.Error() {
		return false
	}
	return true
}
