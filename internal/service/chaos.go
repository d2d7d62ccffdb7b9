// chaos.go executes an adversary.ChaosPlan against the durable
// service: for every seed-derived kill point it runs a deterministic
// churn script up to the kill, applies the point's damage (boundary
// kill, mid-record tear, byte flip, tail truncation), recovers via
// OpenDurable, and checks the recovered state byte-identically against
// an uninterrupted reference run at the recovered version — colors,
// canonical Stats, topology fingerprint, plus a full validity audit —
// then replays the remainder of the script and checks the final state
// too. This is `colord -chaos` and the `make chaos` matrix.
package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"listcolor/internal/adversary"
	"listcolor/internal/coloring"
	"listcolor/internal/graph"
)

// ChaosConfig sizes the chaos matrix.
type ChaosConfig struct {
	// Nodes is the ring size of the churned graph; 0 means 64.
	Nodes int
	// Batches is the script length; 0 means 24.
	Batches int
	// BatchSize is ops per batch; 0 means 8.
	BatchSize int
	// Points is the kill-point count; 0 means 200.
	Points int
	// Seed drives the script and the kill schedule.
	Seed int64
	// CheckpointEvery is the durable checkpoint cadence; 0 means 7 (a
	// deliberately odd cadence so kills land on every phase of it).
	CheckpointEvery int
	// Dir hosts the per-point data dirs; "" means a temp dir.
	Dir string
	// Log, when set, receives per-point progress lines.
	Log func(format string, args ...any)
}

func (c *ChaosConfig) defaults() {
	if c.Nodes == 0 {
		c.Nodes = 64
	}
	if c.Batches == 0 {
		c.Batches = 24
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
	if c.Points == 0 {
		c.Points = 200
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 7
	}
}

// ChaosReport is the matrix outcome: how many points ran per mode and
// what recovery saw. Zero Failures is the acceptance criterion.
type ChaosReport struct {
	Points          int            `json:"points"`
	PerMode         map[string]int `json:"per_mode"`
	TailsDiscarded  int            `json:"tails_discarded"`
	ReplayedBatches int            `json:"replayed_batches"`
	Failures        int            `json:"failures"`
}

// slackInstance is the churn instance of the chaos matrix and the
// service tests: a shared full palette of maxdeg+4 colors (so a
// conflict-minimizing recolor always has room) with one defect of
// slack per color.
func slackInstance(base *graph.CSR) *coloring.Instance {
	maxDeg := 0
	for v := 0; v < base.N(); v++ {
		if d := base.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	space := maxDeg + 4
	full := make([]int, space)
	ones := make([]int, space)
	for i := range full {
		full[i], ones[i] = i, 1
	}
	inst := &coloring.Instance{Space: space, Lists: make([][]int, base.N()), Defects: make([][]int, base.N())}
	for v := 0; v < base.N(); v++ {
		inst.Lists[v] = full
		inst.Defects[v] = ones
	}
	return inst
}

// chaosScript generates the deterministic churn script: every op
// derives from the seed via the adversary's splitmix64 discipline (no
// math/rand), with a local adjacency mirror keeping edge ops valid so
// batches exercise the full apply path instead of rejecting early.
func chaosScript(base *graph.CSR, batches, batchSize int, seed int64) [][]Op {
	n := base.N()
	adj := make([]map[int]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = make(map[int]bool, base.Degree(v))
		for _, u := range base.Row(v) {
			adj[v][u] = true
		}
	}
	draw := adversary.SplitMix64Stream(uint64(seed))
	space := slackInstance(base).Space
	script := make([][]Op, 0, batches)
	for b := 0; b < batches; b++ {
		ops := make([]Op, 0, batchSize)
		for len(ops) < batchSize {
			switch x := draw(); x % 10 {
			case 0, 1, 2, 3: // add_edge
				u := int(draw() % uint64(len(adj)))
				v := (u + 2 + int(draw()%8)) % len(adj)
				if u == v || adj[u][v] {
					continue
				}
				adj[u][v], adj[v][u] = true, true
				ops = append(ops, Op{Action: OpAddEdge, U: u, V: v})
			case 4, 5, 6: // remove_edge (smallest neighbor: map order is
				// not deterministic, the script must be)
				u := int(draw() % uint64(len(adj)))
				found := false
				for d := 0; d < len(adj) && !found; d++ {
					w := (u + d) % len(adj)
					v := -1
					for cand := range adj[w] {
						if v < 0 || cand < v {
							v = cand
						}
					}
					if v < 0 {
						continue
					}
					delete(adj[w], v)
					delete(adj[v], w)
					ops = append(ops, Op{Action: OpRemoveEdge, U: w, V: v})
					found = true
				}
				if !found {
					continue
				}
			case 7: // add_node with the shared palette
				full := make([]int, space)
				ones := make([]int, space)
				for i := range full {
					full[i], ones[i] = i, 1
				}
				adj = append(adj, make(map[int]bool))
				ops = append(ops, Op{Action: OpAddNode, List: full, Defects: ones})
			case 8: // set_list: shrink a node's palette, keep slack
				v := int(draw() % uint64(len(adj)))
				list := make([]int, 0, space-1)
				defects := make([]int, 0, space-1)
				for c := 0; c < space; c++ {
					if c != int(x%uint64(space)) {
						list = append(list, c)
						defects = append(defects, 2)
					}
				}
				ops = append(ops, Op{Action: OpSetList, Node: v, List: list, Defects: defects})
			case 9: // deliberately rejected op: replay must reproduce it.
				// Only as a batch's last op, so the mirror stays in sync
				// with the partially-applied prefix.
				if len(ops) != batchSize-1 {
					continue
				}
				ops = append(ops, Op{Action: OpRemoveNode, Node: len(adj) + 1000})
			}
		}
		script = append(script, ops)
	}
	return script
}

// chaosRef is one reference version's observable state.
type chaosRef struct {
	colors []int
	stats  Stats
	fp     uint64
}

// RunChaos executes the kill-point matrix and returns its report. A
// non-nil error describes the first differential failure (the report
// still counts the rest).
func RunChaos(cfg ChaosConfig) (ChaosReport, error) {
	cfg.defaults()
	rep := ChaosReport{PerMode: map[string]int{}}
	base := graph.StreamedRing(cfg.Nodes)
	script := chaosScript(base, cfg.Batches, cfg.BatchSize, cfg.Seed)
	plan := adversary.NewChaosPlan(cfg.Seed, cfg.Batches, cfg.Points)
	if err := plan.Validate(); err != nil {
		return rep, err
	}

	// Uninterrupted reference run, state captured at every version.
	refSvc, err := New(base, slackInstance(base), nil, Options{})
	if err != nil {
		return rep, err
	}
	refs := make([]chaosRef, 0, cfg.Batches+1)
	capture := func(s *Service) chaosRef {
		return chaosRef{
			colors: append([]int(nil), s.Snapshot().Colors...),
			stats:  CanonicalStats(s.Stats()),
			fp:     s.TopologyFingerprint(),
		}
	}
	refs = append(refs, capture(refSvc))
	for bi, ops := range script {
		if _, err := refSvc.ApplyBatch(ops); err != nil && !errors.Is(err, ErrOp) {
			return rep, fmt.Errorf("chaos reference batch %d: %w", bi, err)
		}
		refs = append(refs, capture(refSvc))
	}

	root := cfg.Dir
	if root == "" {
		root, err = os.MkdirTemp("", "chaos-")
		if err != nil {
			return rep, err
		}
		defer os.RemoveAll(root)
	}

	var firstErr error
	for pi, pt := range plan.Points {
		rep.Points++
		rep.PerMode[string(pt.Mode)]++
		if err := runChaosPoint(pi, pt, base, script, refs, cfg, root, &rep); err != nil {
			rep.Failures++
			if firstErr == nil {
				firstErr = err
			}
			if cfg.Log != nil {
				cfg.Log("point %d FAIL: %v", pi, err)
			}
		}
		if cfg.Log != nil && (pi+1)%50 == 0 {
			cfg.Log("chaos: %d/%d points, %d failures", pi+1, len(plan.Points), rep.Failures)
		}
	}
	return rep, firstErr
}

// runChaosPoint executes one kill: churn to the kill point, damage,
// recover, differential-check, finish the script, check again.
func runChaosPoint(pi int, pt adversary.ChaosPoint, base *graph.CSR, script [][]Op,
	refs []chaosRef, cfg ChaosConfig, root string, rep *ChaosReport) error {
	dir := filepath.Join(root, fmt.Sprintf("pt-%04d", pi))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	svc, err := New(base, slackInstance(base), nil, Options{})
	if err != nil {
		return err
	}
	dopts := DurableOptions{Dir: dir, Sync: SyncBatch, CheckpointEvery: cfg.CheckpointEvery}
	d, err := NewDurable(svc, dopts)
	if err != nil {
		return err
	}
	upTo := pt.Batch
	if pt.Mode == adversary.ChaosMidRecord {
		// One WAL append per batch, so arming append index Batch tears
		// exactly that batch's record.
		d.ArmCrash(pt.Batch, pt.Draw)
		upTo++ // the armed batch itself crashes mid-append
	}
	crashed := false
	for _, ops := range script[:upTo] {
		if _, err := d.ApplyBatch(ops); err != nil && !errors.Is(err, ErrOp) {
			if errors.Is(err, ErrWALCrashed) && pt.Mode == adversary.ChaosMidRecord {
				crashed = true
				break
			}
			return fmt.Errorf("point %d: apply: %w", pi, err)
		}
	}
	if pt.Mode == adversary.ChaosMidRecord && !crashed {
		return fmt.Errorf("point %d: armed crash never fired", pi)
	}
	d.Abort()

	switch pt.Mode {
	case adversary.ChaosFlipByte:
		if err := damageLastSegment(dir, func(img []byte) []byte {
			if len(img) <= 8 {
				return img
			}
			out := append([]byte(nil), img...)
			out[8+int(pt.Draw%uint64(len(img)-8))] ^= 0x20
			return out
		}); err != nil {
			return err
		}
	case adversary.ChaosTruncate:
		if err := damageLastSegment(dir, func(img []byte) []byte {
			cut := int(pt.Draw % uint64(len(img)+1))
			return img[:len(img)-cut]
		}); err != nil {
			return err
		}
	}

	d2, info, err := OpenDurable(Options{}, dopts)
	if err != nil {
		return fmt.Errorf("point %d (%s): recovery: %w", pi, pt.Mode, err)
	}
	defer d2.Close()
	if info.Tail != nil {
		rep.TailsDiscarded++
	}
	rep.ReplayedBatches += info.ReplayedBatches

	check := func(when string) error {
		s := d2.Service()
		snap := s.Snapshot()
		v := snap.Version
		if v >= uint64(len(refs)) {
			return fmt.Errorf("point %d (%s) %s: version %d beyond reference", pi, pt.Mode, when, v)
		}
		ref := refs[v]
		if !reflect.DeepEqual(snap.Colors, ref.colors) {
			return fmt.Errorf("point %d (%s) %s: colors diverge at version %d", pi, pt.Mode, when, v)
		}
		if got := CanonicalStats(s.Stats()); !reflect.DeepEqual(got, ref.stats) {
			return fmt.Errorf("point %d (%s) %s: stats diverge at version %d", pi, pt.Mode, when, v)
		}
		if fp := s.TopologyFingerprint(); fp != ref.fp {
			return fmt.Errorf("point %d (%s) %s: fingerprint diverges at version %d", pi, pt.Mode, when, v)
		}
		if audit := s.AuditState(0); !audit.Valid() {
			return fmt.Errorf("point %d (%s) %s: audit: %w", pi, pt.Mode, when, audit.Err())
		}
		return nil
	}
	if err := check("recovered"); err != nil {
		return err
	}
	// Boundary kills under SyncBatch lose nothing: recovery must land
	// exactly on the kill batch.
	if pt.Mode == adversary.ChaosBoundary {
		if v := d2.Service().Version(); v != uint64(pt.Batch) {
			return fmt.Errorf("point %d (boundary): recovered version %d, want %d", pi, v, pt.Batch)
		}
	}
	v := d2.Service().Version()
	for _, ops := range script[v:] {
		if _, err := d2.ApplyBatch(ops); err != nil && !errors.Is(err, ErrOp) {
			return fmt.Errorf("point %d (%s): continue: %w", pi, pt.Mode, err)
		}
	}
	return check("final")
}

// damageLastSegment rewrites the newest WAL segment through damage.
func damageLastSegment(dir string, damage func([]byte) []byte) error {
	names, err := listWALSegments(dir)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return nil
	}
	path := filepath.Join(dir, names[len(names)-1])
	img, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return os.WriteFile(path, damage(img), 0o644)
}
