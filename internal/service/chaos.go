// chaos.go is the durable service's kill-point harness. Its one kill
// loop, runChaosPoint, churns a deterministic script through a Durable
// up to a kill point, applies the point's damage (boundary kill,
// mid-record tear, byte flip, tail truncation), recovers via
// OpenDurable, and runs the recovery differential (RefState.Diff): the
// recovered colors, canonical Stats and topology fingerprint must equal
// an uninterrupted reference run at the recovered version, and a full
// validity audit must pass. It then replays the rest of the script and
// diffs the final state too. RunChaos drives the loop over a
// seed-derived kill schedule (`colord -chaos`, `make chaos`); the
// recovery tests drive it over explicit points. The file also holds
// the churn generators: the chaos script and the random edge batches
// of `colord -churn` and the durability bench.
package service

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"listcolor/internal/adversary"
	"listcolor/internal/coloring"
	"listcolor/internal/graph"
)

// The chaos matrix churns a ring of chaosNodes vertices with a script
// of chaosBatches batches of chaosBatchSize ops, checkpointing every
// chaosCheckpointEvery batches — a deliberately odd cadence so kills
// land on every phase of it.
const (
	chaosNodes           = 64
	chaosBatches         = 24
	chaosBatchSize       = 8
	chaosCheckpointEvery = 7
)

// ChaosConfig sizes the chaos matrix.
type ChaosConfig struct {
	// Points is the kill-point count; 0 means 200.
	Points int
	// Seed drives the script and the kill schedule.
	Seed int64
	// Dir hosts the per-point data dirs; "" means a temp dir.
	Dir string
	// Log, when set, receives per-point progress lines.
	Log func(format string, args ...any)
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
	return coloring.FullPalette(base.N(), base.RawMaxDegree()+4, 1)
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

// EdgeChurnBatch draws one batch of size random edge toggles against
// s's current topology, for colord -churn and the durability bench:
// each draw picks two distinct nodes and removes their edge if it is
// present (counting the batch's own earlier toggles), else adds it if
// both endpoints stay below space-2, so every full-palette list stays
// feasible. s must not be written while the batch is drawn.
func EdgeChurnBatch(s *Service, rng *rand.Rand, space, size int) []Op {
	pending := make(map[[2]int]bool) // edge states toggled earlier in the batch
	degDelta := make(map[int]int)
	ops := make([]Op, 0, size)
	for len(ops) < size {
		u, v := rng.Intn(s.N()), rng.Intn(s.N())
		if u == v {
			continue
		}
		key := [2]int{min(u, v), max(u, v)}
		present, seen := pending[key]
		if !seen {
			present = s.HasEdge(u, v)
		}
		switch {
		case present:
			ops = append(ops, Op{Action: OpRemoveEdge, U: u, V: v})
			pending[key] = false
			degDelta[u]--
			degDelta[v]--
		case s.DegreeOf(u)+degDelta[u] < space-2 && s.DegreeOf(v)+degDelta[v] < space-2:
			ops = append(ops, Op{Action: OpAddEdge, U: u, V: v})
			pending[key] = true
			degDelta[u]++
			degDelta[v]++
		}
	}
	return ops
}

// RefState is a service's observable state at one version, captured
// from an uninterrupted reference run: the right-hand side of the
// recovery differential.
type RefState struct {
	Version     uint64
	Colors      []int
	Stats       Stats // canonical: see CanonicalStats
	Fingerprint uint64
}

// CaptureRef copies s's observable state at its current version.
func CaptureRef(s *Service) RefState {
	snap := s.Snapshot()
	return RefState{
		Version:     snap.Version,
		Colors:      append([]int(nil), snap.Colors...),
		Stats:       CanonicalStats(s.Stats()),
		Fingerprint: s.TopologyFingerprint(),
	}
}

// Diff is the recovery differential: nil when s has the reference's
// version, colors, canonical Stats and topology fingerprint, and passes
// a full validity audit; otherwise the first divergence.
func (r RefState) Diff(s *Service) error {
	snap := s.Snapshot()
	if snap.Version != r.Version {
		return fmt.Errorf("version %d, reference at %d", snap.Version, r.Version)
	}
	if !slices.Equal(snap.Colors, r.Colors) {
		return fmt.Errorf("colors diverge at version %d", r.Version)
	}
	if got := CanonicalStats(s.Stats()); got != r.Stats {
		return fmt.Errorf("stats diverge at version %d:\n got %+v\nwant %+v", r.Version, got, r.Stats)
	}
	if fp := s.TopologyFingerprint(); fp != r.Fingerprint {
		return fmt.Errorf("topology fingerprint diverges at version %d: %x vs %x", r.Version, fp, r.Fingerprint)
	}
	if audit := s.AuditState(0); !audit.Valid() {
		return fmt.Errorf("audit at version %d: %w", r.Version, audit.Err())
	}
	return nil
}

// referenceRun plays script on a fresh service over (base, inst) and
// captures every version: refs[v] is the state after v batches.
func referenceRun(base *graph.CSR, inst *coloring.Instance, script [][]Op) ([]RefState, error) {
	s, err := New(base, inst, nil, Options{})
	if err != nil {
		return nil, err
	}
	refs := []RefState{CaptureRef(s)}
	for bi, ops := range script {
		if _, err := s.ApplyBatch(ops); err != nil && !errors.Is(err, ErrOp) {
			return nil, fmt.Errorf("reference batch %d: %w", bi, err)
		}
		refs = append(refs, CaptureRef(s))
	}
	return refs, nil
}

// RunChaos executes the kill-point matrix and returns its report. A
// non-nil error describes the first differential failure (the report
// still counts the rest).
func RunChaos(cfg ChaosConfig) (ChaosReport, error) {
	if cfg.Points == 0 {
		cfg.Points = 200
	}
	rep := ChaosReport{PerMode: map[string]int{}}
	base := graph.StreamedRing(chaosNodes)
	inst := slackInstance(base)
	script := chaosScript(base, chaosBatches, chaosBatchSize, cfg.Seed)
	plan := adversary.NewChaosPlan(cfg.Seed, chaosBatches, cfg.Points)
	if err := plan.Validate(); err != nil {
		return rep, err
	}
	refs, err := referenceRun(base, inst, script)
	if err != nil {
		return rep, fmt.Errorf("chaos %w", err)
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
		dir := filepath.Join(root, fmt.Sprintf("pt-%04d", pi))
		info, err := runChaosPoint(pt, base, inst, script, refs,
			DurableOptions{Dir: dir, Sync: SyncBatch, CheckpointEvery: chaosCheckpointEvery})
		os.RemoveAll(dir)
		if info != nil {
			if info.Tail != nil {
				rep.TailsDiscarded++
			}
			rep.ReplayedBatches += info.ReplayedBatches
		}
		if err != nil {
			err = fmt.Errorf("point %d (%s at batch %d): %w", pi, pt.Mode, pt.Batch, err)
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

// runChaosPoint is the one kill loop. In dopts.Dir it churns script
// through a fresh durable service over (base, inst) up to pt's kill,
// applies pt's damage, recovers with OpenDurable and diffs against
// refs at the recovered version, then finishes the script and diffs
// against the final reference. Beyond the differential it checks what
// each kill promises:
//   - a torn append reports ErrWALCrashed, and the dead Durable refuses
//     the next write;
//   - unless dopts.Sync is SyncOff, a boundary kill or a tear loses no
//     batch before it: recovery lands exactly on pt.Batch;
//   - a flipped byte is detected: a tail is discarded and recovery
//     lands before pt.Batch;
//   - a discarded tail carries a typed reason.
//
// The recovery account is returned whenever OpenDurable succeeded,
// also alongside a failed check.
func runChaosPoint(pt adversary.ChaosPoint, base *graph.CSR, inst *coloring.Instance,
	script [][]Op, refs []RefState, dopts DurableOptions) (*RecoveryInfo, error) {
	svc, err := New(base, inst, nil, Options{})
	if err != nil {
		return nil, err
	}
	d, err := NewDurable(svc, dopts)
	if err != nil {
		return nil, err
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
			return nil, fmt.Errorf("apply: %w", err)
		}
	}
	if pt.Mode == adversary.ChaosMidRecord {
		if !crashed {
			return nil, errors.New("armed crash never fired")
		}
		if _, err := d.ApplyBatch(script[pt.Batch]); !errors.Is(err, ErrWALCrashed) {
			return nil, fmt.Errorf("dead durable accepted a write: %v", err)
		}
	}
	d.Abort()

	flipped := false
	switch pt.Mode {
	case adversary.ChaosFlipByte:
		err = damageLastSegment(dopts.Dir, func(img []byte) []byte {
			magic := len(walSegmentMagic)
			if len(img) <= magic {
				return img
			}
			flipped = true
			out := append([]byte(nil), img...)
			out[magic+int(pt.Draw%uint64(len(img)-magic))] ^= 0x20
			return out
		})
	case adversary.ChaosTruncate:
		err = damageLastSegment(dopts.Dir, func(img []byte) []byte {
			cut := int(pt.Draw % uint64(len(img)+1))
			return img[:len(img)-cut]
		})
	}
	if err != nil {
		return nil, err
	}

	d2, info, err := OpenDurable(Options{}, dopts)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	defer d2.Close()
	s := d2.Service()
	v := s.Version()
	if v >= uint64(len(refs)) {
		return info, fmt.Errorf("recovered version %d beyond the reference run", v)
	}
	if err := refs[v].Diff(s); err != nil {
		return info, fmt.Errorf("recovered: %w", err)
	}
	lossless := dopts.Sync != SyncOff && (pt.Mode == adversary.ChaosBoundary || pt.Mode == adversary.ChaosMidRecord)
	switch {
	case info.Tail != nil && info.Tail.Reason == "":
		return info, fmt.Errorf("untyped tail: %v", info.Tail)
	case lossless && v != uint64(pt.Batch):
		return info, fmt.Errorf("recovered version %d, want the kill batch %d", v, pt.Batch)
	case flipped && (info.Tail == nil || v >= uint64(pt.Batch)):
		return info, fmt.Errorf("flipped byte undetected: version %d, tail %v", v, info.Tail)
	}
	for _, ops := range script[v:] {
		if _, err := d2.ApplyBatch(ops); err != nil && !errors.Is(err, ErrOp) {
			return info, fmt.Errorf("continue: %w", err)
		}
	}
	if err := refs[len(refs)-1].Diff(s); err != nil {
		return info, fmt.Errorf("final: %w", err)
	}
	return info, nil
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
