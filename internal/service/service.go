// Package service is the incremental coloring service: a long-running
// state machine that maintains a valid list defective coloring under a
// stream of edge/node insert and delete operations.
//
// It is the churn generalization of internal/repair — the paper's
// locality is the whole trick: a color choice is invalidated only by
// changes in its immediate neighborhood, so an update batch yields a
// small *dirty set* (endpoints of inserted or deleted edges, former
// neighbors of removed nodes, nodes whose lists changed), which is
// handed to repair.HealLocal: its entry scan classifies the set into
// defect-budget-absorbed vs hard conflicts, and bounded deterministic
// recoloring starts from exactly those nodes. The maintenance cost
// (recolor broadcasts, rounds, locality) is billed separately per
// batch.
//
// Topology lives in a graph.Overlay: reads on untouched vertices stay
// zero-copy views into the immutable CSR substrate, mutations are
// per-node patches, and the service compacts the overlay back into a
// fresh CSR whenever the patch count crosses a threshold — in a
// background goroutine over the immutable topology view the batch just
// published, with a fresh overlay over the finished CSR swapped in
// deterministically at the next batch boundary, so the fold is off the
// apply critical path.
//
// Concurrency contract: writers are serialized by a mutex (ApplyBatch
// remains externally single-writer); readers never take it — every
// batch publishes a snapshot (colors, topology view, and counters)
// through an atomic pointer, so Stats/HasEdge/DegreeOf/Version are
// lock-free and safe under any number of concurrent readers while
// batches apply. Colors live in two buffers: the published version
// reads one while the writer mutates the other, so Color/ColorsOf
// hold a per-buffer read lock that the writer only ever try-locks,
// and never wait for a batch.
package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/repair"
)

// Op actions. AddNode appends a fresh vertex (its id is reported in
// BatchReport.NewNodes); RemoveNode detaches a vertex's edges and
// leaves an id-stable tombstone; SetList replaces a node's color list
// and defect budgets.
const (
	OpAddEdge    = "add_edge"
	OpRemoveEdge = "remove_edge"
	OpAddNode    = "add_node"
	OpRemoveNode = "remove_node"
	OpSetList    = "set_list"
)

// Op is one update operation. U/V address edges; Node addresses
// remove_node and set_list; List/Defects carry set_list payloads and
// optionally seed add_node (defaulting to the full palette with zero
// budgets).
type Op struct {
	Action  string `json:"action"`
	U       int    `json:"u,omitempty"`
	V       int    `json:"v,omitempty"`
	Node    int    `json:"node,omitempty"`
	List    []int  `json:"list,omitempty"`
	Defects []int  `json:"defects,omitempty"`
}

// ErrOp marks a rejected operation: the batch stops at the offending
// op (prior ops stay applied), repair still runs, and the error
// reports the index. Unwrap for the cause.
var ErrOp = errors.New("service: bad operation")

// Options tunes a Service.
type Options struct {
	// RoundBudget caps repair rounds per batch; 0 means
	// repair.DefaultBudget(n).
	RoundBudget int
	// CompactThreshold is the patched-vertex count that triggers
	// overlay compaction after a batch; 0 means max(1024, n/8).
	CompactThreshold int
}

// Snapshot is the immutable read-side state one batch publishes: the
// colors, a lock-free topology view, the running counters as of the
// batch, and the batch version that produced it.
type Snapshot struct {
	Version uint64
	// Colors is shared with the service, not a copy, and must not be
	// modified. It stays unchanged for as long as the caller holds it.
	Colors []int
	// Topo is the topology at this version (base CSR plus the
	// published per-batch delta chain) — HasEdge/DegreeOf serve from
	// it without touching the writer lock.
	Topo *graph.TopoView
	// Stats is the running account as of this version (time-derived
	// fields are filled in by Service.Stats at read time).
	Stats Stats
}

// BatchReport is the maintenance bill of one applied batch.
type BatchReport struct {
	// Applied is the number of ops applied (< len(ops) iff an op was
	// rejected).
	Applied int `json:"applied"`
	// NewNodes lists the ids assigned to add_node ops, in order.
	NewNodes []int `json:"new_nodes,omitempty"`
	// Dirty is the number of distinct nodes the batch dirtied: the
	// seeds repair starts from.
	Dirty int `json:"dirty"`
	// Hard is the number of dirty nodes in hard violation before
	// repair; Absorbed is the conflict count the defect budgets soaked
	// up at the dirty nodes without any recoloring.
	Hard     int `json:"hard"`
	Absorbed int `json:"absorbed"`
	// Rounds/Recolored/Scanned/Fallbacks and the message bill come
	// from repair.HealLocal; Recolored is the batch's recolor
	// locality (nodes touched).
	Rounds              int  `json:"rounds"`
	Recolored           int  `json:"recolored"`
	Scanned             int  `json:"scanned"`
	Fallbacks           int  `json:"fallbacks"`
	MaintenanceMessages int  `json:"maintenance_messages"`
	MaintenanceBits     int  `json:"maintenance_bits"`
	Compacted           bool `json:"compacted"`
	// Converged reports that no hard node remained within the round
	// budget (the service's steady-state invariant).
	Converged bool   `json:"converged"`
	Version   uint64 `json:"version"`
}

// Stats is the running account served at /v1/stats.
type Stats struct {
	Version             uint64  `json:"version"`
	Nodes               int     `json:"nodes"`
	Edges               int64   `json:"edges"`
	Patched             int     `json:"patched"`
	Batches             int64   `json:"batches"`
	Updates             int64   `json:"updates"`
	Rejected            int64   `json:"rejected"`
	HardConflicts       int64   `json:"hard_conflicts"`
	AbsorbedConflicts   int64   `json:"absorbed_conflicts"`
	Recolored           int64   `json:"recolored"`
	RepairRounds        int64   `json:"repair_rounds"`
	Fallbacks           int64   `json:"fallbacks"`
	MaintenanceMessages int64   `json:"maintenance_messages"`
	MaintenanceBits     int64   `json:"maintenance_bits"`
	Compactions         int64   `json:"compactions"`
	UpdatesPerSec       float64 `json:"updates_per_sec"`
	// RecolorLocality is recolored nodes per applied update — the
	// maintenance-locality headline number.
	RecolorLocality float64 `json:"recolor_locality"`
	UptimeSec       float64 `json:"uptime_sec"`
}

// Service maintains the coloring. Construct with New; the zero value
// is not usable.
type Service struct {
	mu   sync.Mutex // serializes ApplyBatch (the single writer)
	ov   *graph.Overlay
	inst *coloring.Instance
	opts Options

	// colors is the writer's coloring, guarded by mu. Between batches
	// it is the published version's; a batch mutates another buffer.
	// spare holds the previous version's colors, or is nil when there
	// is none the writer may take back.
	colors []int
	spare  *colorBuf

	// seeds and heal are the writer's reused per-batch state, guarded
	// by mu: the batch's dirty seeds (duplicates included; HealLocal
	// dedupes them) and the scratch every heal run borrows.
	seeds []int
	heal  repair.HealScratch

	pub   atomic.Pointer[published]
	start time.Time

	// pendingCompact is non-nil while a background compaction builds a
	// CSR from a published topology view; the writer blocks on it at
	// the next batch boundary and swaps in an overlay over the CSR.
	pendingCompact chan compactResult

	// accumulated totals, guarded by mu; published into every
	// snapshot so Stats() never takes the lock.
	version uint64
	totals  Stats
}

type compactResult struct {
	csr *graph.CSR
	err error
}

// colorBuf is one of the service's two color buffers.
type colorBuf struct {
	// mu guards the buffer's reuse: readers hold it shared while they
	// read the colors, and the writer only try-locks it, to bump epoch
	// when it takes the buffer back.
	mu    sync.RWMutex
	epoch uint64
	// pinned is set once a Snapshot hands the colors out; the writer
	// never takes a pinned buffer back.
	pinned atomic.Bool
	colors []int // the writer's
}

// reclaim takes the buffer back for the writer. It fails while a
// reader holds the read lock or once a Snapshot pinned the buffer; on
// success the epoch bump turns away every reader that reached the
// buffer through an older version.
func (b *colorBuf) reclaim() bool {
	if !b.mu.TryLock() {
		return false
	}
	defer b.mu.Unlock()
	if b.pinned.Load() {
		return false
	}
	b.epoch++
	return true
}

// published is one version's read state: its Snapshot, the buffer its
// colors live in, and that buffer's epoch when it was published.
type published struct {
	Snapshot
	buf   *colorBuf
	epoch uint64
}

// New builds a service over the CSR substrate. The instance is cloned,
// because add_node appends lists and set_list replaces them; lists
// are never mutated in place, so the clone shares each run of
// identical adjacent lists (coloring.Instance.Clone). When colors is
// nil the service initializes with repair.GreedyColors; either way it
// runs a global Heal so the published state is valid from version 0 —
// an invalid initial state that cannot be healed within the budget is
// an error.
func New(base *graph.CSR, inst *coloring.Instance, colors []int, opts Options) (*Service, error) {
	if base == nil || inst == nil {
		return nil, fmt.Errorf("service: need a graph and an instance")
	}
	if inst.N() != base.N() {
		return nil, fmt.Errorf("service: instance covers %d nodes, graph has %d", inst.N(), base.N())
	}
	s := &Service{
		ov:    graph.NewOverlay(base),
		inst:  inst.Clone(),
		opts:  opts,
		start: time.Now(),
	}
	if colors == nil {
		s.colors = repair.GreedyColors(s.ov, s.inst)
	} else {
		if len(colors) != base.N() {
			return nil, fmt.Errorf("service: %d colors for %d nodes", len(colors), base.N())
		}
		s.colors = append([]int(nil), colors...)
	}
	hr := repair.Heal(s.ov, s.inst, s.colors, repair.HealOptions{RoundBudget: opts.RoundBudget, Scratch: &s.heal})
	if !hr.Converged {
		return nil, fmt.Errorf("service: initial coloring does not heal (%d hard nodes left)", hr.Hard)
	}
	s.totals.HardConflicts += int64(hr.Hard)
	s.totals.Recolored += int64(hr.Recolored)
	s.totals.RepairRounds += int64(hr.Rounds)
	s.totals.Fallbacks += int64(hr.Fallbacks)
	s.totals.MaintenanceMessages += int64(hr.Messages)
	s.totals.MaintenanceBits += int64(hr.Bits)
	s.publish(&colorBuf{})
	return s, nil
}

// takeSpare gives the writer a buffer to mutate: the spare, caught up
// to the published version, when the writer can take it back, else a
// full copy of the published colors. Caller holds mu.
func (s *Service) takeSpare() *colorBuf {
	b := s.spare
	s.spare = nil
	if b == nil || !b.reclaim() {
		b = &colorBuf{colors: append([]int(nil), s.colors...)}
	} else {
		// The spare holds the previous version: only the nodes the last
		// batch appended and the ids its heal recolored differ.
		b.colors = append(b.colors, s.colors[len(b.colors):]...)
		for _, v := range s.heal.Recolored() {
			b.colors[v] = s.colors[v]
		}
	}
	s.colors = b.colors
	return b
}

// publish seals the batch's overlay mutations into a new topology view
// and publishes the colors in b, which the writer now leaves alone;
// the previous version's buffer becomes the spare. It returns the
// view. Caller holds mu (or is the constructor).
func (s *Service) publish(b *colorBuf) *graph.TopoView {
	topo := s.ov.Publish()
	st := s.totals
	st.Version = s.version
	st.Nodes = s.ov.N()
	st.Edges = s.ov.M()
	st.Patched = s.ov.Patched()
	b.colors = s.colors
	n := len(s.colors)
	p := &published{
		Snapshot: Snapshot{Version: s.version, Colors: s.colors[:n:n], Topo: topo, Stats: st},
		buf:      b,
		epoch:    b.epoch,
	}
	if old := s.pub.Swap(p); old != nil {
		s.spare = old.buf
	}
	return topo
}

// acquire read-locks the colors of p, a version the caller loaded, or
// of the newest version when the writer has taken p's buffer back
// since; the caller releases the version returned with
// buf.mu.RUnlock. The writer only takes back the buffer of a version
// older than the newest, so each retry follows a publish.
func (s *Service) acquire(p *published) *published {
	for {
		p.buf.mu.RLock()
		if p.buf.epoch == p.epoch {
			return p
		}
		p.buf.mu.RUnlock()
		p = s.pub.Load()
	}
}

// Snapshot returns the current read state. Its Colors are pinned: the
// writer never reuses their buffer, and copies instead.
func (s *Service) Snapshot() *Snapshot {
	p := s.acquire(s.pub.Load())
	p.buf.pinned.Store(true)
	p.buf.mu.RUnlock()
	return &p.Snapshot
}

// Version returns the published version, lock-free.
func (s *Service) Version() uint64 { return s.pub.Load().Version }

// Color returns node v's color and the snapshot version; it never
// waits for a batch. ok is false when v is not a known node.
func (s *Service) Color(v int) (color int, version uint64, ok bool) {
	p := s.acquire(s.pub.Load())
	defer p.buf.mu.RUnlock()
	if v < 0 || v >= len(p.Colors) {
		return 0, p.Version, false
	}
	return p.Colors[v], p.Version, true
}

// ColorsOf returns the colors of the requested nodes from one
// consistent snapshot. Unknown nodes yield ok=false.
func (s *Service) ColorsOf(nodes []int) (colors []int, version uint64, ok bool) {
	colors = make([]int, len(nodes))
	p := s.acquire(s.pub.Load())
	defer p.buf.mu.RUnlock()
	ok = true
	for i, v := range nodes {
		if v < 0 || v >= len(p.Colors) {
			ok = false
			continue
		}
		colors[i] = p.Colors[v]
	}
	return colors, p.Version, ok
}

// N returns the current node count (from the read snapshot).
func (s *Service) N() int { return len(s.pub.Load().Colors) }

// HasEdge reports whether {u, v} is present in the current snapshot,
// lock-free — reads never wait behind a batch in flight.
func (s *Service) HasEdge(u, v int) bool {
	return s.pub.Load().Topo.HasEdge(u, v)
}

// DegreeOf returns v's degree in the current snapshot (0 for unknown
// nodes), lock-free like HasEdge.
func (s *Service) DegreeOf(v int) int {
	t := s.pub.Load().Topo
	if v < 0 || v >= t.N() {
		return 0
	}
	return t.Degree(v)
}

// Stats returns the running account from the current snapshot,
// lock-free; only the uptime-derived rates are computed at read time.
func (s *Service) Stats() Stats {
	st := s.pub.Load().Stats
	st.UptimeSec = time.Since(s.start).Seconds()
	if st.UptimeSec > 0 {
		st.UpdatesPerSec = float64(st.Updates) / st.UptimeSec
	}
	if st.Updates > 0 {
		st.RecolorLocality = float64(st.Recolored) / float64(st.Updates)
	}
	return st
}

// ApplyBatch applies ops in order under the writer lock, repairs the
// dirty set, and publishes a new snapshot. A rejected op stops the
// batch — prior ops stay applied, repair still runs so the published
// coloring is valid, and the error (wrapping ErrOp with the op index)
// is returned alongside the report of what did happen.
func (s *Service) ApplyBatch(ops []Op) (BatchReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	var rep BatchReport
	if err := s.swapCompaction(); err != nil {
		return rep, err
	}
	buf := s.takeSpare()

	seeds, opErr := s.applySeq(ops, &rep)
	// HealLocal's entry scan is the pre-repair classification of the
	// dirty set: conflicts the defect budgets absorb outright vs hard
	// violations repair must fix.
	hr := repair.HealLocal(s.ov, s.inst, s.colors, seeds, repair.HealOptions{RoundBudget: s.opts.RoundBudget, Scratch: &s.heal})
	rep.Dirty = hr.Seeds
	rep.Hard = hr.Hard
	rep.Absorbed = hr.Absorbed
	rep.Rounds = hr.Rounds
	rep.Recolored = hr.Recolored
	rep.Scanned = hr.Scanned
	rep.Fallbacks = hr.Fallbacks
	rep.MaintenanceMessages = hr.Messages
	rep.MaintenanceBits = hr.Bits
	rep.Converged = hr.Converged
	rep.Compacted = s.compactionDue()

	s.totals.Batches++
	s.totals.Updates += int64(rep.Applied)
	s.totals.Rejected += int64(len(ops) - rep.Applied)
	s.totals.HardConflicts += int64(rep.Hard)
	s.totals.AbsorbedConflicts += int64(rep.Absorbed)
	s.totals.Recolored += int64(rep.Recolored)
	s.totals.RepairRounds += int64(rep.Rounds)
	s.totals.Fallbacks += int64(rep.Fallbacks)
	s.totals.MaintenanceMessages += int64(rep.MaintenanceMessages)
	s.totals.MaintenanceBits += int64(rep.MaintenanceBits)
	if rep.Compacted {
		s.totals.Compactions++
	}

	s.version++
	rep.Version = s.version
	topo := s.publish(buf)
	if rep.Compacted {
		s.launchCompaction(topo)
	}
	return rep, opErr
}

// applySeq is the single-writer apply loop: ops mutate the overlay in
// order, stopping at the first rejected op. It returns the batch's
// dirty seeds, duplicates included, in a buffer reused across batches.
func (s *Service) applySeq(ops []Op, rep *BatchReport) ([]int, error) {
	s.seeds = s.seeds[:0]
	var opErr error
	for i, op := range ops {
		if err := s.apply(op, rep); err != nil {
			opErr = fmt.Errorf("%w: op %d (%s): %v", ErrOp, i, op.Action, err)
			break
		}
		rep.Applied++
	}
	return s.seeds, opErr
}

// swapCompaction installs a finished background compaction at the
// batch boundary: it blocks until the builder goroutine delivers (the
// build overlaps everything between the two batches) and replaces the
// overlay with a fresh one over the new CSR. Nothing mutates the
// overlay between the launch and the swap — both run under the writer
// lock at adjacent batch boundaries — so the CSR holds exactly the
// overlay's state and no patch carries over.
func (s *Service) swapCompaction() error {
	if s.pendingCompact == nil {
		return nil
	}
	res := <-s.pendingCompact
	s.pendingCompact = nil
	if res.err != nil {
		return fmt.Errorf("service: compaction failed: %w", res.err)
	}
	s.ov = graph.NewOverlay(res.csr)
	return nil
}

// compactionDue reports whether the batch just applied launches a
// background compaction: the patch count crossed the threshold. The
// decision is deterministic in the update stream, so Compacted/
// Compactions accounting is too.
func (s *Service) compactionDue() bool {
	threshold := s.opts.CompactThreshold
	if threshold <= 0 {
		threshold = s.ov.N() / 8
		if threshold < 1024 {
			threshold = 1024
		}
	}
	return s.ov.Patched() > threshold
}

// launchCompaction folds the topology view the launching batch
// published into a fresh CSR on a goroutine, for swapCompaction to
// install at the next batch boundary. The view is immutable, so the
// build reads it without a lock.
func (s *Service) launchCompaction(topo *graph.TopoView) {
	ch := make(chan compactResult, 1)
	go func() {
		csr, err := topo.Compact()
		ch <- compactResult{csr: csr, err: err}
	}()
	s.pendingCompact = ch
}

// apply executes one op against the overlay/instance/colors state,
// appending its dirty seeds to s.seeds. Caller holds mu.
func (s *Service) apply(op Op, rep *BatchReport) error {
	switch op.Action {
	case OpAddEdge:
		if err := s.ov.AddEdge(op.U, op.V); err != nil {
			return err
		}
		s.seeds = append(s.seeds, op.U, op.V)
	case OpRemoveEdge:
		if !s.ov.RemoveEdge(op.U, op.V) {
			return fmt.Errorf("edge {%d,%d} not present", op.U, op.V)
		}
		s.seeds = append(s.seeds, op.U, op.V)
	case OpAddNode:
		list, defects, err := s.newNodeConstraints(op)
		if err != nil {
			return err
		}
		v := s.ov.AddNode()
		s.inst.Lists = append(s.inst.Lists, list)
		s.inst.Defects = append(s.inst.Defects, defects)
		s.colors = append(s.colors, list[0])
		rep.NewNodes = append(rep.NewNodes, v)
		s.seeds = append(s.seeds, v)
	case OpRemoveNode:
		if op.Node < 0 || op.Node >= s.ov.N() {
			return fmt.Errorf("node %d out of range", op.Node)
		}
		former := s.ov.RemoveNode(op.Node)
		s.seeds = append(append(s.seeds, op.Node), former...)
	case OpSetList:
		if op.Node < 0 || op.Node >= s.ov.N() {
			return fmt.Errorf("node %d out of range", op.Node)
		}
		list, defects, err := s.checkConstraints(op.List, op.Defects)
		if err != nil {
			return err
		}
		s.inst.Lists[op.Node] = list
		s.inst.Defects[op.Node] = defects
		s.seeds = append(s.seeds, op.Node)
	default:
		return fmt.Errorf("unknown action %q", op.Action)
	}
	return nil
}

// newNodeConstraints resolves an add_node op's list/defects, applying
// the full-palette default.
func (s *Service) newNodeConstraints(op Op) ([]int, []int, error) {
	if len(op.List) == 0 {
		list := make([]int, s.inst.Space)
		for i := range list {
			list[i] = i
		}
		return list, make([]int, s.inst.Space), nil
	}
	return s.checkConstraints(op.List, op.Defects)
}

// checkConstraints validates a list/defect pair against the palette
// and normalizes it to the Instance invariant: sorted ascending,
// duplicate-free, defects kept aligned through the sort. (DefectOf
// binary-searches the list, so an unsorted list would make a node
// unhealable: repair would keep assigning list colors the hardness
// check cannot find.)
func (s *Service) checkConstraints(list, defects []int) ([]int, []int, error) {
	if len(list) == 0 {
		return nil, nil, fmt.Errorf("empty color list")
	}
	if defects == nil {
		defects = make([]int, len(list))
	}
	if len(defects) != len(list) {
		return nil, nil, fmt.Errorf("%d defects for %d list colors", len(defects), len(list))
	}
	idx := make([]int, len(list))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return list[idx[a]] < list[idx[b]] })
	outList := make([]int, len(list))
	outDefects := make([]int, len(list))
	for i, j := range idx {
		x, d := list[j], defects[j]
		if x < 0 || x >= s.inst.Space {
			return nil, nil, fmt.Errorf("color %d outside palette [0,%d)", x, s.inst.Space)
		}
		if d < 0 {
			return nil, nil, fmt.Errorf("negative defect budget %d", d)
		}
		if i > 0 && x == outList[i-1] {
			return nil, nil, fmt.Errorf("duplicate list color %d", x)
		}
		outList[i] = x
		outDefects[i] = d
	}
	return outList, outDefects, nil
}

// stateImage assembles the checkpoint encoder's view of the full
// service state under the writer lock: the published topology view,
// which is immutable, and copies of the colors and of the two outer
// list slices (lists/defects are replaced, never mutated in place, so
// the inner slices are shared) — the encoder may run after the lock
// drops.
func (s *Service) stateImage() *checkpointState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &checkpointState{
		version: s.version,
		colors:  append([]int(nil), s.colors...),
		space:   s.inst.Space,
		lists:   append([][]int(nil), s.inst.Lists...),
		defects: append([][]int(nil), s.inst.Defects...),
		topo:    s.pub.Load().Topo,
		totals:  s.totals,
	}
}

// restoreService rebuilds a Service from a decoded checkpoint: the
// base CSR is streamed straight from the image's topology bytes,
// colors and counters are installed verbatim, and no heal runs — the
// checkpoint was taken at a batch boundary of a valid state, and the
// recovery differential test pins the restored image byte-identical to
// the uninterrupted run.
func restoreService(cs *checkpointState, opts Options) (*Service, error) {
	base, err := graph.StreamCSR(len(cs.colors), cs.edges)
	if err != nil {
		return nil, fmt.Errorf("%w: rebuilding topology: %v", ErrCheckpoint, err)
	}
	s := &Service{
		ov:     graph.NewOverlay(base),
		inst:   &coloring.Instance{Space: cs.space, Lists: cs.lists, Defects: cs.defects},
		colors: cs.colors,
		opts:   opts,
		start:  time.Now(),
	}
	s.version = cs.version
	s.totals = cs.totals
	s.publish(&colorBuf{})
	return s, nil
}

// TopologyFingerprint returns the structure hash of the current
// snapshot's topology (graph.TopoView.Fingerprint) — the same value
// graph.CSR.Fingerprint gives for the same labeled graph, so it is
// identical across representations (patched overlay, compacted CSR,
// checkpoint-rebuilt base). The recovery differential compares it
// instead of raw row storage.
func (s *Service) TopologyFingerprint() uint64 {
	return s.pub.Load().Topo.Fingerprint()
}

// CanonicalStats zeroes the representation- and time-dependent fields
// of a Stats: Patched and Compactions depend on the overlay's current
// patch layout (a recovered service starts from a freshly compacted
// base), and the rates are read-time derivatives. What remains is a
// pure function of the applied op stream — the exact account recovery
// must reproduce byte-identically.
func CanonicalStats(st Stats) Stats {
	st.Patched = 0
	st.Compactions = 0
	st.UpdatesPerSec = 0
	st.RecolorLocality = 0
	st.UptimeSec = 0
	return st
}

// ValidateState runs a full conflict scan of the current topology
// against the current coloring — the between-batches validity check
// the soak tests call. It takes the writer lock; not for hot paths.
func (s *Service) ValidateState() error {
	return s.AuditState(0).Err()
}

// AuditState runs the whole-graph validity/defect scan through the
// shared coloring.AuditInto kernel and returns the full report —
// conflict mass, absorbed defects, tight nodes — not just the first
// violation. workers ≤ 0 auto-selects (GOMAXPROCS with the small-n
// sequential fallback); the report is identical at every worker count.
// It takes the writer lock; not for hot paths.
func (s *Service) AuditState(workers int) coloring.AuditReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return coloring.AuditInto(s.ov, s.inst, s.colors, nil, workers)
}
