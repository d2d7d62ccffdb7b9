package listcolor

import (
	"io"
	"math/rand"
	"net/http"

	"listcolor/internal/baseline"
	"listcolor/internal/coloring"
	"listcolor/internal/csr"
	"listcolor/internal/defective"
	"listcolor/internal/deltaplus1"
	"listcolor/internal/graph"
	"listcolor/internal/hypergraph"
	"listcolor/internal/linial"
	"listcolor/internal/nbhood"
	"listcolor/internal/quality"
	"listcolor/internal/service"
	"listcolor/internal/sim"
	"listcolor/internal/twosweep"
)

// Core types, re-exported from the implementation packages. Methods on
// these types (Graph.AddEdge, Instance.Slack, ...) are part of the
// public API.
type (
	// Graph is a simple undirected graph on vertices 0..n-1.
	Graph = graph.Graph
	// Digraph is an edge-oriented view of a Graph.
	Digraph = graph.Digraph
	// Instance is a list defective coloring instance: per-node sorted
	// color lists with aligned defects, over a space of Space colors.
	Instance = coloring.Instance
	// ArbResult is a list arbdefective coloring: colors plus an
	// orientation (arcs) of the monochromatic edges.
	ArbResult = coloring.ArbResult
	// Config controls simulator runs (driver, CONGEST bandwidth cap,
	// round limits, per-round callbacks).
	Config = sim.Config
	// Stats aggregates a run: rounds, messages, total and max payload
	// bits.
	Stats = sim.Result
	// RoundStats describes one completed round (for Config.OnRound).
	RoundStats = sim.RoundStats
	// Span records one step of a composed algorithm; pass NewSpan's
	// result as Config.Span to collect the composition tree of the
	// recursive pipelines.
	Span = sim.Span
)

// NewSpan returns a root span to install as Config.Span.
func NewSpan(label string) *Span { return sim.NewSpan(label) }

// Driver selection for Config.Driver.
const (
	// Lockstep runs nodes sequentially each round (deterministic
	// reference driver).
	Lockstep = sim.Lockstep
	// Workers runs each round's node computations on a worker pool;
	// results are identical to Lockstep, and it is the fastest driver
	// for large networks.
	Workers = sim.Workers
)

// ---------------------------------------------------------------------------
// Graph construction.

// NewGraph returns an empty graph on n vertices; add edges with
// AddEdge.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewRing returns the n-cycle.
func NewRing(n int) *Graph { return graph.Ring(n) }

// NewGrid returns the rows×cols grid graph.
func NewGrid(rows, cols int) *Graph { return graph.Grid(rows, cols) }

// NewComplete returns the complete graph K_n.
func NewComplete(n int) *Graph { return graph.Complete(n) }

// NewHypercube returns the d-dimensional hypercube.
func NewHypercube(d int) *Graph { return graph.Hypercube(d) }

// NewRandomRegular returns a seeded random d-regular graph on n
// vertices (n·d must be even, d < n).
func NewRandomRegular(n, d int, seed int64) *Graph {
	return graph.RandomRegular(n, d, rand.New(rand.NewSource(seed)))
}

// NewGNP returns a seeded Erdős–Rényi G(n, p) graph.
func NewGNP(n int, p float64, seed int64) *Graph {
	return graph.GNP(n, p, rand.New(rand.NewSource(seed)))
}

// NewPowerLaw returns a seeded preferential-attachment graph where
// every arriving vertex attaches to k earlier vertices.
func NewPowerLaw(n, k int, seed int64) *Graph {
	return graph.PowerLaw(n, k, rand.New(rand.NewSource(seed)))
}

// ---------------------------------------------------------------------------
// Web-scale graphs (compressed sparse row).

// CSRGraph is an immutable graph in compressed-sparse-row form: two
// flat arrays (int64 row offsets, concatenated sorted neighbor rows)
// instead of per-node adjacency slices. It is the substrate of the
// 10⁶–10⁷-node simulation path (docs/MEMORY.md); convert to an
// adjacency-list Graph with its Graph method where an algorithm
// requires one.
type CSRGraph = graph.CSR

// EdgeStream is a replayable edge producer for streaming CSR builds;
// see BuildCSR.
type EdgeStream = graph.EdgeStream

// BuildCSR builds a CSRGraph on n vertices directly from a replayable
// edge stream, without materializing adjacency maps or per-node
// slices. The stream is invoked twice (count + fill) and must emit the
// identical edge sequence both times.
func BuildCSR(n int, stream EdgeStream) (*CSRGraph, error) {
	return graph.StreamCSR(n, stream)
}

// NewStreamedRing returns the n-cycle as a streamed CSRGraph.
func NewStreamedRing(n int) *CSRGraph { return graph.StreamedRing(n) }

// NewStreamedGNP returns a seeded G(n, p) graph as a streamed
// CSRGraph, built in O(n + m) time by geometric skip sampling.
func NewStreamedGNP(n int, p float64, seed int64) *CSRGraph {
	return graph.StreamedGNP(n, p, seed)
}

// NewStreamedPowerLaw returns a seeded preferential-attachment graph
// (every arriving vertex attaches to k earlier vertices) as a streamed
// CSRGraph.
func NewStreamedPowerLaw(n, k int, seed int64) *CSRGraph {
	return graph.StreamedPowerLaw(n, k, seed)
}

// LineGraph returns the line graph of g and the mapping from
// line-graph vertices to edges of g. Line graphs have neighborhood
// independence ≤ 2.
func LineGraph(g *Graph) (*Graph, [][2]int) { return graph.LineGraph(g) }

// GeometricGraph is a unit-disk graph (points in [0,1]², adjacent iff
// within Radius). Unit-disk graphs have neighborhood independence
// θ ≤ 5, making them a natural workload for SolveNeighborhood.
type GeometricGraph = graph.GeometricGraph

// NewRandomGeometric returns a seeded random unit-disk graph.
func NewRandomGeometric(n int, radius float64, seed int64) *GeometricGraph {
	return graph.RandomGeometric(n, radius, rand.New(rand.NewSource(seed)))
}

// ---------------------------------------------------------------------------
// Serialization.

// WriteGraph serializes g as a whitespace edge list ("n m" header plus
// one "u v" line per edge).
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// ReadGraph parses the edge-list format written by WriteGraph ('#'
// comments and blank lines allowed).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteInstance serializes the instance as JSON.
func WriteInstance(w io.Writer, in *Instance) error { return coloring.WriteJSON(w, in) }

// ReadInstance parses and validates a JSON instance.
func ReadInstance(r io.Reader) (*Instance, error) { return coloring.ReadJSON(r) }

// ---------------------------------------------------------------------------
// Orientations.

// OrientByID orients every edge toward the smaller vertex id.
func OrientByID(g *Graph) *Digraph { return graph.OrientByID(g) }

// OrientByDegeneracy orients along a degeneracy order, minimizing the
// maximum out-degree over acyclic orientations.
func OrientByDegeneracy(g *Graph) *Digraph { return graph.OrientByDegeneracy(g) }

// OrientRandom orients every edge in a seeded random direction.
func OrientRandom(g *Graph, seed int64) *Digraph {
	return graph.OrientRandom(g, rand.New(rand.NewSource(seed)))
}

// ---------------------------------------------------------------------------
// Instance construction.

// NewInstance returns an empty instance over a color space of the
// given size; fill Lists and Defects directly (sorted lists, aligned
// defect slices).
func NewInstance(n, space int) *Instance {
	return &Instance{
		Lists:   make([][]int, n),
		Defects: make([][]int, n),
		Space:   space,
	}
}

// NewDegreePlusOneInstance returns a (deg+1)-list coloring instance:
// node v gets deg(v)+1 seeded-random distinct colors from [0, space)
// and zero defects. space must exceed Δ(g).
func NewDegreePlusOneInstance(g *Graph, space int, seed int64) *Instance {
	return coloring.DegreePlusOne(g, space, rand.New(rand.NewSource(seed)))
}

// NewUniformInstance gives every node listSize seeded-random distinct
// colors from [0, space), all with the same defect.
func NewUniformInstance(n, space, listSize, defect int, seed int64) *Instance {
	return coloring.Uniform(n, space, listSize, defect, rand.New(rand.NewSource(seed)))
}

// NewMinSlackInstance returns an adversarially tight OLDC instance for
// TwoSweep with parameters p and ε (Theorem 1.1's slack condition met
// with the minimum possible margin).
func NewMinSlackInstance(d *Digraph, space, p int, eps float64, seed int64) *Instance {
	return coloring.MinSlackOriented(d, space, p, eps, rand.New(rand.NewSource(seed)))
}

// NewSlackInstance returns a list defective instance whose slack
// (Definition 1.1) is just above s at every node.
func NewSlackInstance(g *Graph, space int, s float64, seed int64) *Instance {
	return coloring.WithSlack(g, space, s, rand.New(rand.NewSource(seed)))
}

// ---------------------------------------------------------------------------
// Validation.

// ValidateOLDC checks an oriented list defective coloring against the
// instance.
func ValidateOLDC(d *Digraph, inst *Instance, colors []int) error {
	return coloring.ValidateOLDC(d, inst, colors)
}

// ValidateListDefective checks a (plain) list defective coloring.
func ValidateListDefective(g *Graph, inst *Instance, colors []int) error {
	return coloring.ValidateListDefective(g, inst, colors)
}

// ValidateListArbdefective checks a list arbdefective coloring.
func ValidateListArbdefective(g *Graph, inst *Instance, res ArbResult) error {
	return coloring.ValidateListArbdefective(g, inst, res)
}

// ValidateProperList checks a proper list coloring.
func ValidateProperList(g *Graph, inst *Instance, colors []int) error {
	return coloring.ValidateProperList(g, inst, colors)
}

// IsProperColoring reports whether colors is a proper vertex coloring
// of g (nil) or returns the first monochromatic edge.
func IsProperColoring(g *Graph, colors []int) error {
	return graph.IsProperColoring(g, colors)
}

// AuditTopology is the read-only adjacency a defect audit scans —
// satisfied by Graph and CSRGraph alike.
type AuditTopology = coloring.Topology

// AuditReport is the outcome of a whole-graph validity/defect scan:
// conflict mass, absorbed defects, tight nodes, and the first
// (smallest node id) violation. Worker-count independent.
type AuditReport = coloring.AuditReport

// AuditColoring runs the whole-graph validity/defect scan through the
// range-partitioned parallel audit kernel. workers ≤ 0 auto-selects
// (GOMAXPROCS, sequential below a small-n threshold); the report is
// identical at every worker count.
func AuditColoring(topo AuditTopology, inst *Instance, colors []int, workers int) AuditReport {
	return coloring.AuditParallel(topo, inst, colors, workers)
}

// NeighborhoodIndependence returns θ(G) exactly (exponential in Δ in
// the worst case; intended for moderate degrees).
func NeighborhoodIndependence(g *Graph) int {
	return graph.NeighborhoodIndependence(g)
}

// ThetaUpperBound returns a cheap polynomial upper bound on θ(G) via
// greedy clique covers of the neighborhoods.
func ThetaUpperBound(g *Graph) int {
	return graph.GreedyThetaUpperBound(g)
}

// QualityReport summarizes how a valid list defective coloring used
// its budgets (palette exploitation, class balance, defect
// utilization).
type QualityReport = quality.Report

// AnalyzeColoring builds a quality report for a list defective
// coloring; validate the coloring first.
func AnalyzeColoring(g *Graph, inst *Instance, colors []int) (QualityReport, error) {
	return quality.Analyze(g, inst, colors)
}

// ---------------------------------------------------------------------------
// Classical building blocks.

// ColorResult is a coloring together with its palette size and the
// simulation statistics of the run that produced it.
type ColorResult struct {
	Colors  []int
	Palette int
	Stats   Stats
}

// LinialColor computes a proper Θ(Δ²)-coloring of g from node ids in
// O(log* n) rounds ([Lin87]).
func LinialColor(g *Graph, cfg Config) (ColorResult, error) {
	res, err := linial.ColorFromIDs(g, cfg)
	if err != nil {
		return ColorResult{}, err
	}
	return ColorResult{Colors: res.Colors, Palette: res.Palette, Stats: res.Stats}, nil
}

// DefectiveColor computes, from a proper m-coloring, a coloring with
// Θ(1/α²) colors in which every node has at most α·deg(v)
// monochromatic neighbors, in O(log* m) rounds (Lemma 3.4,
// [Kuh09, KS18]).
func DefectiveColor(g *Graph, colors []int, m int, alpha float64, cfg Config) (ColorResult, error) {
	res, err := defective.ColorUndirected(g, colors, m, alpha, cfg)
	if err != nil {
		return ColorResult{}, err
	}
	return ColorResult{Colors: res.Colors, Palette: res.Palette, Stats: res.Stats}, nil
}

// ---------------------------------------------------------------------------
// The paper's algorithms.

// OLDCResult is the output of an oriented list defective coloring run.
type OLDCResult struct {
	Colors []int
	Stats  Stats
	// LocalOps counts the deterministic elementary local operations of
	// the Phase-I selections (Two-Sweep runs only) — the paper's
	// internal-computation measure.
	LocalOps int64
}

// TwoSweep runs Algorithm 1 (Theorem 1.1 with ε = 0): given a proper
// q-coloring initColors and an instance satisfying
// Σ(d_v(x)+1) > max{p, |L_v|/p}·β_v, it solves the OLDC instance in
// 2q+1 rounds, exchanging messages of at most p colors.
func TwoSweep(d *Digraph, inst *Instance, initColors []int, q, p int, cfg Config) (OLDCResult, error) {
	res, err := twosweep.Solve(d, inst, initColors, q, p, cfg)
	if err != nil {
		return OLDCResult{}, err
	}
	return OLDCResult{Colors: res.Colors, Stats: res.Stats, LocalOps: res.LocalOps}, nil
}

// TwoSweepFast runs Algorithm 2 (Theorem 1.1 with ε > 0): under the
// (1+ε) slack condition it solves the OLDC instance in
// O(min{q, (p/ε)² + log* q}) rounds by first computing a defective
// coloring with α = ε/p.
func TwoSweepFast(d *Digraph, inst *Instance, initColors []int, q, p int, eps float64, cfg Config) (OLDCResult, error) {
	res, err := twosweep.SolveFast(d, inst, initColors, q, p, eps, cfg)
	if err != nil {
		return OLDCResult{}, err
	}
	return OLDCResult{Colors: res.Colors, Stats: res.Stats}, nil
}

// ReduceColorSpace runs the Theorem 1.2 algorithm: an OLDC instance
// with Σ(d_v(x)+1) ≥ 3√C·β_v is solved in O(log³C + log* q) rounds
// with O(log q + log C)-bit messages, by recursive color space
// splitting (Lemma 3.5).
func ReduceColorSpace(d *Digraph, inst *Instance, initColors []int, q int, cfg Config) (OLDCResult, error) {
	res, err := csr.Solve(d, inst, initColors, q, cfg)
	if err != nil {
		return OLDCResult{}, err
	}
	return OLDCResult{Colors: res.Colors, Stats: res.Stats}, nil
}

// DegPlusOneResult extends ColorResult with the pipeline's internal
// counters.
type DegPlusOneResult struct {
	Colors    []int
	Stats     Stats
	Scales    int
	OLDCCalls int
}

// ColorDegPlusOne solves a proper (deg+1)-list coloring instance
// (Theorem 1.3's problem) via Linial bootstrap, degree-halving scales
// and the Theorem 1.2 solver on defective classes.
func ColorDegPlusOne(g *Graph, inst *Instance, cfg Config) (DegPlusOneResult, error) {
	res, err := deltaplus1.Solve(g, inst, cfg)
	if err != nil {
		return DegPlusOneResult{}, err
	}
	return DegPlusOneResult{Colors: res.Colors, Stats: res.Stats, Scales: res.Scales, OLDCCalls: res.OLDCCalls}, nil
}

// ArbdefectiveResult is the output of the Theorem 1.5 pipeline.
type ArbdefectiveResult struct {
	Result ArbResult
	Stats  Stats
}

// SolveNeighborhood runs the Theorem 1.5 recursion: a slack-1 list
// arbdefective instance on a graph of neighborhood independence
// ≤ theta is solved in (θ·log Δ)^{O(log log Δ)} + O(log* n) simulated
// rounds. With all-zero defects the output is a proper (deg+1)-list
// coloring.
func SolveNeighborhood(g *Graph, inst *Instance, theta int, cfg Config) (ArbdefectiveResult, error) {
	res, err := nbhood.SolveArb(g, inst, theta, cfg)
	if err != nil {
		return ArbdefectiveResult{}, err
	}
	return ArbdefectiveResult{Result: res.Arb, Stats: res.Stats}, nil
}

// SolveArbdefective solves a slack-1 list arbdefective instance on an
// ARBITRARY graph (no neighborhood-independence assumption), composing
// the paper's Lemma A.1 and Lemma 4.4 reductions over the Theorem 1.2
// solver. Round complexity is Õ(C·log Δ) solver calls — higher than
// SolveNeighborhood's, in exchange for generality.
func SolveArbdefective(g *Graph, inst *Instance, cfg Config) (ArbdefectiveResult, error) {
	res, err := nbhood.SolveArbGeneral(g, inst, cfg)
	if err != nil {
		return ArbdefectiveResult{}, err
	}
	return ArbdefectiveResult{Result: res.Arb, Stats: res.Stats}, nil
}

// SolveNeighborhoodBranch2 runs the second branch of Theorem 1.5's
// min{·,·} (Equation 20): one color-space-splitting level over the
// general-graph solver, giving O(θ²·Δ^{1/4}·polylog) rounds — the
// better choice when θ is large relative to Δ.
func SolveNeighborhoodBranch2(g *Graph, inst *Instance, theta int, cfg Config) (ArbdefectiveResult, error) {
	res, err := nbhood.SolveArbBranch2(g, inst, theta, cfg)
	if err != nil {
		return ArbdefectiveResult{}, err
	}
	return ArbdefectiveResult{Result: res.Arb, Stats: res.Stats}, nil
}

// EdgeColor computes a (2Δ−1)-edge coloring of g by vertex-coloring
// its line graph with the Section 4 machinery. edgeColors[i] is the
// color of g.Edges()[i].
func EdgeColor(g *Graph, cfg Config) (edgeColors []int, palette int, stats Stats, err error) {
	return nbhood.EdgeColor(g, cfg)
}

// Hypergraph is a rank-bounded hypergraph; its line graph has
// neighborhood independence at most its rank, making hyperedge
// coloring a Section 4 application.
type Hypergraph = hypergraph.Hypergraph

// NewHypergraph returns an empty hypergraph on n vertices; add
// hyperedges with AddEdge.
func NewHypergraph(n int) *Hypergraph { return hypergraph.New(n) }

// NewRandomHypergraph returns a seeded random hypergraph with m
// hyperedges of exactly the given rank.
func NewRandomHypergraph(n, m, rank int, seed int64) *Hypergraph {
	return hypergraph.RandomRegularRank(n, m, rank, rand.New(rand.NewSource(seed)))
}

// HyperedgeColor properly colors the hyperedges of a rank-r
// hypergraph (intersecting hyperedges differ) with r·(D−1)+1 colors,
// where D is the maximum vertex degree — the bounded-rank-hypergraph
// application of Theorem 1.5. edgeColors[i] is the color of
// hyperedge i.
func HyperedgeColor(h *Hypergraph, cfg Config) (edgeColors []int, palette int, stats Stats, err error) {
	return nbhood.HyperedgeColor(h, cfg)
}

// ---------------------------------------------------------------------------
// Incremental coloring service.

// ColorService is a long-running incremental coloring maintainer: it
// holds a valid list defective coloring over a mutable overlay of a
// CSRGraph substrate and repairs it locally after every applied batch
// of topology/list updates (bounded deterministic repair rounds,
// billed as maintenance cost). Reads are lock-free snapshot loads;
// writes are serialized. cmd/colord wraps it in an HTTP daemon.
type ColorService = service.Service

// ServiceOp is one churn operation (add_edge, remove_edge, add_node,
// remove_node, set_list) for ColorService.ApplyBatch.
type ServiceOp = service.Op

// ServiceOptions bounds the service's repair rounds per batch and the
// overlay compaction threshold.
type ServiceOptions = service.Options

// ServiceBatchReport is the maintenance account of one applied batch:
// dirty set size, absorbed vs hard conflicts, repair rounds, recolored
// nodes, fallbacks, and message/bit billing.
type ServiceBatchReport = service.BatchReport

// ServiceStats is the service's running maintenance account
// (GET /v1/stats in the HTTP surface).
type ServiceStats = service.Stats

// Churn op actions for ServiceOp.Action.
const (
	OpAddEdge    = service.OpAddEdge
	OpRemoveEdge = service.OpRemoveEdge
	OpAddNode    = service.OpAddNode
	OpRemoveNode = service.OpRemoveNode
	OpSetList    = service.OpSetList
)

// NewColorService starts an incremental coloring service over base.
// A nil colors initializes greedily and repairs to validity; otherwise
// the given coloring is repaired if damaged.
func NewColorService(base *CSRGraph, inst *Instance, colors []int, opts ServiceOptions) (*ColorService, error) {
	return service.New(base, inst, colors, opts)
}

// NewServiceHandler returns the service's HTTP surface
// (POST /v1/updates, GET /v1/color/{node}, GET /v1/colors,
// GET /v1/stats) — the handler cmd/colord serves.
func NewServiceHandler(s *ColorService) http.Handler { return service.NewHandler(s) }

// NewCSRFromGraph converts an adjacency-list Graph to the immutable
// CSR form the service (and the web-scale simulation path) runs on.
func NewCSRFromGraph(g *Graph) *CSRGraph { return graph.CSRFromGraph(g) }

// ---------------------------------------------------------------------------
// Durability and overload resilience.

// DurableColorService wraps a ColorService in the crash-safety layer:
// every batch is appended to a checksummed write-ahead log before it
// applies, periodic checkpoints bound replay, and reopening a data dir
// recovers the exact pre-crash state (torn or corrupted WAL tails are
// detected by CRC and discarded cleanly). Reads still go through the
// wrapped service's lock-free snapshots.
type DurableColorService = service.Durable

// DurableServiceOptions configures the durability layer: data dir,
// WAL sync mode, checkpoint cadence, segment size.
type DurableServiceOptions = service.DurableOptions

// ServiceRecoveryInfo is the account of one recovery: checkpoint
// version, replayed batches/ops, and the discarded torn tail (if any).
type ServiceRecoveryInfo = service.RecoveryInfo

// ServiceDurabilityStats is the durability section of /v1/stats.
type ServiceDurabilityStats = service.DurabilityStats

// WALSyncMode selects the WAL durability/throughput trade:
// WALSyncOff buffers (data loss bounded by a segment rotation),
// WALSyncBatch write-through per batch (survives process crashes, the
// default in colord), WALSyncAlways fsyncs every record (survives
// power loss).
type WALSyncMode = service.SyncMode

const (
	WALSyncOff    = service.SyncOff
	WALSyncBatch  = service.SyncBatch
	WALSyncAlways = service.SyncAlways
)

// ParseWALSyncMode parses "off" | "batch" | "always" (colord's
// -wal-sync flag values).
func ParseWALSyncMode(s string) (WALSyncMode, error) { return service.ParseSyncMode(s) }

// NewDurableColorService wraps an already-constructed service in a
// fresh data dir, checkpointing the current state immediately. A dir
// that already holds a checkpoint is refused — use
// OpenDurableColorService.
func NewDurableColorService(s *ColorService, dopts DurableServiceOptions) (*DurableColorService, error) {
	return service.NewDurable(s, dopts)
}

// OpenDurableColorService recovers a durable service from its data
// dir: load the checkpoint, replay the WAL tail, discard torn
// records. A dir without a checkpoint returns os.ErrNotExist.
func OpenDurableColorService(opts ServiceOptions, dopts DurableServiceOptions) (*DurableColorService, *ServiceRecoveryInfo, error) {
	return service.OpenDurable(opts, dopts)
}

// ServiceIngest is the bounded admission queue in front of the single
// writer: Submit fails fast with service.ErrQueueFull when the queue
// is at capacity (the HTTP surface maps that to 503 + Retry-After),
// and requests whose context expires while queued are skipped at
// dequeue.
type ServiceIngest = service.Ingest

// NewServiceIngest starts an admission queue of the given capacity
// (≤ 0 means 64) over the given apply function — typically
// (*ColorService).ApplyBatch or (*DurableColorService).ApplyBatch.
func NewServiceIngest(apply func([]ServiceOp) (ServiceBatchReport, error), capacity int) *ServiceIngest {
	return service.NewIngest(apply, capacity)
}

// ServiceHealth is the recovering → ready → draining state machine
// behind GET /readyz; writes are refused with 503 while not ready.
type ServiceHealth = service.Health

// ServiceHandlerOptions wires the durability and overload layers into
// the HTTP surface (admission queue, health gate, body cap, request
// deadline, durability stats).
type ServiceHandlerOptions = service.HandlerOptions

// NewServiceHandlerWithOptions returns the hardened HTTP surface:
// POST /v1/updates through the admission queue with a body cap and
// per-request deadline, GET /healthz (liveness), GET /readyz
// (readiness), and /v1/stats with durability and ingest sections.
func NewServiceHandlerWithOptions(s *ColorService, opts ServiceHandlerOptions) http.Handler {
	return service.NewHandlerWithOptions(s, opts)
}

// ServiceChaosConfig parameterizes the crash/corruption kill-point
// matrix (colord -chaos): the number of seed-derived kill points, the
// seed, the data directory and a progress log.
type ServiceChaosConfig = service.ChaosConfig

// ServiceChaosReport is the matrix verdict: points run, per-damage-mode
// counts, discarded tails, replayed batches, failures.
type ServiceChaosReport = service.ChaosReport

// RunServiceChaos executes the kill-point matrix: for every
// seed-derived point the durable service is killed (at a batch
// boundary, mid-record, or with post-crash byte flips / truncation),
// recovered, and differenced against an uninterrupted reference run —
// recovered colors, canonical stats and topology fingerprint must be
// identical at the recovered version, the audit must be clean, and the
// recovered service must reach the same final state. A non-nil error
// reports the first divergence.
func RunServiceChaos(cfg ServiceChaosConfig) (ServiceChaosReport, error) {
	return service.RunChaos(cfg)
}

// ---------------------------------------------------------------------------
// Baselines.

// GreedyList is the sequential greedy list coloring baseline.
func GreedyList(g *Graph, inst *Instance) ([]int, error) {
	return baseline.GreedyList(g, inst)
}

// LubyColor is the classical randomized (Δ+1)-coloring baseline
// ([ABI86, Lub86]), run on the simulator.
func LubyColor(g *Graph, seed int64, cfg Config) ([]int, Stats, error) {
	return baseline.Luby(g, seed, cfg)
}
