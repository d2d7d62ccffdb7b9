// Command colord is the incremental coloring daemon: it builds a
// streamed graph substrate, initializes a valid list defective
// coloring, and then maintains it under churn — either as an HTTP
// server (POST /v1/updates, GET /v1/color/{node}, GET /v1/colors,
// GET /v1/stats, GET /healthz, GET /readyz) or as a scripted offline
// churn run that applies a deterministic update stream, scans validity
// between batches, and prints the maintenance account.
//
// With -data-dir the service is durable: every batch is written to a
// checksummed WAL before it applies, periodic checkpoints bound replay,
// and restart recovers the exact pre-crash state (reads serve the
// restored checkpoint while replay runs; /readyz says 503 until it
// finishes). SIGINT/SIGTERM drain gracefully: the listener stops
// accepting, queued batches apply, and a final checkpoint lands before
// exit.
//
// Examples:
//
//	colord -graph ring -n 1000000 -addr :8080
//	colord -graph ring -n 100000 -data-dir /var/lib/colord -wal-sync batch
//	colord -graph gnp -n 100000 -prob 0.0001 -churn 100000 -batch 1000
//	colord -graph powerlaw -n 1000000 -k 4 -churn 100000 -verify
//	colord -chaos 200 -seed 7
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole daemon, testable: flags in, exit code out, and the
// context carries the SIGINT/SIGTERM shutdown signal.
func run(ctx context.Context, args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("colord", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		graphKind = fs.String("graph", "ring", "graph family: ring|gnp|powerlaw (streamed CSR builds)")
		n         = fs.Int("n", 1_000_000, "number of vertices")
		prob      = fs.Float64("prob", 1e-5, "edge probability for gnp")
		k         = fs.Int("k", 3, "attachment count for powerlaw")
		seed      = fs.Int64("seed", 1, "graph, churn and chaos seed")
		headroom  = fs.Int("headroom", 4, "palette size = max degree + headroom (shared full-palette lists)")
		defect    = fs.Int("defect", 0, "defect budget per list color")
		compact   = fs.Int("compact", 0, "overlay compaction threshold in patched vertices (0 = max(1024, n/8))")
		addr      = fs.String("addr", ":8080", "HTTP listen address (server mode)")
		pprofAddr = fs.String("pprof", "", "expose net/http/pprof on this address (e.g. localhost:6060; empty = off)")
		churn     = fs.Int("churn", 0, "scripted mode: apply this many updates and exit (0 = serve HTTP)")
		batch     = fs.Int("batch", 1000, "scripted mode: updates per batch")
		verify    = fs.Bool("verify", false, "scripted mode: full conflict scan after every batch")

		dataDir   = fs.String("data-dir", "", "durability: WAL + checkpoint directory (empty = in-memory only)")
		walSync   = fs.String("wal-sync", "batch", "WAL durability: off|batch|always")
		ckptEvery = fs.Int("checkpoint-every", 256, "batches between checkpoints (bounds replay)")
		queueCap  = fs.Int("queue", 256, "server mode: bounded ingest queue capacity (overflow = 503)")
		maxBody   = fs.Int64("max-body", 8<<20, "server mode: POST /v1/updates body cap in bytes (413 above)")
		reqTO     = fs.Duration("request-timeout", 30*time.Second, "server mode: per-write deadline (queue wait + apply)")
		drainTO   = fs.Duration("drain", 10*time.Second, "shutdown: graceful drain deadline")
		chaosPts  = fs.Int("chaos", 0, "run the crash/corruption kill-point matrix with this many points and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *chaosPts > 0 {
		return runChaosMode(out, errw, *seed, *chaosPts)
	}

	syncMode, err := service.ParseSyncMode(*walSync)
	if err != nil {
		fmt.Fprintf(errw, "colord: %v\n", err)
		return 2
	}
	build, err := substrate(*graphKind, *n, *prob, *k, *seed)
	if err != nil {
		fmt.Fprintf(errw, "colord: %v\n", err)
		return 2
	}
	serverMode := *churn == 0
	if !serverMode && (*batch < 1 || *n < 2) {
		fmt.Fprintf(errw, "colord: scripted churn needs -batch ≥ 1 and -n ≥ 2 (got -batch %d, -n %d)\n", *batch, *n)
		return 2
	}
	// An out-of-range value is a usage error, not a silent fallback to
	// the default (or, for -drain, an immediate shutdown).
	for _, r := range []struct {
		flag, want string
		ok         bool
	}{
		{"checkpoint-every", "≥ 1", *ckptEvery >= 1},
		{"queue", "≥ 1", *queueCap >= 1},
		{"max-body", "≥ 1", *maxBody >= 1},
		{"request-timeout", "> 0", *reqTO > 0},
		{"drain", "≥ 0", *drainTO >= 0},
		{"compact", "≥ 0", *compact >= 0},
		{"defect", "≥ 0", *defect >= 0},
	} {
		if !r.ok {
			fmt.Fprintf(errw, "colord: -%s must be %s, got %s\n", r.flag, r.want, fs.Lookup(r.flag).Value)
			return 2
		}
	}

	if *pprofAddr != "" {
		// The default mux already carries the pprof handlers via the
		// blank import; serve it on its own hardened listener so
		// profiling traffic never mixes with the service API.
		pprofSrv := hardenedServer(*pprofAddr, http.DefaultServeMux)
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(errw, "colord: pprof listener: %v\n", err)
			}
		}()
		fmt.Fprintf(out, "pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	start := time.Now()
	base := build()
	fmt.Fprintf(out, "substrate: %v built in %.2fs\n", base, time.Since(start).Seconds())

	space := base.RawMaxDegree() + *headroom
	if space < 3 {
		space = 3
	}
	opts := service.Options{CompactThreshold: *compact}
	dopts := service.DurableOptions{
		Dir:             *dataDir,
		Sync:            syncMode,
		CheckpointEvery: *ckptEvery,
	}

	health := &service.Health{}
	health.SetRecovering()

	// The ingest queue forwards to whichever writer exists: the
	// durable wrapper once recovery installs it, or the plain service.
	// The health gate rejects writes until the pointer is set.
	var durable atomic.Pointer[service.Durable]
	var plain atomic.Pointer[service.Service]
	applyBatch := func(ops []service.Op) (service.BatchReport, error) {
		if d := durable.Load(); d != nil {
			return d.ApplyBatch(ops)
		}
		if s := plain.Load(); s != nil {
			return s.ApplyBatch(ops)
		}
		return service.BatchReport{}, errors.New("colord: writer not ready")
	}

	ingest := service.NewIngest(applyBatch, *queueCap)
	var srv *http.Server
	var serveErr = make(chan error, 1)
	var startOnce sync.Once
	startServing := func(s *service.Service) {
		startOnce.Do(func() {
			handler := service.NewHandlerWithOptions(s, service.HandlerOptions{
				Ingest: ingest,
				Health: health,
				// The durable handle only exists once recovery returns;
				// fetch its stats lazily so a server that starts serving
				// degraded reads mid-replay still reports durability
				// counters afterwards.
				DurableStats: func() *service.DurabilityStats {
					if d := durable.Load(); d != nil {
						ds := d.DurabilityStats()
						return &ds
					}
					return nil
				},
				MaxBody:        *maxBody,
				RequestTimeout: *reqTO,
			})
			srv = hardenedServer(*addr, handler)
			go func() { serveErr <- srv.ListenAndServe() }()
			fmt.Fprintf(out, "listening on %s\n", *addr)
		})
	}

	var svc *service.Service
	var d *service.Durable
	if *dataDir != "" {
		if serverMode {
			// Start serving degraded reads the moment the checkpoint is
			// restored; replay publishes snapshots batch by batch while
			// /readyz answers 503.
			dopts.BeforeReplay = func(s *service.Service, pending int) {
				if pending > 0 {
					fmt.Fprintf(out, "recovery: replaying %d WAL batches (reads live, degraded)\n", pending)
				}
				startServing(s)
			}
		}
		var info *service.RecoveryInfo
		d, info, err = service.OpenDurable(opts, dopts)
		switch {
		case err == nil:
			svc = d.Service()
			fmt.Fprintf(out, "recovered: checkpoint v%d + %d replayed batches -> v%d\n",
				info.CheckpointVersion, info.ReplayedBatches, info.Version)
			if info.Tail != nil {
				fmt.Fprintf(out, "recovered: discarded torn WAL tail (%s)\n", info.Tail.Reason)
			}
		case errors.Is(err, os.ErrNotExist):
			// Fresh data dir: initialize and checkpoint version 0.
			svc, err = initService(out, base, space, *defect, opts)
			if err != nil {
				fmt.Fprintf(errw, "colord: %v\n", err)
				return 1
			}
			d, err = service.NewDurable(svc, dopts)
			if err != nil {
				fmt.Fprintf(errw, "colord: durability init: %v\n", err)
				return 1
			}
			fmt.Fprintf(out, "durability: fresh data dir %s (wal-sync=%s, checkpoint-every=%d)\n",
				*dataDir, syncMode, *ckptEvery)
		default:
			fmt.Fprintf(errw, "colord: recovery: %v\n", err)
			return 1
		}
		durable.Store(d)
		defer d.Close()
	} else {
		svc, err = initService(out, base, space, *defect, opts)
		if err != nil {
			fmt.Fprintf(errw, "colord: %v\n", err)
			return 1
		}
		plain.Store(svc)
	}
	health.SetReady()

	if !serverMode {
		code := runChurn(ctx, out, errw, svc, applyBatch, space, *churn, *batch, *seed, *verify)
		if d != nil {
			if err := d.Close(); err != nil {
				fmt.Fprintf(errw, "colord: final checkpoint: %v\n", err)
				return 1
			}
		}
		return code
	}

	startServing(svc)
	select {
	case err := <-serveErr:
		fmt.Fprintf(errw, "colord: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting, let in-flight requests finish,
	// apply what the queue already accepted, then checkpoint and close
	// the WAL so restart replays nothing.
	fmt.Fprintf(out, "shutdown: draining (deadline %s)\n", *drainTO)
	health.SetDraining()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(errw, "colord: http shutdown: %v\n", err)
	}
	if err := ingest.Drain(drainCtx); err != nil {
		fmt.Fprintf(errw, "colord: ingest drain: %v\n", err)
	}
	if d != nil {
		if err := d.Close(); err != nil {
			fmt.Fprintf(errw, "colord: final checkpoint: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(out, "shutdown: complete at version %d\n", svc.Version())
	return 0
}

// substrate checks the -graph family and its size flags against what
// its streamed generator accepts, and returns the build.
func substrate(kind string, n int, prob float64, k int, seed int64) (func() *graph.CSR, error) {
	switch kind {
	case "ring":
		if n < 3 {
			return nil, fmt.Errorf("-graph ring needs -n ≥ 3, got %d", n)
		}
		return func() *graph.CSR { return graph.StreamedRing(n) }, nil
	case "gnp":
		if n < 0 || !(prob >= 0 && prob <= 1) {
			return nil, fmt.Errorf("-graph gnp needs -n ≥ 0 and 0 ≤ -prob ≤ 1, got -n %d, -prob %v", n, prob)
		}
		return func() *graph.CSR { return graph.StreamedGNP(n, prob, seed) }, nil
	case "powerlaw":
		if k < 1 || n < k+1 || int64(n) > math.MaxInt32 {
			return nil, fmt.Errorf("-graph powerlaw needs -k ≥ 1 and k+1 ≤ -n < 2³¹, got -k %d, -n %d", k, n)
		}
		return func() *graph.CSR { return graph.StreamedPowerLaw(n, k, seed) }, nil
	}
	return nil, fmt.Errorf("unknown graph family %q", kind)
}

// hardenedServer applies the slowloris-resistant timeouts to every
// listener colord opens (API and pprof alike).
func hardenedServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// initService builds the coloring service over the substrate.
func initService(out io.Writer, base *graph.CSR, space, defect int, opts service.Options) (*service.Service, error) {
	start := time.Now()
	svc, err := service.New(base, coloring.FullPalette(base.N(), space, defect), nil, opts)
	if err != nil {
		return nil, fmt.Errorf("service init: %w", err)
	}
	fmt.Fprintf(out, "coloring: %d nodes over palette [0,%d) initialized in %.2fs\n",
		svc.N(), space, time.Since(start).Seconds())
	return svc, nil
}

// runChaosMode executes the kill-point matrix and prints its report.
func runChaosMode(out, errw io.Writer, seed int64, points int) int {
	fmt.Fprintf(out, "chaos: %d kill points, seed %d\n", points, seed)
	rep, err := service.RunChaos(service.ChaosConfig{
		Seed:   seed,
		Points: points,
		Log: func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		},
	})
	enc, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Fprintln(out, string(enc))
	if err != nil {
		fmt.Fprintf(errw, "colord: chaos: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, "chaos: zero validity violations, full recovery at every kill point")
	return 0
}

// runChurn is the scripted mode: a deterministic random edge churn
// stream (service.EdgeChurnBatch: inserts and deletes in roughly equal
// measure, degrees kept within palette feasibility), applied in
// batches through the given writer with the maintenance account
// printed at the end. With -verify every batch is followed by a full
// conflict scan; any violation exits nonzero. Context cancellation
// (SIGTERM) stops between batches — with a durable writer the state on
// disk stays recoverable.
func runChurn(ctx context.Context, out, errw io.Writer, svc *service.Service,
	apply func([]service.Op) (service.BatchReport, error),
	space, churn, batchSize int, seed int64, verify bool) int {
	rng := rand.New(rand.NewSource(seed * 7919))
	applied, batches, maxRounds, violations := 0, 0, 0, 0
	scans, scannedArcs, scanSec := 0, int64(0), 0.0
	start := time.Now()
	interrupted := false
	for applied < churn {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		rep, err := apply(service.EdgeChurnBatch(svc, rng, space, batchSize))
		if err != nil {
			fmt.Fprintf(errw, "colord: batch %d: %v\n", batches, err)
			return 1
		}
		applied += rep.Applied
		batches++
		if rep.Rounds > maxRounds {
			maxRounds = rep.Rounds
		}
		if verify {
			scanStart := time.Now()
			rep := svc.AuditState(0) // parallel defect-audit kernel, auto worker count
			scanSec += time.Since(scanStart).Seconds()
			scannedArcs += rep.ScannedArcs
			scans++
			if err := rep.Err(); err != nil {
				violations++
				fmt.Fprintf(errw, "VALIDITY VIOLATION after batch %d: %v\n", batches, err)
			}
		}
	}
	elapsed := time.Since(start).Seconds()

	st := svc.Stats()
	fmt.Fprintf(out, "churn: %d updates in %d batches, %.2fs wall (%.0f upd/s), max %d repair rounds/batch\n",
		applied, batches, elapsed, float64(applied)/elapsed, maxRounds)
	enc, _ := json.MarshalIndent(st, "", "  ")
	fmt.Fprintln(out, string(enc))
	if interrupted {
		fmt.Fprintf(out, "churn: interrupted by signal after %d batches (state checkpointed on close)\n", batches)
	}
	if verify {
		if scanSec > 0 {
			fmt.Fprintf(out, "audit: %d scans, %d arcs in %.2fs (%.0f arcs/s)\n",
				scans, scannedArcs, scanSec, float64(scannedArcs)/scanSec)
		}
		if violations > 0 {
			fmt.Fprintf(errw, "colord: %d validity violations\n", violations)
			return 1
		}
		fmt.Fprintln(out, "verified: zero validity violations between batches")
	}
	return 0
}
