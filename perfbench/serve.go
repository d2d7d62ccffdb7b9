package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"time"

	"listcolor/internal/bench"
	"listcolor/internal/graph"
	"listcolor/internal/service"
)

// serveSizes are the serve workload's sizes.
type serveSizes struct {
	n         int     // ring size
	batchOps  int     // ops per write
	writeRate float64 // writes per second
	readRate  float64 // single-key reads per second
	ckptEvery int
}

// The latency limits the offered rates must meet: p99 of writes and
// of reads, in ms.
const writeLimitMS, readLimitMS = 50, 10

// The HTTP header that carries a request id from client to server.
const reqHeader = "X-Perfbench-Request"

// readIDBase separates read request ids from write request ids.
const readIDBase = int64(1) << 40

// serveStack is the colord stack the serve workload runs: the same
// constructors cmd/colord uses, behind a loopback listener.
type serveStack struct {
	churnSetup
	dir    string
	dur    *service.Durable
	ingest *service.Ingest
	srv    *http.Server
	url    string
	done   chan struct{}
}

// stop shuts the listener and the ingest queue down and waits for the
// server goroutine.
func (s *serveStack) stop() {
	s.srv.Close()
	<-s.done
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.ingest.Drain(ctx)
}

// spanLinks maps request ids to the span that each layer opened for
// them, so a span opened on another goroutine can name its parent.
type spanLinks struct {
	mu sync.Mutex
	m  map[int64]int
}

func (l *spanLinks) set(req int64, span int) {
	if span < 0 {
		return // untraced
	}
	l.mu.Lock()
	l.m[req] = span
	l.mu.Unlock()
}

func (l *spanLinks) get(req int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s, ok := l.m[req]; ok {
		return s
	}
	return -1
}

// batchIDs recovers a write's request id from the batch the apply
// function receives: batches are keyed by their first op, and batches
// sharing a key apply in the order they were sent.
type batchIDs struct {
	mu sync.Mutex
	m  map[opKey][]int64
}

type opKey struct {
	action string
	u, v   int
}

func (b *batchIDs) push(ops []service.Op, req int64) {
	k := firstOp(ops)
	b.mu.Lock()
	b.m[k] = append(b.m[k], req)
	b.mu.Unlock()
}

func (b *batchIDs) pop(ops []service.Op) int64 {
	k := firstOp(ops)
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.m[k]
	if len(q) == 0 {
		return -1
	}
	b.m[k] = q[1:]
	return q[0]
}

func firstOp(ops []service.Op) opKey {
	if len(ops) == 0 {
		return opKey{}
	}
	return opKey{ops[0].Action, ops[0].U, ops[0].V}
}

// sample is one client request's outcome.
type sample struct {
	lat     float64 // ms from due time, less the generator's own lateness
	lag     float64 // ms the generator's sleep overshot, -1 if it did not sleep
	behind  float64 // ms the send started after its due time
	version uint64
	err     error
}

// pacer sends requests on a precomputed schedule over one connection.
// Each request is timed from its due time; when the generator slept up
// to that time and its timer overshot, the overshoot is the
// generator's, not the system's, and is left out of the latency and
// reported as gen.lag_ms. Pacing sleeps, never spins.
func pace(start time.Time, period time.Duration, count int, deadline time.Time, send func(i int) (uint64, error)) []sample {
	out := make([]sample, 0, count)
	for i := 0; i < count; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(deadline) {
			break
		}
		s := sample{lag: -1}
		origin := due
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			woke := time.Now()
			s.lag = msBetween(due, woke)
			origin = woke
		}
		sent := time.Now()
		s.behind = msBetween(due, sent)
		s.version, s.err = send(i)
		s.lat = msSince(origin)
		out = append(out, s)
	}
	return out
}

// runServe: the colord stack over a 10⁵-node ring behind a loopback
// listener, driven by an open loop of 32-op writes on one connection
// and single-key reads on another; afterwards the stack is killed with
// Durable.Abort and recovered with service.OpenDurable.
func runServe(o options, r *report) error {
	sz := serveSizes{n: 100_000, batchOps: 32, writeRate: 100, readRate: 400, ckptEvery: 256}
	if o.toy {
		sz = serveSizes{n: 20_000, batchOps: 32, writeRate: 400, readRate: 400, ckptEvery: 64}
	}
	const headroom = 4
	links := &spanLinks{m: map[int64]int{}}
	ids := &batchIDs{m: map[opKey][]int64{}}
	// Filled by the traced apply wrapper: the deepest ingest queue it
	// saw and the apply latency of every batch that checkpointed.
	var depthMax int
	var ckptLat []float64
	var mu sync.Mutex
	dopts := func(dir string) service.DurableOptions {
		return service.DurableOptions{Dir: dir, Sync: service.SyncBatch, CheckpointEvery: sz.ckptEvery}
	}

	setupNo := 0
	st, err := setups(r, 15, func() (*serveStack, func(), error) {
		setupNo++
		s := &serveStack{dir: filepath.Join(o.workDir, fmt.Sprintf("serve-%d-%d-%d", os.Getpid(), o.seed, setupNo)), done: make(chan struct{})}
		if err := os.RemoveAll(s.dir); err != nil {
			return nil, nil, err
		}
		s.base = graph.StreamedRing(sz.n)
		s.space = s.base.RawMaxDegree() + headroom
		s.inst = fullPalette(sz.n, s.space)
		svc, err := service.New(s.base, s.inst, nil, service.Options{})
		if err != nil {
			return nil, nil, err
		}
		s.svc = svc
		if s.dur, err = service.NewDurable(svc, dopts(s.dir)); err != nil {
			return nil, nil, err
		}
		apply := func(ops []service.Op) (service.BatchReport, error) {
			if r.tr == nil {
				return s.dur.ApplyBatch(ops)
			}
			req := ids.pop(ops)
			depth := s.ingest.Stats().QueueDepth
			ckpts := s.dur.DurabilityStats().Checkpoints
			sp := r.tr.begin("durable.ApplyBatch", links.get(req), req)
			start := time.Now()
			rep, err := s.dur.ApplyBatch(ops)
			lat := msSince(start)
			r.tr.end(sp)
			mu.Lock()
			depthMax = max(depthMax, depth)
			if s.dur.DurabilityStats().Checkpoints > ckpts {
				ckptLat = append(ckptLat, lat)
			}
			mu.Unlock()
			return rep, err
		}
		s.ingest = service.NewIngest(apply, 256)
		health := &service.Health{}
		health.SetReady()
		h := service.NewHandlerWithOptions(svc, service.HandlerOptions{Ingest: s.ingest, Health: health, Durable: s.dur})
		if r.tr != nil {
			h = traceHandler(r.tr, links, h)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		s.url = "http://" + ln.Addr().String()
		s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			defer close(s.done)
			s.srv.Serve(ln)
		}()
		cleanup := func() {
			s.stop()
			s.dur.Abort()
			os.RemoveAll(s.dir)
		}
		return s, cleanup, nil
	})
	if err != nil {
		return err
	}
	defer os.RemoveAll(st.dir)

	// Inputs: every write body JSON-encoded, every read path built.
	writes := int(sz.writeRate*o.seconds) + 1
	reads := int(sz.readRate*o.seconds) + 1
	gen := newEdgeGen(st.base, st.space, o.seed*7919+2)
	bodies := make([][]byte, writes)
	batchOps := make([][]service.Op, writes)
	for i := range bodies {
		batchOps[i] = toOps(nil, gen.batch(sz.batchOps))
		if bodies[i], err = json.Marshal(service.UpdateRequest{Ops: batchOps[i]}); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(o.seed*7919 + 3))
	paths := make([]string, reads)
	for i := range paths {
		paths[i] = st.url + "/v1/color/" + strconv.Itoa(rng.Intn(sz.n))
	}
	writeClient := oneConnClient()
	readClient := oneConnClient()
	defer writeClient.CloseIdleConnections()
	defer readClient.CloseIdleConnections()
	// Warm both connections so the window does not time the dials.
	for _, c := range []*http.Client{writeClient, readClient} {
		if err := getOK(c, st.url+"/healthz"); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	dsBefore := st.dur.DurabilityStats()

	reps := make([]service.BatchReport, writes)
	var wres, rres []sample
	var wg sync.WaitGroup
	w := openWindow()
	deadline := w.start.Add(time.Duration(o.seconds * float64(time.Second)))
	// Start 5 ms in, so the first requests are slept to like the rest.
	start := w.start.Add(5 * time.Millisecond)
	wg.Add(2)
	go func() {
		defer wg.Done()
		wres = pace(start, time.Duration(float64(time.Second)/sz.writeRate), writes, deadline, func(i int) (uint64, error) {
			req := int64(i)
			if r.tr != nil {
				ids.push(batchOps[i], req)
			}
			sp := r.tr.begin("http.client.write", -1, req)
			links.set(req, sp)
			defer r.tr.end(sp)
			rep, err := postUpdate(writeClient, st.url, bodies[i], req, sz.batchOps)
			reps[i] = rep
			return rep.Version, err
		})
	}()
	go func() {
		defer wg.Done()
		rres = pace(start, time.Duration(float64(time.Second)/sz.readRate), reads, deadline, func(i int) (uint64, error) {
			req := readIDBase + int64(i)
			sp := r.tr.begin("http.client.read", -1, req)
			links.set(req, sp)
			defer r.tr.end(sp)
			return getColor(readClient, paths[i], req, st.space)
		})
	}()
	wg.Wait()
	w.close()
	peak := float64(bench.PeakRSSBytes()) / (1 << 20)

	var wlat, rlat, lags, behind []float64
	var lastAcked uint64
	updates := 0
	for i, s := range wres {
		r.attempted++
		if s.err != nil {
			r.opFailed("write %d: %v", i, s.err)
			continue
		}
		lastAcked = max(lastAcked, s.version)
		updates += sz.batchOps
		wlat = append(wlat, s.lat)
	}
	for i, s := range rres {
		r.attempted++
		if s.err != nil {
			r.opFailed("read %d: %v", i, s.err)
			continue
		}
		rlat = append(rlat, s.lat)
	}
	for _, s := range append(append([]sample(nil), wres...), rres...) {
		if s.lag >= 0 {
			lags = append(lags, s.lag)
		}
		behind = append(behind, s.behind)
	}
	if len(wlat) == 0 || len(rlat) == 0 {
		r.fail("no successful writes (%d) or reads (%d)", len(wlat), len(rlat))
		return nil
	}
	r.latency("op", wlat, 0.99)
	r.latency("read", rlat, 0.99)
	writeP99, readP99 := quantile(wlat, 0.99), quantile(rlat, 0.99)
	r.note("throughput_per_s %.1f applied updates per second", float64(updates)/w.wall)
	w.report(r, len(wres)+len(rres))
	r.e2e("peak_rss_mb", "MB", peak)
	lagP50, lagP99 := quantile(lags, 0.5), quantile(lags, 0.99)
	behindMax := quantile(behind, 1)
	r.note("open loop: %.0f writes/s x %d ops and %.0f reads/s; latency limits: write p99 %d ms, read p99 %d ms; met: %v",
		sz.writeRate, sz.batchOps, sz.readRate, writeLimitMS, readLimitMS, writeP99 <= writeLimitMS && readP99 <= readLimitMS)
	r.note("generator: gen.lag_ms p50 %.4f, p99 %.4f over %d sleeps; furthest behind schedule %.3f ms", lagP50, lagP99, len(lags), behindMax)

	var sums repairSums
	for i := range wres {
		sums.add(reps[i])
	}
	sums.report(r)
	ds := st.dur.DurabilityStats()
	r.layer("checkpoint.count", "count", float64(ds.Checkpoints-dsBefore.Checkpoints))
	r.layer("wal.bytes_per_update", "B", float64(ds.WALBytes-dsBefore.WALBytes)/float64(max(updates, 1)))
	in := st.ingest.Stats()
	r.layer("ingest.depth_max", "count", float64(depthMax))
	r.layer("ingest.rejected", "count", float64(in.RejectedFull))
	r.layer("ingest.expired", "count", float64(in.Expired))
	r.note("periodic events over %d writes: %d checkpoints (%.2f%% of writes)", len(wres), ds.Checkpoints-dsBefore.Checkpoints,
		100*float64(ds.Checkpoints-dsBefore.Checkpoints)/float64(len(wres)))

	// After the window: the fixed per-batch cost, the audits, then the
	// kill and the recovery check.
	st.stop()
	empty := emptyBatchMS(r, 21, func(ops []service.Op) (service.BatchReport, error) {
		rep, err := st.dur.ApplyBatch(ops)
		lastAcked = max(lastAcked, rep.Version)
		return rep, err
	})
	r.note("layer times: service.empty_batch_ms %.4f, checkpoint.batch_ms %.4f (p50 of %d)", empty, median(ckptLat), len(ckptLat))
	auditService(o, r, st.svc, st.inst)
	recoverCheck(o, r, st, dopts(st.dir), lastAcked)
	serveLayers(r)
	return nil
}

// recoverCheck kills the durable stack and recovers it, checking that
// every acknowledged write survived: under SyncBatch the recovered
// version equals the last acknowledged one, and the colors and the
// topology equal the pre-kill snapshot's.
func recoverCheck(o options, r *report, st *serveStack, dopts service.DurableOptions, lastAcked uint64) {
	snap := st.svc.Snapshot()
	colors := append([]int(nil), snap.Colors...)
	if o.corrupt {
		colors[0] = (colors[0] + 1) % st.space
	}
	fp := st.svc.TopologyFingerprint()
	st.dur.Abort()

	var loaded time.Time
	dopts.BeforeReplay = func(*service.Service, int) { loaded = time.Now() }
	sp := r.tr.begin("recovery.OpenDurable", -1, -1)
	start := time.Now()
	d, info, err := service.OpenDurable(service.Options{}, dopts)
	end := time.Now()
	r.tr.end(sp)
	if err != nil {
		r.fail("recovery: %v", err)
		return
	}
	defer d.Abort()
	if r.tr != nil && !loaded.IsZero() {
		t0 := r.tr.now() - int64(end.Sub(start))
		r.tr.add("recovery.load", sp, -1, t0, t0+int64(loaded.Sub(start)))
		r.tr.add("recovery.replay", sp, -1, t0+int64(loaded.Sub(start)), t0+int64(end.Sub(start)))
	}
	r.note("end-to-end recovery: recover_s %.4f (load %.4f s, replay %.4f s of %d ops in %d batches)",
		end.Sub(start).Seconds(), loaded.Sub(start).Seconds(), end.Sub(loaded).Seconds(), info.ReplayedOps, info.ReplayedBatches)
	r.layer("recovery.replayed_ops", "count", float64(info.ReplayedOps))
	got := d.Service()
	switch {
	case info.Version != lastAcked:
		r.fail("recovered version %d, last acknowledged write was version %d", info.Version, lastAcked)
	case !reflect.DeepEqual(got.Snapshot().Colors, colors):
		r.fail("recovered colors differ from the pre-kill snapshot")
	case got.TopologyFingerprint() != fp:
		r.fail("recovered topology fingerprint %x, pre-kill %x", got.TopologyFingerprint(), fp)
	}
}

// traceHandler wraps the program's handler with handler spans, linked
// to the client span through the request-id header.
func traceHandler(t *tracer, links *spanLinks, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, err := strconv.ParseInt(req.Header.Get(reqHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, req)
			return
		}
		name := "http.handler.read"
		if req.Method == http.MethodPost {
			name = "http.handler.write"
		}
		sp := t.begin(name, links.get(id), id)
		if req.Method == http.MethodPost {
			links.set(id, sp)
		}
		h.ServeHTTP(w, req)
		t.end(sp)
	})
}

// oneConnClient is an HTTP client held to a single keep-alive
// connection.
func oneConnClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

func getOK(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return nil
}

// postUpdate sends one write and checks its report: every op applied
// and the repair converged.
func postUpdate(c *http.Client, base string, body []byte, req int64, ops int) (service.BatchReport, error) {
	hreq, err := http.NewRequest(http.MethodPost, base+"/v1/updates", bytes.NewReader(body))
	if err != nil {
		return service.BatchReport{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	resp, err := c.Do(hreq)
	if err != nil {
		return service.BatchReport{}, err
	}
	defer resp.Body.Close()
	var ur service.UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		return service.BatchReport{}, fmt.Errorf("status %d, body: %w", resp.StatusCode, err)
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		return service.BatchReport{}, fmt.Errorf("status %d: %s", resp.StatusCode, ur.Error)
	case ur.Applied != ops || !ur.Converged:
		return service.BatchReport{}, fmt.Errorf("applied %d of %d ops, converged %v", ur.Applied, ops, ur.Converged)
	}
	return ur.BatchReport, nil
}

// getColor sends one single-key read and checks the color is in the
// palette.
func getColor(c *http.Client, url string, req int64, space int) (uint64, error) {
	hreq, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	hreq.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	resp, err := c.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var cr struct {
		Node    int    `json:"node"`
		Color   int    `json:"color"`
		Version uint64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return 0, fmt.Errorf("status %d, body: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || cr.Color < 0 || cr.Color >= space {
		return 0, fmt.Errorf("status %d, color %d", resp.StatusCode, cr.Color)
	}
	return cr.Version, nil
}
