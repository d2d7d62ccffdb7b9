package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"listcolor/internal/graph"
)

func TestIngestAppliesInOrder(t *testing.T) {
	s := mustService(t, graph.StreamedRing(32), slackInstance(graph.StreamedRing(32)), Options{})
	in := NewIngest(s.ApplyBatch, 8)
	for i := 0; i < 20; i++ {
		u := i % 32
		v := (u + 5) % 32
		rep, err := in.Submit(context.Background(), []Op{{Action: OpAddEdge, U: u, V: v}})
		if err != nil && !errors.Is(err, ErrOp) {
			t.Fatalf("submit %d: %v", i, err)
		}
		if err == nil && rep.Version != uint64(i+1) {
			t.Fatalf("submit %d applied at version %d", i, rep.Version)
		}
	}
	if err := in.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := in.Submit(context.Background(), nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: %v", err)
	}
	st := in.Stats()
	if st.Accepted != 20 || st.QueueDepth != 0 || !st.Draining {
		t.Fatalf("stats: %+v", st)
	}
}

// TestIngestQueueFull: with the worker wedged, capacity+1 concurrent
// submissions fit (capacity queued + one in flight) and the next is
// rejected fast with ErrQueueFull — the handler never blocks.
func TestIngestQueueFull(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	apply := func(ops []Op) (BatchReport, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return BatchReport{}, nil
	}
	in := NewIngest(apply, 4)
	var wg sync.WaitGroup
	submit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in.Submit(context.Background(), nil)
		}()
	}
	// One submission occupies the worker before the other four queue:
	// sent together, a fifth could find the queue full while the
	// worker has not yet dequeued, and the overflow submit below would
	// then be queued and block on the closed gate.
	submit()
	<-entered
	for i := 0; i < 4; i++ {
		submit()
	}
	// ...wait until the worker holds one and the queue holds four.
	deadline := time.Now().Add(2 * time.Second)
	for int(in.depth.Load()) < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: depth %d", in.depth.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if !in.Saturated() {
		t.Fatal("full queue not reported saturated")
	}
	if _, err := in.Submit(context.Background(), nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v", err)
	}
	close(gate)
	wg.Wait()
	if st := in.Stats(); st.RejectedFull != 1 {
		t.Fatalf("stats: %+v", st)
	}
	in.Drain(context.Background())
}

// TestIngestExpiredInQueue: a request whose deadline passes while
// queued is skipped at dequeue, not applied.
func TestIngestExpiredInQueue(t *testing.T) {
	gate := make(chan struct{})
	var applied atomic.Int64
	in := NewIngest(func(ops []Op) (BatchReport, error) {
		<-gate
		applied.Add(1)
		return BatchReport{}, nil
	}, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); in.Submit(context.Background(), nil) }() // wedges the worker
	for in.depth.Load() < 1 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	wg.Add(1)
	var expErr error
	go func() { defer wg.Done(); _, expErr = in.Submit(ctx, nil) }()
	for in.depth.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel() // expires while queued
	close(gate)
	wg.Wait()
	if !errors.Is(expErr, context.Canceled) {
		t.Fatalf("expired submit: %v", expErr)
	}
	if applied.Load() != 1 {
		t.Fatalf("expired batch was applied (%d applies)", applied.Load())
	}
	if st := in.Stats(); st.Expired != 1 {
		t.Fatalf("stats: %+v", st)
	}
	in.Drain(context.Background())
}

// TestConcurrentBackpressureSoak hammers a small queue from many
// goroutines while the writer applies real churn: every submission
// must resolve as applied, rejected-full, or op-rejected — no lost
// replies, no deadlock, and the service stays valid. Runs under the
// race detector in CI (the 'Concurrent' pattern).
func TestConcurrentBackpressureSoak(t *testing.T) {
	base := graph.StreamedRing(64)
	s := mustService(t, base, slackInstance(base), Options{})
	in := NewIngest(s.ApplyBatch, 4)
	script := churnScript(base, 64, 4, 21)
	fillSetLists(script, slackInstance(base).Space)
	var applied, full atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(script); i += 8 {
				_, err := in.Submit(context.Background(), script[i])
				switch {
				case err == nil, errors.Is(err, ErrOp):
					applied.Add(1)
				case errors.Is(err, ErrQueueFull):
					full.Add(1)
				default:
					t.Errorf("submit: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := applied.Load() + full.Load(); got != int64(len(script)) {
		t.Fatalf("lost submissions: %d of %d resolved", got, len(script))
	}
	if err := in.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := s.ValidateState(); err != nil {
		t.Fatalf("state invalid after soak: %v", err)
	}
	t.Logf("soak: %d applied, %d shed", applied.Load(), full.Load())
}

// --- HTTP surface ---

func newOptsServer(t *testing.T, opts HandlerOptions) (*Service, *httptest.Server) {
	t.Helper()
	base := graph.StreamedRing(32)
	s := mustService(t, base, slackInstance(base), Options{})
	srv := httptest.NewServer(NewHandlerWithOptions(s, opts))
	t.Cleanup(srv.Close)
	return s, srv
}

func TestHealthzReadyz(t *testing.T) {
	h := &Health{}
	h.SetRecovering()
	_, srv := newOptsServer(t, HandlerOptions{Health: h})

	get := func(path string) (int, map[string]string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]string
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	if code, body := get("/healthz"); code != 200 || body["status"] != "ok" {
		t.Fatalf("healthz while recovering: %d %v", code, body)
	}
	if code, body := get("/readyz"); code != 503 || body["status"] != "recovering" {
		t.Fatalf("readyz while recovering: %d %v", code, body)
	}
	// Writes are refused with Retry-After while not ready.
	resp, err := http.Post(srv.URL+"/v1/updates", "application/json",
		strings.NewReader(`{"ops":[{"action":"add_edge","u":0,"v":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("write while recovering: %d retry-after %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	h.SetReady()
	if code, body := get("/readyz"); code != 200 || body["status"] != "ready" {
		t.Fatalf("readyz when ready: %d %v", code, body)
	}
	h.SetDraining()
	if code, body := get("/readyz"); code != 503 || body["status"] != "draining" {
		t.Fatalf("readyz while draining: %d %v", code, body)
	}
}

func TestUpdateBodyLimit(t *testing.T) {
	_, srv := newOptsServer(t, HandlerOptions{MaxBody: 256})
	big := fmt.Sprintf(`{"ops":[{"action":"set_list","node":1,"list":[%s]}]}`,
		strings.Repeat("1,", 400)+"1")
	resp, err := http.Post(srv.URL+"/v1/updates", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", resp.StatusCode)
	}
	// A body under the limit still works.
	resp, err = http.Post(srv.URL+"/v1/updates", "application/json",
		strings.NewReader(`{"ops":[{"action":"add_edge","u":0,"v":9}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("small body: %d", resp.StatusCode)
	}
}

func TestUpdatesThroughIngestQueue(t *testing.T) {
	base := graph.StreamedRing(32)
	s := mustService(t, base, slackInstance(base), Options{})
	in := NewIngest(s.ApplyBatch, 8)
	h := &Health{}
	h.SetReady()
	srv := httptest.NewServer(NewHandlerWithOptions(s, HandlerOptions{Ingest: in, Health: h}))
	defer srv.Close()
	defer in.Drain(context.Background())

	var body bytes.Buffer
	json.NewEncoder(&body).Encode(UpdateRequest{Ops: []Op{{Action: OpAddEdge, U: 1, V: 7}}})
	resp, err := http.Post(srv.URL+"/v1/updates", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	var ur UpdateResponse
	json.NewDecoder(resp.Body).Decode(&ur)
	resp.Body.Close()
	if resp.StatusCode != 200 || ur.Version != 1 {
		t.Fatalf("queued write: %d %+v", resp.StatusCode, ur)
	}
	if !s.HasEdge(1, 7) {
		t.Fatal("edge not applied through the queue")
	}

	// Stats carry the ingest section.
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Ingest *IngestStats `json:"ingest"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if env.Ingest == nil || env.Ingest.Accepted != 1 || env.Ingest.QueueCapacity != 8 {
		t.Fatalf("stats ingest section: %+v", env.Ingest)
	}
}

// TestStatsDurabilitySection: with a Durable wired, /v1/stats gains
// the durability counters.
func TestStatsDurabilitySection(t *testing.T) {
	base := graph.StreamedRing(32)
	d := mustNewDurable(t, base, t.TempDir(), Options{}, DurableOptions{Sync: SyncBatch})
	defer d.Close()
	if _, err := d.ApplyBatch([]Op{{Action: OpAddEdge, U: 2, V: 9}}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandlerWithOptions(d.Service(), HandlerOptions{Durable: d}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Durability *DurabilityStats `json:"durability"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if env.Durability == nil || env.Durability.WALRecords != 1 || env.Durability.SyncMode != "batch" {
		t.Fatalf("stats durability section: %+v", env.Durability)
	}
}
