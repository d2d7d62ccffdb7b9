package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
	"listcolor/internal/service"
)

// syncBuffer lets a test poll run()'s output while the run goroutine
// is still writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestScriptedChurnSmoke(t *testing.T) {
	base := graph.StreamedRing(2000)
	space := base.RawMaxDegree() + 4
	svc, err := service.New(base, coloring.FullPalette(base.N(), space, 0), nil, service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code := run2churn(t, &out, svc, space, 2000, 200, 5, true)
	if code != 0 {
		t.Fatalf("churn exit %d\n%s", code, out.String())
	}
	st := svc.Stats()
	if st.Updates < 2000 || st.Batches != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if err := svc.ValidateState(); err != nil {
		t.Fatal(err)
	}
}

// run2churn drives runChurn directly with the service as the writer.
func run2churn(t *testing.T, out io.Writer, svc *service.Service, space, churn, batch int, seed int64, verify bool) int {
	t.Helper()
	return runChurn(context.Background(), out, out, svc, svc.ApplyBatch, space, churn, batch, seed, verify)
}

// TestRunScriptedDurableChurn: a full run() in scripted mode with a
// data dir finishes cleanly and leaves a recoverable checkpoint at the
// final version.
func TestRunScriptedDurableChurn(t *testing.T) {
	dir := t.TempDir()
	var out, errw bytes.Buffer
	code := run(context.Background(), []string{
		"-graph", "ring", "-n", "512", "-churn", "1024", "-batch", "128",
		"-data-dir", dir, "-wal-sync", "batch", "-checkpoint-every", "3",
		"-seed", "5", "-verify",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("run exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	d, info, err := service.OpenDurable(service.Options{}, service.DurableOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d.Close()
	if info.ReplayedBatches != 0 {
		t.Fatalf("clean close left %d batches to replay", info.ReplayedBatches)
	}
	if info.Version == 0 {
		t.Fatal("no batches committed")
	}
	if err := d.Service().ValidateState(); err != nil {
		t.Fatalf("recovered state invalid: %v", err)
	}
}

// TestRunSIGTERMMidChurnRecoverable is the signal-handling contract:
// cancelling run()'s context (what SIGTERM does via NotifyContext)
// while churn is in flight must stop between batches, checkpoint on
// close, and leave a valid recoverable state on disk.
func TestRunSIGTERMMidChurnRecoverable(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var out, errw syncBuffer
	done := make(chan int, 1)
	go func() {
		// A churn target far beyond what can finish before the cancel.
		done <- run(ctx, []string{
			"-graph", "ring", "-n", "512", "-churn", "100000000", "-batch", "64",
			"-data-dir", dir, "-wal-sync", "batch", "-checkpoint-every", "5",
			"-seed", "7",
		}, &out, &errw)
	}()
	// Let some batches land before the signal.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, "checkpoint.ckpt")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint appeared\nstdout:\n%s\nstderr:\n%s", out.String(), errw.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("interrupted run exit %d\nstderr:\n%s", code, errw.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run did not stop after cancel")
	}
	if !strings.Contains(out.String(), "interrupted by signal") {
		t.Fatalf("missing interruption notice:\n%s", out.String())
	}
	d, info, err := service.OpenDurable(service.Options{}, service.DurableOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recovery after signal: %v", err)
	}
	defer d.Close()
	if info.Version == 0 {
		t.Fatal("signal landed before any batch committed")
	}
	svc := d.Service()
	if err := svc.ValidateState(); err != nil {
		t.Fatalf("state after signal invalid: %v", err)
	}
	if rep := svc.AuditState(0); rep.Err() != nil {
		t.Fatalf("audit after signal: %v", rep.Err())
	}
}

// TestRunServerGracefulDrain boots the full HTTP server mode against a
// durable dir, cancels the context, and expects a clean drain: exit 0,
// final checkpoint, nothing to replay on reopen.
func TestRunServerGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var out, errw syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-graph", "ring", "-n", "128", "-addr", "127.0.0.1:0",
			"-data-dir", dir, "-drain", "5s",
		}, &out, &errw)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), "listening on") {
		if time.Now().After(deadline) {
			t.Fatalf("server never listened\nstdout:\n%s\nstderr:\n%s", out.String(), errw.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("drain exit %d\nstderr:\n%s", code, errw.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server did not drain after cancel")
	}
	if !strings.Contains(out.String(), "shutdown: complete") {
		t.Fatalf("missing drain completion:\n%s", out.String())
	}
	if _, info, err := service.OpenDurable(service.Options{}, service.DurableOptions{Dir: dir}); err != nil {
		t.Fatalf("reopen after drain: %v", err)
	} else if info.ReplayedBatches != 0 {
		t.Fatalf("drain left %d batches unreplayed", info.ReplayedBatches)
	}
}

// TestRunChaosFlag: `colord -chaos N` runs the kill-point matrix and
// exits zero with the report on stdout.
func TestRunChaosFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix in -short")
	}
	var out, errw bytes.Buffer
	code := run(context.Background(), []string{"-chaos", "8", "-seed", "3"}, &out, &errw)
	if code != 0 {
		t.Fatalf("chaos exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "zero validity violations") {
		t.Fatalf("missing chaos verdict:\n%s", out.String())
	}
}

// TestRunFlagErrors: bad flags and bad modes exit 2 without
// panicking. Each case runs under a deadline, so a flag value that
// hangs run (an empty churn batch, a substrate with no insertable
// edge) fails the case instead of stalling the suite.
func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{"-graph", "torus", "-churn", "1"},
		{"-wal-sync", "sometimes"},
		{"-graph", "ring", "-n", "2", "-churn", "10"},
		{"-graph", "gnp", "-n", "100", "-prob", "1.5", "-churn", "10"},
		{"-graph", "gnp", "-n", "100", "-prob", "NaN", "-churn", "10"},
		{"-graph", "gnp", "-n", "-5", "-prob", "0.1"},
		{"-graph", "powerlaw", "-n", "3", "-k", "3", "-churn", "10"},
		{"-graph", "powerlaw", "-n", "100", "-k", "0", "-churn", "10"},
		{"-graph", "ring", "-n", "100", "-churn", "10", "-batch", "0"},
		{"-graph", "ring", "-n", "100", "-churn", "10", "-batch", "-3"},
		{"-graph", "gnp", "-n", "1", "-prob", "0", "-churn", "10"},
	}
	// Out-of-range values: each would otherwise run (scripted mode
	// exits 0, or 1 for a negative defect) with a default in its place.
	for _, bad := range [][]string{
		{"-checkpoint-every", "-5"}, {"-checkpoint-every", "0"},
		{"-queue", "-3"}, {"-queue", "0"},
		{"-max-body", "-1"}, {"-max-body", "0"},
		{"-request-timeout", "-1s"}, {"-request-timeout", "0s"},
		{"-drain", "-1s"},
		{"-budget", "-7"},
		{"-compact", "-9"},
		{"-defect", "-1"},
	} {
		cases = append(cases, append([]string{"-graph", "ring", "-n", "100", "-churn", "10"}, bad...))
	}
	for _, args := range cases {
		ctx, cancel := context.WithCancel(context.Background())
		var out, errw bytes.Buffer
		done := make(chan int, 1)
		go func() { done <- run(ctx, args, &out, &errw) }()
		select {
		case code := <-done:
			if code != 2 {
				t.Errorf("args %v: exit %d, want 2\nstderr:\n%s", args, code, errw.String())
			}
		case <-time.After(10 * time.Second):
			t.Errorf("args %v: run did not return within 10s", args)
		}
		cancel()
	}
}
