package service

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"listcolor/internal/graph"
)

// churnedService builds a service and pushes it through some churn so
// checkpoints cover a non-trivial state (patched overlay, grown node
// set, rewritten lists).
func churnedService(t *testing.T, batches int, opts Options) *Service {
	t.Helper()
	base := graph.StreamedRing(64)
	inst := slackInstance(base)
	s := mustService(t, base, inst, opts)
	script := churnScript(base, batches, 16, 3)
	fillSetLists(script, inst.Space)
	for _, ops := range script {
		if _, err := s.ApplyBatch(ops); err != nil {
			t.Fatalf("churn batch: %v", err)
		}
	}
	return s
}

func TestCheckpointRoundTrip(t *testing.T) {
	s := churnedService(t, 12, Options{})
	cs := s.stateImage()
	cs.walSegment = 5
	back, err := decodeCheckpoint(encodeCheckpoint(cs))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.version != cs.version || back.space != cs.space || back.walSegment != 5 {
		t.Fatalf("scalar drift: %+v vs %+v", back, cs)
	}
	if !reflect.DeepEqual(back.colors, cs.colors) {
		t.Fatal("colors drift")
	}
	if !reflect.DeepEqual(back.lists, cs.lists) || !reflect.DeepEqual(back.defects, cs.defects) {
		t.Fatal("constraint drift")
	}
	r, err := restoreService(back, Options{})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if r.TopologyFingerprint() != cs.topo.Fingerprint() {
		t.Fatal("topology drift")
	}
	if !reflect.DeepEqual(back.totals.counterList(), cs.totals.counterList()) {
		t.Fatal("counter drift")
	}
}

// TestCheckpointRestoreMatchesLive pins the restore path: a service
// rebuilt from its own checkpoint serves the same colors, canonical
// stats and topology fingerprint as the live one, and audits clean.
func TestCheckpointRestoreMatchesLive(t *testing.T) {
	s := churnedService(t, 12, Options{})
	cs := s.stateImage()
	r, err := restoreService(decodeMust(t, cs), Options{})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !reflect.DeepEqual(r.Snapshot().Colors, s.Snapshot().Colors) {
		t.Fatal("colors drift")
	}
	if r.TopologyFingerprint() != s.TopologyFingerprint() {
		t.Fatal("fingerprint drift")
	}
	if got, want := CanonicalStats(r.Stats()), CanonicalStats(s.Stats()); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats drift:\n got %+v\nwant %+v", got, want)
	}
	if err := r.ValidateState(); err != nil {
		t.Fatalf("restored state invalid: %v", err)
	}
}

func decodeMust(t *testing.T, cs *checkpointState) *checkpointState {
	t.Helper()
	back, err := decodeCheckpoint(encodeCheckpoint(cs))
	if err != nil {
		t.Fatalf("checkpoint round trip: %v", err)
	}
	return back
}

// TestCheckpointFileDamage: every damaged on-disk image is rejected
// with a typed error — truncation, byte flips, missing magic, an image
// under the previous format's magic — and a missing file surfaces
// os.ErrNotExist for the caller's fresh-dir branch.
func TestCheckpointFileDamage(t *testing.T) {
	dir := t.TempDir()
	if _, err := readCheckpoint(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing checkpoint: %v", err)
	}
	s := churnedService(t, 6, Options{})
	cs := s.stateImage()
	if err := writeCheckpoint(dir, cs); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := readCheckpoint(dir); err != nil {
		t.Fatalf("clean read: %v", err)
	}
	path := filepath.Join(dir, checkpointFile)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// An LCCKPT01 header over an otherwise intact image: the payload
	// and CRC would pass, so only the magic keeps the old format from
	// being misread.
	oldFormat := append([]byte("LCCKPT01"), img[len(checkpointMagic):]...)
	damage := map[string][]byte{
		"truncated":    img[:len(img)/2],
		"flipped byte": flipByte(img, len(img)/2),
		"flipped crc":  flipByte(img, len(img)-1),
		"wrong magic":  flipByte(img, 0),
		"only magic":   img[:8],
		"empty":        {},
		"LCCKPT01":     oldFormat,
	}
	for name, bad := range damage {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readCheckpoint(dir); !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("%s: err = %v, want ErrCheckpoint", name, err)
		}
	}
	// Rewriting through writeCheckpoint replaces the damaged file
	// atomically; the re-read state matches.
	if err := writeCheckpoint(dir, cs); err != nil {
		t.Fatal(err)
	}
	back, err := readCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.version != cs.version || !reflect.DeepEqual(back.colors, cs.colors) {
		t.Fatal("rewritten checkpoint drift")
	}
}

// TestCheckpointDecodeHostileInput: declared lengths beyond the input
// are rejected before allocation, mirroring the WAL decoder's bound.
func TestCheckpointDecodeHostileInput(t *testing.T) {
	hostile := [][]byte{
		{},
		{0x01},                               // version only
		{0x01, 0xff, 0xff, 0xff, 0xff, 0x0f}, // ~4·10⁹ nodes, no bytes
		{0x01, 0x02, 0x00, 0x00, 0x04, 0x02}, // truncated mid-lists
	}
	for i, data := range hostile {
		if _, err := decodeCheckpoint(data); !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("hostile %d: err = %v", i, err)
		}
	}
}
