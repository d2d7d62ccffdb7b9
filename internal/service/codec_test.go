package service

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"listcolor/internal/graph"
)

// TestDurableFormatGolden pins the bytes of both durable images, WAL
// record payloads and checkpoint payloads, as SHA-256 values. A data
// dir written by one build must recover under the next, so any change
// here is a format break: it needs a new magic, not a new hash.
func TestDurableFormatGolden(t *testing.T) {
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	base := graph.StreamedRing(64)
	script := churnScript(base, 12, 16, 3)
	fillSetLists(script, slackInstance(base).Space)
	var churn []byte
	for i, ops := range script {
		churn = append(churn, EncodeWALBatch(uint64(i+1), ops)...)
	}
	got := map[string]string{
		"wal sample": sum(EncodeWALBatch(42, walOpsSample())),
		"wal opaque": sum(EncodeWALBatch(1<<40, []Op{
			{Action: "future_op", U: -3, V: 1 << 40, Node: -1, List: []int{5, -2}, Defects: []int{0, 9}},
		})),
		"wal churn":  sum(churn),
		"checkpoint": sum(encodeCheckpoint(churnedService(t, 12, Options{}).stateImage())),
	}
	want := map[string]string{
		"wal sample": "6ed5e270ec77496caa74cfea5a1a8964d49a083ef6e054981a9ce912c05f272d",
		"wal opaque": "214f65b737f647df36adde2eb5efb3c77ad313f7fca9e09ccc334e2c6f03238e",
		"wal churn":  "e8e61cb9904a9e9985ee5304f891d0272ae7fe2df68f1949308d5a1badab8ea6",
		"checkpoint": "982749d3dcc262833d25de0f36af6aee6a2946e7dad2a7ec81dccee08f311fc1",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], w)
		}
	}
}

// FuzzCheckpointDecode is the checkpoint's "corruption never panics"
// contract: arbitrary bytes decode to an image or an ErrCheckpoint, and
// an accepted image restores and re-encodes to an image that decodes
// to the same colors, lists, counters and topology.
func FuzzCheckpointDecode(f *testing.F) {
	base := graph.StreamedRing(16)
	s, err := New(base, slackInstance(base), nil, Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeCheckpoint(s.stateImage()))
	script := churnScript(base, 4, 8, 5)
	fillSetLists(script, slackInstance(base).Space)
	for _, ops := range script {
		if _, err := s.ApplyBatch(ops); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(encodeCheckpoint(s.stateImage()))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0x0f}) // ~4·10⁹ nodes, no bytes
	f.Add([]byte{0x01, 0x02, 0x00, 0x00, 0x04, 0x02}) // truncated mid-lists
	f.Fuzz(func(t *testing.T, data []byte) {
		cs, err := decodeCheckpoint(data) // must not panic
		if err != nil {
			if !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("decode error not ErrCheckpoint: %v", err)
			}
			return
		}
		s, err := restoreService(cs, Options{})
		if err != nil {
			t.Fatalf("accepted image does not restore: %v", err)
		}
		img := s.stateImage()
		img.walSegment = cs.walSegment
		back, err := decodeCheckpoint(encodeCheckpoint(img))
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
		if back.version != cs.version || back.space != cs.space || back.walSegment != cs.walSegment ||
			!reflect.DeepEqual(back.colors, cs.colors) ||
			!reflect.DeepEqual(back.lists, cs.lists) || !reflect.DeepEqual(back.defects, cs.defects) ||
			!reflect.DeepEqual(back.totals.counterList(), cs.totals.counterList()) {
			t.Fatalf("round trip drift:\n got %+v\nwant %+v", back, cs)
		}
		r, err := restoreService(back, Options{})
		if err != nil {
			t.Fatalf("re-encoded image does not restore: %v", err)
		}
		if r.TopologyFingerprint() != s.TopologyFingerprint() {
			t.Fatal("topology drift")
		}
	})
}

// TestCheckpointImageAllocs: a checkpoint carries no per-vertex copies.
// On a 10⁵-node ring, taking and encoding the image, and decoding and
// restoring it, each cost a bounded number of allocations, not one per
// vertex.
func TestCheckpointImageAllocs(t *testing.T) {
	base := graph.StreamedRing(100_000)
	s := mustService(t, base, slackInstance(base), Options{})
	var payload []byte
	encode := testing.AllocsPerRun(3, func() {
		payload = encodeCheckpoint(s.stateImage())
	})
	restore := testing.AllocsPerRun(3, func() {
		cs, err := decodeCheckpoint(payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := restoreService(cs, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("image + encode: %.0f allocs; decode + restore: %.0f allocs", encode, restore)
	if encode >= 100 || restore >= 100 {
		t.Fatal("a checkpoint costs allocations per vertex")
	}
}
