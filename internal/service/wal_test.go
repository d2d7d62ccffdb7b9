package service

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// walOpsSample covers every wire tag, including an opaque unknown
// action carrying all fields.
func walOpsSample() []Op {
	return []Op{
		{Action: OpAddEdge, U: 3, V: 7},
		{Action: OpRemoveEdge, U: 7, V: 3},
		{Action: OpAddNode, List: []int{0, 1, 2}, Defects: []int{1, 0, 2}},
		{Action: OpAddNode},
		{Action: OpRemoveNode, Node: 5},
		{Action: OpSetList, Node: 2, List: []int{1, 3}, Defects: []int{0, 0}},
		{Action: "future_op", U: 1, V: 2, Node: 3, List: []int{9}, Defects: []int{1}},
	}
}

// normalizeWALOps maps nil and empty lists to one representative —
// indistinguishable on the wire, same as sim's normalizeInts.
func normalizeWALOps(ops []Op) []Op {
	out := make([]Op, len(ops))
	for i, op := range ops {
		if len(op.List) == 0 {
			op.List = nil
		}
		if len(op.Defects) == 0 {
			op.Defects = nil
		}
		out[i] = op
	}
	return out
}

func TestWALBatchRoundTrip(t *testing.T) {
	ops := walOpsSample()
	payload := EncodeWALBatch(42, ops)
	version, back, err := DecodeWALBatch(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if version != 42 {
		t.Fatalf("version = %d, want 42", version)
	}
	if !reflect.DeepEqual(normalizeWALOps(back), normalizeWALOps(ops)) {
		t.Fatalf("round trip drift:\n got %#v\nwant %#v", back, ops)
	}
	// Empty batch is a valid record too (a heartbeat-style no-op).
	if v, o, err := DecodeWALBatch(EncodeWALBatch(7, nil)); err != nil || v != 7 || len(o) != 0 {
		t.Fatalf("empty batch round trip = (%d, %v, %v)", v, o, err)
	}
}

// TestWALOpaqueTagCanonical pins the canonicality guard: a known
// action smuggled under the opaque tag is rejected, because re-encoding
// it would switch tags and drop fields.
func TestWALOpaqueTagCanonical(t *testing.T) {
	buf := binary.AppendUvarint(nil, 1) // version
	buf = binary.AppendUvarint(buf, 1)  // one op
	buf = append(buf, walTagOpaque)
	buf = binary.AppendUvarint(buf, uint64(len(OpAddEdge)))
	buf = append(buf, OpAddEdge...)
	for i := 0; i < 3; i++ { // U, V, Node
		buf = binary.AppendVarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, 0) // list
	buf = binary.AppendUvarint(buf, 0) // defects
	if _, _, err := DecodeWALBatch(buf); !errors.Is(err, ErrWALRecord) {
		t.Fatalf("known action under opaque tag decoded: err = %v", err)
	}
}

// writeSegmentImage renders a segment file image holding the given
// record payloads.
func writeSegmentImage(payloads ...[]byte) []byte {
	img := append([]byte(nil), walSegmentMagic...)
	for _, p := range payloads {
		img = appendWALRecord(img, p)
	}
	return img
}

// TestWALTornWriteClasses enumerates every torn-write class the
// crash model can produce and asserts each one discards the tail
// cleanly — the records before the damage still replay, the reason is
// typed, and nothing panics.
func TestWALTornWriteClasses(t *testing.T) {
	rec1 := EncodeWALBatch(1, []Op{{Action: OpAddEdge, U: 0, V: 2}})
	// rec2 is padded past 128 bytes so its length prefix spans two
	// bytes — the only way to tear a header mid-varint.
	bigList := make([]int, 200)
	for i := range bigList {
		bigList[i] = i
	}
	rec2 := EncodeWALBatch(2, []Op{{Action: OpSetList, Node: 1, List: bigList, Defects: make([]int, 200)}})
	clean := writeSegmentImage(rec1, rec2)
	rec1End := len(walSegmentMagic) + len(rec1) + binary.PutUvarint(make([]byte, 10), uint64(len(rec1))) + 4

	// A CRC-valid record whose payload does not decode: damage that
	// happens to be re-checksummed, or a buggy writer.
	garbagePayload := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	crcValidGarbage := writeSegmentImage(rec1, garbagePayload)

	cases := []struct {
		name       string
		image      []byte
		wantReason string
		wantRecs   int
	}{
		{"short header: segment ends mid length prefix",
			clean[:rec1End+1], TornShortHeader, 1},
		{"short body: length prefix declares more than remains",
			clean[:rec1End+2+len(rec2)/2], TornShortBody, 1},
		{"partial final record: payload complete, crc cut short",
			clean[:len(clean)-2], TornShortCRC, 1},
		{"bad crc: flipped byte inside the body",
			flipByte(clean, rec1End+10), TornBadCRC, 1},
		{"bad crc: flipped byte inside the checksum",
			flipByte(clean, len(clean)-1), TornBadCRC, 1},
		{"bad payload: crc-valid bytes that do not decode",
			crcValidGarbage, TornBadPayload, 1},
		{"missing magic: empty freshly-created segment",
			nil, TornShortHeader, 0},
		{"missing magic: truncated magic",
			clean[:4], TornShortHeader, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, tail := readWALSegment("wal-00000001.seg", tc.image)
			if tail == nil {
				t.Fatalf("damage not detected")
			}
			if tail.Reason != tc.wantReason {
				t.Fatalf("reason = %q, want %q (%v)", tail.Reason, tc.wantReason, tail)
			}
			if len(recs) != tc.wantRecs {
				t.Fatalf("surviving records = %d, want %d", len(recs), tc.wantRecs)
			}
			if tc.wantRecs > 0 && recs[0].Version != 1 {
				t.Fatalf("surviving record version = %d", recs[0].Version)
			}
			if !strings.Contains(tail.Error(), tc.wantReason) {
				t.Fatalf("error text %q lacks reason", tail.Error())
			}
		})
	}

	// The clean image replays fully, tail-free.
	recs, tail := readWALSegment("wal-00000001.seg", clean)
	if tail != nil || len(recs) != 2 {
		t.Fatalf("clean segment: recs=%d tail=%v", len(recs), tail)
	}
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x40
	return out
}

// TestWALTailEndsReplayAcrossSegments: a torn record in segment k
// discards every later segment too — replay must never resume past a
// gap.
func TestWALTailEndsReplayAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	seg1 := writeSegmentImage(EncodeWALBatch(1, nil), EncodeWALBatch(2, nil))
	seg2 := writeSegmentImage(EncodeWALBatch(3, nil))
	seg2 = seg2[:len(seg2)-2] // tear segment 2's final record
	seg3 := writeSegmentImage(EncodeWALBatch(4, nil))
	for i, img := range [][]byte{seg1, seg2, seg3} {
		if err := os.WriteFile(filepath.Join(dir, walSegmentName(i+1)), img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recs, tail, err := readWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tail == nil || tail.Reason != TornShortCRC || tail.Segment != walSegmentName(2) {
		t.Fatalf("tail = %v", tail)
	}
	if len(recs) != 2 || recs[1].Version != 2 {
		t.Fatalf("replayed %d records past a torn segment", len(recs))
	}
}

// TestWALWriterRotation: a small segment budget rotates the log;
// reading the dir back returns every record in order.
func TestWALWriterRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := openWALWriter(dir, SyncBatch, 256)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := w.append(EncodeWALBatch(uint64(i+1), []Op{{Action: OpAddEdge, U: i, V: i + 1}})); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if w.segments < 2 {
		t.Fatalf("segments = %d, want rotation", w.segments)
	}
	recs, tail, err := readWALDir(dir)
	if err != nil || tail != nil {
		t.Fatalf("read back: err=%v tail=%v", err, tail)
	}
	if len(recs) != n {
		t.Fatalf("records = %d, want %d", len(recs), n)
	}
	for i, rec := range recs {
		if rec.Version != uint64(i+1) {
			t.Fatalf("record %d version = %d", i, rec.Version)
		}
	}
	// A writer reopened on the same dir continues the numbering; old
	// records stay readable.
	w2, err := openWALWriter(dir, SyncBatch, 256)
	if err != nil {
		t.Fatal(err)
	}
	if w2.index <= w.index {
		t.Fatalf("reopened writer index %d does not continue %d", w2.index, w.index)
	}
	if err := w2.append(EncodeWALBatch(n+1, nil)); err != nil {
		t.Fatal(err)
	}
	if err := w2.close(); err != nil {
		t.Fatal(err)
	}
	recs, tail, err = readWALDir(dir)
	if err != nil || tail != nil || len(recs) != n+1 {
		t.Fatalf("after reopen: recs=%d tail=%v err=%v", len(recs), tail, err)
	}
}

// TestWALSyncOffLosesOnlyBuffer: under SyncOff an abort drops the
// buffered tail but everything flushed by rotation survives.
func TestWALSyncOffLosesOnlyBuffer(t *testing.T) {
	dir := t.TempDir()
	w, err := openWALWriter(dir, SyncOff, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(EncodeWALBatch(1, nil)); err != nil {
		t.Fatal(err)
	}
	if err := w.rotate(); err != nil { // flushes record 1
		t.Fatal(err)
	}
	if err := w.append(EncodeWALBatch(2, nil)); err != nil {
		t.Fatal(err)
	}
	w.abort() // record 2 still buffered: gone
	recs, tail, err := readWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Version != 1 {
		t.Fatalf("recs = %+v", recs)
	}
	// The fresh empty segment has its magic (written unbuffered), so
	// there is no torn tail to report.
	if tail != nil {
		t.Fatalf("tail = %v", tail)
	}
}

func TestParseSyncMode(t *testing.T) {
	for _, m := range []SyncMode{SyncOff, SyncBatch, SyncAlways} {
		got, err := ParseSyncMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseSyncMode(%q) = (%v, %v)", m.String(), got, err)
		}
	}
	if _, err := ParseSyncMode("sometimes"); err == nil {
		t.Fatal("ParseSyncMode accepted garbage")
	}
}

// FuzzWALRecordDecode is the WAL's "corruption never panics"
// contract: arbitrary bytes decode to a record or an ErrWALRecord — never a panic, never
// an allocation beyond the input length — and accepted records
// re-encode value-stably.
func FuzzWALRecordDecode(f *testing.F) {
	f.Add(EncodeWALBatch(1, walOpsSample()))
	f.Add(EncodeWALBatch(0, nil))
	f.Add(EncodeWALBatch(1<<40, []Op{{Action: OpSetList, Node: 9, List: []int{0, 1}, Defects: []int{3, 4}}}))
	f.Add([]byte{})
	// Adversarial length prefixes: op and list counts far beyond the
	// input must be rejected by the length bound before any slice is
	// sized.
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x01, 0x01, walTagAddNode, 0xfe, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{0x01, 0x02, walTagAddEdge, 0x02, 0x04}) // declares 2 ops, carries 1
	f.Fuzz(func(t *testing.T, data []byte) {
		version, ops, err := DecodeWALBatch(data) // must not panic
		if err != nil {
			if !errors.Is(err, ErrWALRecord) {
				t.Fatalf("decode error not ErrWALRecord: %v", err)
			}
			return
		}
		back := EncodeWALBatch(version, ops)
		v2, ops2, err := DecodeWALBatch(back)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if v2 != version || !reflect.DeepEqual(normalizeWALOps(ops2), normalizeWALOps(ops)) {
			t.Fatalf("round trip drift: (%d, %#v) vs (%d, %#v)", version, ops, v2, ops2)
		}
	})
}

// TestWALDecodeAllocationBound pins the hostile-length defense the
// fuzz seeds probe: a declared op count of ~2⁶² with a 10-byte input
// must fail fast, not allocate.
func TestWALDecodeAllocationBound(t *testing.T) {
	hostile := []byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f}
	allocs := testing.AllocsPerRun(20, func() {
		DecodeWALBatch(hostile)
	})
	// The decoder's error goes through fmt, whose printer cache is a
	// sync.Pool; the race detector makes that cache miss at random, so
	// the bound holds only without it.
	if allocs > 8 && !raceEnabled {
		t.Fatalf("hostile input cost %.0f allocs", allocs)
	}
	// CRC checksum sanity: the framed record's trailer matches the Go
	// library's Castagnoli over the payload (format pin for external
	// readers).
	payload := EncodeWALBatch(3, nil)
	rec := appendWALRecord(nil, payload)
	sum := binary.LittleEndian.Uint32(rec[len(rec)-4:])
	if sum != crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)) {
		t.Fatal("record trailer is not CRC-32C(payload)")
	}
}
