// wal.go is the service's write-ahead log: every ApplyBatch appends
// one checksummed, length-prefixed record — the batch's version plus
// its full op list, rendered through the durable codec (codec.go) —
// to a segment-rotated append-only log BEFORE the batch mutates the
// in-memory state. Replay is therefore exact: ApplyBatch is a
// deterministic function of the op stream (including partial
// application on a rejected op), so checkpoint + WAL replay
// reconstructs colors, counters and topology byte-identically.
//
// Torn writes are a fact of crashes, not an error condition: a record
// whose header, body or trailing CRC was cut short — or whose bytes
// were damaged afterwards — is detected by the length bound and the
// CRC-32C check, and the tail from the first bad byte on is cleanly
// discarded with a typed *WALTailError. Decoding never panics and
// never allocates beyond the input length.
package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// SyncMode is the WAL durability knob (colord -wal-sync).
type SyncMode int

const (
	// SyncOff buffers appends in memory and flushes only on rotation
	// and clean close — fastest, loses the buffered tail on a crash.
	SyncOff SyncMode = iota
	// SyncBatch writes each record through to the OS per batch (the
	// default): a process crash loses nothing, an OS crash can lose
	// the unsynced tail.
	SyncBatch
	// SyncAlways fsyncs after every record: a batch is reported
	// applied only once its record is on stable storage.
	SyncAlways
)

// String renders the colord flag spelling.
func (m SyncMode) String() string {
	switch m {
	case SyncOff:
		return "off"
	case SyncBatch:
		return "batch"
	case SyncAlways:
		return "always"
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// ParseSyncMode parses the colord -wal-sync flag value.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "off":
		return SyncOff, nil
	case "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("service: unknown wal sync mode %q (want off|batch|always)", s)
}

// ErrWALCrashed is returned by a Durable whose WAL writer hit an
// unrecoverable append failure (a real I/O error, or an armed chaos
// crash): the in-memory state may be ahead of the log, so the service
// refuses further writes until it is reopened through recovery.
var ErrWALCrashed = errors.New("service: wal writer crashed")

// ErrWALRecord wraps WAL record payload decoding failures — corrupted
// or truncated bytes decode to an error, never a panic.
var ErrWALRecord = errors.New("service: bad wal record")

// WAL tail-discard reasons, one per torn-write class.
const (
	// TornShortHeader: the segment ends inside a record's length
	// prefix (or the prefix is malformed).
	TornShortHeader = "short header"
	// TornShortBody: the length prefix declares more payload bytes
	// than remain in the segment.
	TornShortBody = "short body"
	// TornShortCRC: the payload is complete but the trailing checksum
	// was cut short — the partial-final-record class.
	TornShortCRC = "partial final record"
	// TornBadCRC: the checksum does not match the payload (a torn
	// write inside the body, or post-crash byte damage).
	TornBadCRC = "bad crc"
	// TornBadPayload: the CRC matches but the payload does not decode
	// — damage that happens to preserve the checksum, or a version
	// discontinuity against the records before it.
	TornBadPayload = "bad record payload"
)

// WALTailError reports a discarded WAL tail: everything from Offset in
// Segment on was dropped during replay. It is a recovery *outcome*,
// not a failure — the log up to the torn record is intact and the
// service resumes from there.
type WALTailError struct {
	Segment string // segment file name
	Offset  int64  // byte offset of the first discarded byte
	Reason  string // one of the Torn* classes
	Cause   error  // decode error detail for TornBadPayload, else nil
}

func (e *WALTailError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("service: wal tail discarded at %s+%d: %s: %v", e.Segment, e.Offset, e.Reason, e.Cause)
	}
	return fmt.Sprintf("service: wal tail discarded at %s+%d: %s", e.Segment, e.Offset, e.Reason)
}

func (e *WALTailError) Unwrap() error { return e.Cause }

// Wire tags of the WAL op encoding, one per Op action. Unknown actions
// are rejected at encode time (ApplyBatch would reject them anyway,
// but the log must never carry bytes it cannot replay).
const (
	walTagAddEdge    = 1
	walTagRemoveEdge = 2
	walTagAddNode    = 3
	walTagRemoveNode = 4
	walTagSetList    = 5
	// walTagOpaque carries an op with an action string the codec does
	// not know. ApplyBatch rejects such an op at its index after
	// applying the prefix — logging it verbatim keeps replay
	// byte-identical to the original partial application.
	walTagOpaque = 6
)

// walCRC is CRC-32C (Castagnoli) — hardware-accelerated on amd64/arm64.
var walCRC = crc32.MakeTable(crc32.Castagnoli)

// walSegmentMagic opens every segment file; a reader rejects files
// that do not start with it (discarding them as a torn tail when they
// are the freshly-created last segment a crash left empty).
var walSegmentMagic = []byte("LCWAL001")

// EncodeWALBatch renders (version, ops) into a WAL record payload:
// uvarint version, uvarint op count, then per op a tag byte followed
// by the action's fields as (u)varints (codec.go). Every op encodes:
// unknown actions travel under the opaque tag so replay reproduces the
// same rejection at the same index.
func EncodeWALBatch(version uint64, ops []Op) []byte {
	buf := binary.AppendUvarint(nil, version)
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		switch op.Action {
		case OpAddEdge, OpRemoveEdge:
			tag := byte(walTagAddEdge)
			if op.Action == OpRemoveEdge {
				tag = walTagRemoveEdge
			}
			buf = append(buf, tag)
			buf = binary.AppendVarint(buf, int64(op.U))
			buf = binary.AppendVarint(buf, int64(op.V))
		case OpAddNode:
			buf = append(buf, walTagAddNode)
			buf = appendInts(buf, op.List)
			buf = appendInts(buf, op.Defects)
		case OpRemoveNode:
			buf = append(buf, walTagRemoveNode)
			buf = binary.AppendVarint(buf, int64(op.Node))
		case OpSetList:
			buf = append(buf, walTagSetList)
			buf = binary.AppendVarint(buf, int64(op.Node))
			buf = appendInts(buf, op.List)
			buf = appendInts(buf, op.Defects)
		default:
			buf = append(buf, walTagOpaque)
			buf = binary.AppendUvarint(buf, uint64(len(op.Action)))
			buf = append(buf, op.Action...)
			buf = binary.AppendVarint(buf, int64(op.U))
			buf = binary.AppendVarint(buf, int64(op.V))
			buf = binary.AppendVarint(buf, int64(op.Node))
			buf = appendInts(buf, op.List)
			buf = appendInts(buf, op.Defects)
		}
	}
	return buf
}

// DecodeWALBatch parses a WAL record payload back into (version, ops).
// Arbitrary (corrupted) input yields an ErrWALRecord — never a panic
// and never an allocation beyond O(len(data)) (codec.go's reader).
func DecodeWALBatch(data []byte) (version uint64, ops []Op, err error) {
	r := reader{data: data, kind: ErrWALRecord}
	version = r.uvarint("version")
	nops := r.count("op count")
	ops = make([]Op, 0, nops)
	for i := 0; i < nops && r.err == nil; i++ {
		var op Op
		switch tag := r.u8("op tag"); tag {
		case walTagAddEdge, walTagRemoveEdge:
			op.Action = OpAddEdge
			if tag == walTagRemoveEdge {
				op.Action = OpRemoveEdge
			}
			op.U = int(r.varint("u"))
			op.V = int(r.varint("v"))
		case walTagAddNode:
			op.Action = OpAddNode
			op.List = r.ints("list")
			op.Defects = r.ints("defects")
		case walTagRemoveNode:
			op.Action = OpRemoveNode
			op.Node = int(r.varint("node"))
		case walTagSetList:
			op.Action = OpSetList
			op.Node = int(r.varint("node"))
			op.List = r.ints("list")
			op.Defects = r.ints("defects")
		case walTagOpaque:
			op.Action = string(r.bytes(r.count("action length")))
			switch op.Action {
			case OpAddEdge, OpRemoveEdge, OpAddNode, OpRemoveNode, OpSetList:
				// A known action under the opaque tag is non-canonical:
				// re-encoding would switch tags and drop fields.
				r.fail("known action %q under opaque tag", op.Action)
			}
			op.U = int(r.varint("u"))
			op.V = int(r.varint("v"))
			op.Node = int(r.varint("node"))
			op.List = r.ints("list")
			op.Defects = r.ints("defects")
		default:
			r.fail("unknown op tag %d", tag)
		}
		ops = append(ops, op)
	}
	if err := r.end(); err != nil {
		return 0, nil, err
	}
	return version, ops, nil
}

// appendWALRecord frames a payload as one on-disk record:
// uvarint(len(payload)) ‖ payload ‖ CRC-32C(payload) little-endian.
func appendWALRecord(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, walCRC))
}

// walSegmentName renders the rotation-ordered segment file name.
func walSegmentName(index int) string { return fmt.Sprintf("wal-%08d.seg", index) }

// listWALSegments returns the data dir's segment file names in
// rotation order.
func listWALSegments(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	names := make([]string, len(matches))
	for i, m := range matches {
		names[i] = filepath.Base(m)
	}
	return names, nil
}

// crashPlan arms a deterministic simulated crash inside the WAL
// writer — the chaos harness's process-kill stand-in. On the armed
// append (0-based count across the writer's lifetime) the writer puts
// only a seed-drawn prefix of the record's bytes on disk and fails
// with ErrWALCrashed, exactly the on-disk image a kill-9 mid-write
// leaves behind.
type crashPlan struct {
	appendIndex int
	draw        uint64 // prefix length = draw % len(record)
}

// walWriter is the append side of the log: one open segment file,
// rotated when it crosses segBytes, with the sync mode deciding how
// far each record is pushed toward stable storage before ApplyBatch
// proceeds.
type walWriter struct {
	dir      string
	sync     SyncMode
	segBytes int64

	f        *os.File
	buf      []byte // pending bytes under SyncOff (flushed on rotate/close)
	index    int    // current segment index
	size     int64  // bytes written to the current segment (incl. magic)
	appends  int    // lifetime append count (crash-plan clock)
	crash    *crashPlan
	segments int   // segments created by this writer
	records  int64 // records appended
	bytes    int64 // record bytes appended (excl. magic)
}

// openWALWriter creates a fresh segment numbered after the existing
// ones and returns the writer positioned at its start.
func openWALWriter(dir string, sync SyncMode, segBytes int64) (*walWriter, error) {
	if segBytes <= 0 {
		segBytes = 16 << 20
	}
	names, err := listWALSegments(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if len(names) > 0 {
		last := names[len(names)-1]
		if _, err := fmt.Sscanf(last, "wal-%08d.seg", &next); err != nil {
			return nil, fmt.Errorf("service: unparsable wal segment name %q", last)
		}
		next++
	}
	w := &walWriter{dir: dir, sync: sync, segBytes: segBytes, index: next - 1}
	if err := w.rotate(); err != nil {
		return nil, err
	}
	return w, nil
}

// rotate flushes and closes the current segment and opens the next.
func (w *walWriter) rotate() error {
	if w.f != nil {
		if err := w.flush(true); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			return err
		}
	}
	w.index++
	f, err := os.OpenFile(filepath.Join(w.dir, walSegmentName(w.index)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(walSegmentMagic); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.size = int64(len(walSegmentMagic))
	w.segments++
	return syncDir(w.dir)
}

// flush pushes buffered SyncOff bytes to the OS; toDisk adds an fsync.
func (w *walWriter) flush(toDisk bool) error {
	if len(w.buf) > 0 {
		if _, err := w.f.Write(w.buf); err != nil {
			return err
		}
		w.buf = w.buf[:0]
	}
	if toDisk {
		return w.f.Sync()
	}
	return nil
}

// append frames and writes one record payload, honoring the sync mode
// and any armed crash plan. The returned error is fatal for the
// writer: the caller must stop appending and go through recovery.
func (w *walWriter) append(payload []byte) error {
	rec := appendWALRecord(nil, payload)
	if w.size+int64(len(rec)) > w.segBytes && w.size > int64(len(walSegmentMagic)) {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	idx := w.appends
	w.appends++
	if w.crash != nil && idx == w.crash.appendIndex {
		// Simulated kill mid-write: flush what a real process would
		// already have handed to the OS, put a prefix of this record on
		// disk, and die. (Under SyncOff the buffered tail is lost too —
		// exactly the semantics the mode trades for speed.)
		prefix := int(w.crash.draw % uint64(len(rec)))
		if w.sync != SyncOff {
			w.f.Write(rec[:prefix])
		} else {
			w.buf = nil // crash drops the unflushed buffer
			w.f.Write(rec[:prefix])
		}
		w.f.Close()
		w.f = nil
		return ErrWALCrashed
	}
	switch w.sync {
	case SyncOff:
		w.buf = append(w.buf, rec...)
	default:
		if err := w.flush(false); err != nil {
			return err
		}
		if _, err := w.f.Write(rec); err != nil {
			return err
		}
		if w.sync == SyncAlways {
			if err := w.f.Sync(); err != nil {
				return err
			}
		}
	}
	w.size += int64(len(rec))
	w.records++
	w.bytes += int64(len(rec))
	return nil
}

// close flushes, fsyncs and closes the current segment.
func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	if err := w.flush(true); err != nil {
		return err
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// abort closes the file handle without flushing buffered bytes — the
// chaos harness's clean "the process is gone" exit.
func (w *walWriter) abort() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	w.buf = nil
}

// walRecord is one replayable record read back from the log.
type walRecord struct {
	Version uint64
	Ops     []Op
}

// readWALDir replays every segment in rotation order and returns the
// decodable record prefix. A torn or corrupted record ends the replay:
// everything from it on (including all later segments) is discarded
// and described by the returned *WALTailError (nil when the log is
// clean). The error return is for I/O failures only.
func readWALDir(dir string) ([]walRecord, *WALTailError, error) {
	names, err := listWALSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	var out []walRecord
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		recs, tail := readWALSegment(name, data)
		out = append(out, recs...)
		if tail != nil {
			return out, tail, nil
		}
	}
	return out, nil, nil
}

// readWALSegment parses one segment image. It stops at the first torn
// or corrupt record and reports it; a clean segment returns tail=nil.
func readWALSegment(name string, data []byte) ([]walRecord, *WALTailError) {
	if len(data) < len(walSegmentMagic) || string(data[:len(walSegmentMagic)]) != string(walSegmentMagic) {
		return nil, &WALTailError{Segment: name, Offset: 0, Reason: TornShortHeader}
	}
	off := int64(len(walSegmentMagic))
	rest := data[len(walSegmentMagic):]
	var out []walRecord
	for len(rest) > 0 {
		n, hdr := binary.Uvarint(rest)
		if hdr <= 0 {
			return out, &WALTailError{Segment: name, Offset: off, Reason: TornShortHeader}
		}
		if n > uint64(len(rest)-hdr) {
			return out, &WALTailError{Segment: name, Offset: off, Reason: TornShortBody}
		}
		payload := rest[hdr : hdr+int(n)]
		if len(rest)-hdr-int(n) < 4 {
			return out, &WALTailError{Segment: name, Offset: off, Reason: TornShortCRC}
		}
		sum := binary.LittleEndian.Uint32(rest[hdr+int(n):])
		if sum != crc32.Checksum(payload, walCRC) {
			return out, &WALTailError{Segment: name, Offset: off, Reason: TornBadCRC}
		}
		version, ops, err := DecodeWALBatch(payload)
		if err != nil {
			return out, &WALTailError{Segment: name, Offset: off, Reason: TornBadPayload, Cause: err}
		}
		out = append(out, walRecord{Version: version, Ops: ops})
		adv := hdr + int(n) + 4
		rest = rest[adv:]
		off += int64(adv)
	}
	return out, nil
}

// removeWALSegmentsBefore deletes every segment strictly older than
// keepIndex — the post-checkpoint cleanup (all their records are ≤ the
// checkpoint version; replay would skip them anyway, so a crash
// mid-delete is harmless).
func removeWALSegmentsBefore(dir string, keepIndex int) error {
	names, err := listWALSegments(dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		var idx int
		if _, err := fmt.Sscanf(name, "wal-%08d.seg", &idx); err != nil {
			continue
		}
		if idx < keepIndex {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and creates inside it are
// durable (no-op on platforms where directories cannot be synced).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems refuse to fsync directories; the rename
		// itself is still atomic, so degrade silently.
		return nil
	}
	return nil
}
