// checkpoint.go bounds WAL replay: every CheckpointEvery batches the
// Durable wrapper serializes the service's full state — version,
// colors, instance lists/defects, topology, running counters — into
// one checksummed file, written atomically (temp file + fsync +
// rename + directory fsync), and then drops the WAL segments the
// checkpoint supersedes. Recovery is load-checkpoint + replay-tail:
// because ApplyBatch is deterministic in the op stream, the recovered
// state is byte-identical to the uninterrupted run.
//
// The encoding is the same canonical varint discipline as the WAL
// records (and sim.EncodePayload): varints end to end, shared color
// lists deduplicated with a same-as-previous flag, topology rows
// delta-coded. A CRC-32C trailer rejects damaged checkpoints with a
// typed error instead of replaying garbage.
package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// ErrCheckpoint wraps checkpoint load failures: a missing, truncated
// or corrupted checkpoint decodes to an error, never a panic.
var ErrCheckpoint = errors.New("service: bad checkpoint")

// checkpointMagic opens the checkpoint file; bumping it is a format
// break (old files are rejected, not misread). LCCKPT01 images also
// carried the per-shard write-path counters; LCCKPT02 dropped them.
var checkpointMagic = []byte("LCCKPT02")

const checkpointFile = "checkpoint.ckpt"

// checkpointState is the decoded durable image of a service at one
// batch boundary.
type checkpointState struct {
	version uint64
	colors  []int
	space   int
	lists   [][]int
	defects [][]int
	// rowsUp[v] holds v's neighbors w > v, ascending — each edge once.
	rowsUp [][]int
	totals Stats
	// walSegment is the index of the first WAL segment whose records
	// may exceed the checkpoint version (older segments are garbage).
	walSegment int
}

// appendIntsVarint writes len + elements.
func appendIntsVarint(b []byte, xs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

// encodeCheckpoint renders the state into the checkpoint payload
// (magic and CRC are added by writeCheckpoint).
func encodeCheckpoint(cs *checkpointState) []byte {
	n := len(cs.colors)
	buf := binary.AppendUvarint(nil, cs.version)
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, c := range cs.colors {
		buf = binary.AppendVarint(buf, int64(c))
	}
	buf = binary.AppendUvarint(buf, uint64(cs.space))
	// Lists/defects with same-as-previous dedup: under the shared-
	// palette instances colord serves, n nodes cost 1 byte each
	// instead of re-encoding the full palette n times.
	sameAsPrev := func(v int) bool {
		if v == 0 {
			return false
		}
		a, b := cs.lists[v], cs.lists[v-1]
		da, db := cs.defects[v], cs.defects[v-1]
		if len(a) != len(b) || len(da) != len(db) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		for i := range da {
			if da[i] != db[i] {
				return false
			}
		}
		return true
	}
	for v := 0; v < n; v++ {
		if sameAsPrev(v) {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = appendIntsVarint(buf, cs.lists[v])
		buf = appendIntsVarint(buf, cs.defects[v])
	}
	// Topology: per node, the neighbors above it, delta-coded (every
	// delta ≥ 1 since rows are sorted and strictly above v).
	for v := 0; v < n; v++ {
		row := cs.rowsUp[v]
		buf = binary.AppendUvarint(buf, uint64(len(row)))
		prev := v
		for _, w := range row {
			buf = binary.AppendUvarint(buf, uint64(w-prev))
			prev = w
		}
	}
	// Running counters, in a fixed documented order.
	for _, x := range cs.totals.counterList() {
		buf = binary.AppendVarint(buf, x)
	}
	buf = binary.AppendUvarint(buf, uint64(cs.walSegment))
	return buf
}

// counterList is the checkpoint serialization order of the Stats
// counters (representation-independent fields only; Patched and the
// time-derived rates are recomputed after restore).
func (st *Stats) counterList() []int64 {
	return []int64{
		st.Batches, st.Updates, st.Rejected,
		st.HardConflicts, st.AbsorbedConflicts, st.Recolored,
		st.RepairRounds, st.Fallbacks,
		st.MaintenanceMessages, st.MaintenanceBits, st.Compactions,
	}
}

// setCounterList is counterList's decode mirror.
func (st *Stats) setCounterList(xs []int64) {
	st.Batches, st.Updates, st.Rejected = xs[0], xs[1], xs[2]
	st.HardConflicts, st.AbsorbedConflicts, st.Recolored = xs[3], xs[4], xs[5]
	st.RepairRounds, st.Fallbacks = xs[6], xs[7]
	st.MaintenanceMessages, st.MaintenanceBits, st.Compactions = xs[8], xs[9], xs[10]
}

// decodeCheckpoint parses a checkpoint payload. Corrupt input returns
// ErrCheckpoint — bounds are checked before any allocation is sized.
func decodeCheckpoint(data []byte) (*checkpointState, error) {
	rest := data
	fail := func(what string) error {
		return fmt.Errorf("%w: %s at byte %d", ErrCheckpoint, what, len(data)-len(rest))
	}
	readUvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	readVarint := func() (int64, bool) {
		v, n := binary.Varint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	readInts := func() ([]int, bool) {
		n, ok := readUvarint()
		if !ok || n > uint64(len(rest)) {
			return nil, false
		}
		if n == 0 {
			return nil, true
		}
		xs := make([]int, n)
		for i := range xs {
			v, ok := readVarint()
			if !ok {
				return nil, false
			}
			xs[i] = int(v)
		}
		return xs, true
	}

	cs := &checkpointState{}
	v, ok := readUvarint()
	if !ok {
		return nil, fail("version")
	}
	cs.version = v
	nu, ok := readUvarint()
	if !ok || nu > uint64(len(rest)) {
		return nil, fail("node count")
	}
	n := int(nu)
	cs.colors = make([]int, n)
	for i := range cs.colors {
		c, ok := readVarint()
		if !ok {
			return nil, fail("colors")
		}
		cs.colors[i] = int(c)
	}
	sp, ok := readUvarint()
	if !ok {
		return nil, fail("space")
	}
	cs.space = int(sp)
	cs.lists = make([][]int, n)
	cs.defects = make([][]int, n)
	for v := 0; v < n; v++ {
		if len(rest) == 0 {
			return nil, fail("list flag")
		}
		flag := rest[0]
		rest = rest[1:]
		switch flag {
		case 0:
			if v == 0 {
				return nil, fail("dangling same-as-previous flag")
			}
			cs.lists[v] = cs.lists[v-1]
			cs.defects[v] = cs.defects[v-1]
		case 1:
			var ok bool
			if cs.lists[v], ok = readInts(); !ok {
				return nil, fail("list")
			}
			if cs.defects[v], ok = readInts(); !ok {
				return nil, fail("defects")
			}
			if len(cs.lists[v]) != len(cs.defects[v]) {
				return nil, fail("list/defect length mismatch")
			}
		default:
			return nil, fail("unknown list flag")
		}
	}
	cs.rowsUp = make([][]int, n)
	for v := 0; v < n; v++ {
		deg, ok := readUvarint()
		if !ok || deg > uint64(len(rest)) {
			return nil, fail("row length")
		}
		if deg == 0 {
			continue
		}
		row := make([]int, deg)
		prev := v
		for i := range row {
			d, ok := readUvarint()
			if !ok || d == 0 {
				return nil, fail("row delta")
			}
			prev += int(d)
			if prev >= n {
				return nil, fail("neighbor out of range")
			}
			row[i] = prev
		}
		cs.rowsUp[v] = row
	}
	counters := make([]int64, len(cs.totals.counterList()))
	for i := range counters {
		c, ok := readVarint()
		if !ok {
			return nil, fail("counters")
		}
		counters[i] = c
	}
	cs.totals.setCounterList(counters)
	seg, ok := readUvarint()
	if !ok {
		return nil, fail("wal segment")
	}
	cs.walSegment = int(seg)
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCheckpoint, len(rest))
	}
	return cs, nil
}

// writeCheckpoint persists the state atomically: the full image goes
// to a temp file that is fsynced before an atomic rename over the
// live checkpoint, then the directory is fsynced — a crash at any
// point leaves either the old checkpoint or the new one, never a mix.
func writeCheckpoint(dir string, cs *checkpointState) error {
	payload := encodeCheckpoint(cs)
	img := make([]byte, 0, len(checkpointMagic)+len(payload)+4)
	img = append(img, checkpointMagic...)
	img = append(img, payload...)
	img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(payload, walCRC))

	tmp := filepath.Join(dir, checkpointFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(img); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, checkpointFile)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// readCheckpoint loads and verifies the live checkpoint. A missing
// file returns os.ErrNotExist (fresh data dir); damage of any kind
// returns ErrCheckpoint.
func readCheckpoint(dir string) (*checkpointState, error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		return nil, err
	}
	if len(data) < len(checkpointMagic)+4 || string(data[:len(checkpointMagic)]) != string(checkpointMagic) {
		return nil, fmt.Errorf("%w: missing magic", ErrCheckpoint)
	}
	payload := data[len(checkpointMagic) : len(data)-4]
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if sum != crc32.Checksum(payload, walCRC) {
		return nil, fmt.Errorf("%w: crc mismatch", ErrCheckpoint)
	}
	return decodeCheckpoint(payload)
}
