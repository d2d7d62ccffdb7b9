// checkpoint.go bounds WAL replay: every CheckpointEvery batches the
// Durable wrapper serializes the service's full state — version,
// colors, instance lists/defects, topology, running counters — into
// one checksummed file, written atomically (temp file + fsync +
// rename + directory fsync), and then drops the WAL segments the
// checkpoint supersedes. Recovery is load-checkpoint + replay-tail:
// because ApplyBatch is deterministic in the op stream, the recovered
// state is byte-identical to the uninterrupted run.
//
// The encoding goes through the WAL records' codec (codec.go): varints
// end to end, shared color lists deduplicated with a same-as-previous
// flag, topology rows delta-coded. A CRC-32C trailer rejects damaged
// checkpoints with a typed error instead of replaying garbage.
package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"listcolor/internal/graph"
)

// ErrCheckpoint wraps checkpoint load failures: a missing, truncated
// or corrupted checkpoint decodes to an error, never a panic.
var ErrCheckpoint = errors.New("service: bad checkpoint")

// checkpointMagic opens the checkpoint file; bumping it is a format
// break (old files are rejected, not misread). LCCKPT01 images also
// carried the per-shard write-path counters; LCCKPT02 dropped them.
var checkpointMagic = []byte("LCCKPT02")

const checkpointFile = "checkpoint.ckpt"

// checkpointState is the durable image of a service at one batch
// boundary.
type checkpointState struct {
	version uint64
	colors  []int
	space   int
	lists   [][]int
	defects [][]int
	// topo is the published topology view stateImage took the image
	// from. It is immutable, so the encoder reads it without a lock.
	topo *graph.TopoView
	// edges replays the topology section of a decoded image, which
	// decodeCheckpoint has checked; restoreService streams the base CSR
	// from it.
	edges  graph.EdgeStream
	totals Stats
	// walSegment is the index of the first WAL segment whose records
	// may exceed the checkpoint version (older segments are garbage).
	walSegment int
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
	for v := 0; v < n; v++ {
		if v > 0 && slices.Equal(cs.lists[v], cs.lists[v-1]) && slices.Equal(cs.defects[v], cs.defects[v-1]) {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = appendInts(buf, cs.lists[v])
		buf = appendInts(buf, cs.defects[v])
	}
	// Topology: per node, the neighbors above it, delta-coded (every
	// delta ≥ 1 since rows are sorted and strictly above v).
	cs.topo.EachRow(func(v int, row []int) {
		row = row[sort.SearchInts(row, v+1):]
		buf = binary.AppendUvarint(buf, uint64(len(row)))
		prev := v
		for _, w := range row {
			buf = binary.AppendUvarint(buf, uint64(w-prev))
			prev = w
		}
	})
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
// ErrCheckpoint (codec.go's reader). The topology section is checked
// here, once, and kept as bytes for restoreService to stream.
func decodeCheckpoint(data []byte) (*checkpointState, error) {
	r := reader{data: data, kind: ErrCheckpoint}
	cs := &checkpointState{version: r.uvarint("version")}
	n := r.count("node count")
	cs.colors = make([]int, n)
	for i := range cs.colors {
		cs.colors[i] = int(r.varint("color"))
	}
	cs.space = int(r.uvarint("space"))
	cs.lists = make([][]int, n)
	cs.defects = make([][]int, n)
	for v := 0; v < n && r.err == nil; v++ {
		switch flag := r.u8("list flag"); {
		case flag == 0 && v > 0:
			cs.lists[v], cs.defects[v] = cs.lists[v-1], cs.defects[v-1]
		case flag == 1:
			cs.lists[v], cs.defects[v] = r.ints("list"), r.ints("defects")
			if len(cs.lists[v]) != len(cs.defects[v]) {
				r.fail("list/defect length mismatch")
			}
		default:
			r.fail("list flag %d at node %d", flag, v)
		}
	}
	start := r.off
	readTopology(&r, n, func(u, w int) {})
	section := data[start:r.off]
	counters := make([]int64, len(cs.totals.counterList()))
	for i := range counters {
		counters[i] = r.varint("counter")
	}
	cs.totals.setCounterList(counters)
	cs.walSegment = int(r.uvarint("wal segment"))
	if err := r.end(); err != nil {
		return nil, err
	}
	cs.edges = func(emit func(u, v int)) {
		readTopology(&reader{data: section, kind: ErrCheckpoint}, n, emit)
	}
	return cs, nil
}

// readTopology reads the topology section encodeCheckpoint writes and
// emits each edge {u, w}, u < w, once from its lower end, in ascending
// (u, w) order.
func readTopology(r *reader, n int, emit func(u, w int)) {
	for u := 0; u < n && r.err == nil; u++ {
		w := u
		for deg := r.count("row length"); deg > 0 && r.err == nil; deg-- {
			d := r.uvarint("row delta")
			if d == 0 || d >= uint64(n-w) {
				r.fail("neighbor out of range")
				return
			}
			w += int(d)
			emit(u, w)
		}
	}
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
