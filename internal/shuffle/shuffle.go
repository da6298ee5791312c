package shuffle

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"photon/internal/fault"
	"photon/internal/kernels"
	"photon/internal/storage/lz4"
	"photon/internal/types"
	"photon/internal/vector"
)

// CorruptBlockError reports a shuffle/broadcast block that failed integrity
// verification (bad checksum, truncation, undecodable payload) or a
// partition file that should exist but does not. The driver recovers by
// re-running the producing map task (lineage recovery) and then retrying
// the consuming task.
type CorruptBlockError struct {
	Path      string
	ShuffleID string
	MapTask   int
	Part      int
	Reason    string
}

func (e *CorruptBlockError) Error() string {
	return fmt.Sprintf("shuffle: corrupt block in %s (shuffle=%s map=%d part=%d): %s",
		e.Path, e.ShuffleID, e.MapTask, e.Part, e.Reason)
}

// blockChecksum is the per-block integrity checksum written ahead of every
// LZ4 frame: the engine's bytes hash folded to 32 bits. Cheap relative to
// LZ4 and catches truncations, bit flips, and torn writes.
func blockChecksum(b []byte) uint32 {
	h := kernels.HashBytesOne(b)
	return uint32(h) ^ uint32(h>>32)
}

// writerSeq distinguishes concurrent attempts (speculative duplicates,
// recovery re-runs) writing the same logical shuffle output: each Writer
// stages blocks under unique temp names and Commit atomically renames them
// into place, so exactly one attempt's files win and readers never observe
// partially written output.
var writerSeq atomic.Int64

// Partitioner hash-partitions batch rows across P reducers using the same
// hashing kernels as the join/aggregation path.
type Partitioner struct {
	NumPartitions int
	KeyCols       []int
	hashes        []uint64
	lanes         []uint64
	parts         [][]int32
}

// NewPartitioner builds a hash partitioner over the given key columns.
func NewPartitioner(numPartitions int, keyCols []int) *Partitioner {
	return &Partitioner{NumPartitions: numPartitions, KeyCols: keyCols}
}

// Split returns, for each partition, the position list of b's active rows
// that belong to it. The returned lists alias internal buffers valid until
// the next call.
func (p *Partitioner) Split(b *vector.Batch) [][]int32 {
	n := b.NumRows
	if cap(p.hashes) < n {
		p.hashes = make([]uint64, n)
		p.lanes = make([]uint64, n)
	}
	if p.parts == nil {
		p.parts = make([][]int32, p.NumPartitions)
	}
	for i := range p.parts {
		p.parts[i] = p.parts[i][:0]
	}
	for ki, c := range p.KeyCols {
		v := b.Vecs[c]
		first := ki == 0
		switch v.Type.ID {
		case types.String:
			if first {
				kernels.HashBytes(v.Str, v.Nulls, v.HasNulls(), b.Sel, n, p.hashes)
			} else {
				kernels.RehashBytes(v.Str, v.Nulls, v.HasNulls(), b.Sel, n, p.hashes)
			}
		default:
			lanes := p.lanes[:n]
			fillLanes(v, b.Sel, n, lanes)
			if first {
				kernels.HashU64(lanes, v.Nulls, v.HasNulls(), b.Sel, n, p.hashes)
			} else {
				kernels.RehashU64(lanes, v.Nulls, v.HasNulls(), b.Sel, n, p.hashes)
			}
		}
	}
	np := uint64(p.NumPartitions)
	apply := func(i int32) {
		part := p.hashes[i] % np
		p.parts[part] = append(p.parts[part], i)
	}
	if b.Sel == nil {
		for i := 0; i < n; i++ {
			apply(int32(i))
		}
	} else {
		for _, i := range b.Sel {
			apply(i)
		}
	}
	return p.parts
}

func fillLanes(v *vector.Vector, sel []int32, n int, out []uint64) {
	body := func(i int32) {
		switch v.Type.ID {
		case types.Bool:
			out[i] = uint64(v.Bool[i])
		case types.Int32, types.Date:
			out[i] = uint64(uint32(v.I32[i]))
		case types.Int64, types.Timestamp:
			out[i] = uint64(v.I64[i])
		case types.Float64:
			out[i] = math.Float64bits(v.F64[i])
		case types.Decimal:
			out[i] = v.Dec[i].Lo ^ uint64(v.Dec[i].Hi)*0x9e3779b97f4a7c15
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			body(int32(i))
		}
	} else {
		for _, i := range sel {
			body(i)
		}
	}
}

// Writer writes one map task's output: one file per reduce partition, each
// a sequence of checksummed LZ4-framed encoded blocks. Metrics report raw
// and compressed volume (Table 1's "Data Size").
//
// Rows are staged per partition in a dense batch and leave as one block when
// the batch is full (and at Close), so a block's size does not depend on how
// the map side's batches happened to split: reducers receive full batches,
// and the per-block costs — encoding decisions, LZ4 set-up, checksum, write
// — are paid once per stagingRows rows.
//
// Output is staged under attempt-unique temp names; Commit atomically
// renames every partition file into its final place. Concurrent attempts of
// the same task (speculative duplicates, lineage-recovery re-runs) never
// interleave bytes, and a reader either sees a complete committed file or
// none.
type Writer struct {
	dir      string
	shuffle  string
	mapTask  int
	files    []*os.File
	tmps     []string // temp paths (staged output)
	finals   []string // committed paths
	RawBytes int64
	Bytes    int64
	Rows     int64
	// PartBytes records compressed bytes per reduce partition — the
	// runtime statistic AQE-style partition coalescing reads at the stage
	// boundary (§5.5).
	PartBytes []int64
	// EncCounts tallies encoded column blocks by ColEncoding — the §4.6
	// adaptive-encoding decisions, surfaced per stage in query profiles.
	// A block is a full staging batch (or a partition's last, partial one).
	EncCounts [3]int64
	// Obs, when set, mirrors volume and encoding counters into the
	// process/session metrics registry.
	Obs *Metrics
	// Ctx, when set, bounds injected failpoint latency (the shuffle-write
	// site) so a cancelled attempt stops promptly.
	Ctx context.Context

	// Per partition: the rows not yet written, and the bytes of their
	// strings (rows outlive the caller's batch). Both are reused block
	// after block and dropped at Close.
	staging []*vector.Batch
	arenas  [][]byte
	enc     blockEncoder
	lz      *lz4.Compressor
	block   []byte // the block being written: encoded, then framed
	frame   []byte

	closed    bool
	closeErr  error
	committed bool
}

// stagingRows is the size of a full block, in rows. Readers decode a block
// into one batch, whose capacity is at least the default batch size.
const stagingRows = vector.DefaultBatchSize

// minStagingRows sizes a partition's first staging batch, so an exchange of
// a few rows (a small broadcast) does not pay for full-size vectors.
const minStagingRows = 64

// NewWriter opens P partition files under dir (staged as temp files until
// Commit).
func NewWriter(dir, shuffleID string, mapTask, numPartitions int, opts EncoderOptions) (*Writer, error) {
	w := &Writer{dir: dir, shuffle: shuffleID, mapTask: mapTask,
		PartBytes: make([]int64, numPartitions),
		staging:   make([]*vector.Batch, numPartitions),
		arenas:    make([][]byte, numPartitions),
		enc:       blockEncoder{opts: opts}}
	w.enc.counts = &w.EncCounts
	attempt := writerSeq.Add(1)
	for part := 0; part < numPartitions; part++ {
		final := partPath(dir, shuffleID, mapTask, part)
		tmp := fmt.Sprintf("%s.tmp-%d", final, attempt)
		f, err := os.Create(tmp)
		if err != nil {
			w.Abort()
			return nil, fault.ClassifyIO(fault.ShuffleWrite, err)
		}
		w.files = append(w.files, f)
		w.tmps = append(w.tmps, tmp)
		w.finals = append(w.finals, final)
	}
	return w, nil
}

func partPath(dir, shuffleID string, mapTask, part int) string {
	return filepath.Join(dir, fmt.Sprintf("shuffle-%s-m%d-p%d.bin", shuffleID, mapTask, part))
}

// WritePartition adds b's active rows to one partition's output. The rows
// are copied — b may be reused on return — and reach the partition's file
// with the block they complete.
func (w *Writer) WritePartition(part int, b *vector.Batch) error {
	n := b.NumActive()
	for lo := 0; lo < n; {
		st := w.staging[part]
		if st == nil || st.NumRows == st.Capacity() {
			// A partition's first rows, or a small staging batch that filled
			// up: size for what is arriving, at most one full block.
			held := 0
			if st != nil {
				held = st.NumRows
			}
			grown := vector.NewBatch(b.Schema, min(stagingRows, max(minStagingRows, 2*(held+n-lo))))
			if st != nil {
				st.GatherAppend(grown)
			}
			st = grown
			w.staging[part] = st
		}
		base := st.NumRows
		hi := min(n, lo+st.Capacity()-base)
		b.GatherRange(st, lo, hi)
		lo = hi
		w.arenas[part] = st.OwnStrings(base, w.arenas[part])
		if st.NumRows == stagingRows {
			if err := w.flush(part); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush writes one partition's staged rows as a checksummed block:
// [u32 checksum][LZ4 frame].
func (w *Writer) flush(part int) error {
	st := w.staging[part]
	if st == nil || st.NumRows == 0 {
		return nil
	}
	if err := fault.Hit(w.Ctx, fault.ShuffleWrite); err != nil {
		return err
	}
	if w.lz == nil {
		w.lz = new(lz4.Compressor)
	}
	w.block = w.enc.encodeBlock(w.block[:0], st)
	w.frame = w.lz.AppendFrame(append(w.frame[:0], 0, 0, 0, 0), w.block)
	binary.LittleEndian.PutUint32(w.frame, blockChecksum(w.frame[checksumLen:]))
	raw, framed, rows := int64(len(w.block)), int64(len(w.frame)), int64(st.NumRows)
	w.RawBytes += raw
	w.Rows += rows
	w.Bytes += framed
	w.PartBytes[part] += framed
	if w.Obs != nil {
		w.Obs.RawBytesWritten.Add(raw)
		w.Obs.BytesWritten.Add(framed)
		w.Obs.RowsWritten.Add(rows)
		w.Obs.BlocksWritten.Inc()
	}
	st.NumRows = 0
	w.arenas[part] = w.arenas[part][:0]
	if _, err := w.files[part].Write(w.frame); err != nil {
		return fault.ClassifyIO(fault.ShuffleWrite, err)
	}
	return nil
}

// checksumLen is the per-block checksum prefix size.
const checksumLen = 4

// Close writes every partition's last, partial block, closes all partition
// file handles and releases the staging memory, mirroring the per-writer
// encoding tallies into the metrics registry once. Close does NOT publish
// the output — call Commit (success) or Abort (failure). Idempotent: later
// calls return the first call's error.
func (w *Writer) Close() error {
	if w.closed {
		return w.closeErr
	}
	w.closed = true
	var first error
	for part, f := range w.files {
		if first == nil {
			first = w.flush(part)
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	w.staging, w.arenas, w.block, w.frame, w.enc, w.lz = nil, nil, nil, nil, blockEncoder{}, nil
	if w.Obs != nil {
		for i, n := range w.EncCounts {
			w.Obs.Encodings[i].Add(n)
		}
	}
	w.closeErr = first
	return first
}

// Commit closes (if needed) and atomically publishes every partition file
// by renaming its temp to the final path. Rename is atomic per file, so a
// concurrent reader sees either the old committed file or the new one,
// never a torn write. Exactly one attempt of a task should Commit (the
// scheduler/driver's commit guard); losers Abort. A writer whose Close
// failed — its last blocks may be missing — does not commit.
func (w *Writer) Commit() error {
	if err := w.Close(); err != nil {
		return fault.ClassifyIO(fault.ShuffleWrite, err)
	}
	if w.committed {
		return nil
	}
	for i, tmp := range w.tmps {
		if err := os.Rename(tmp, w.finals[i]); err != nil {
			return fault.ClassifyIO(fault.ShuffleWrite, err)
		}
	}
	w.committed = true
	return nil
}

// Abort drops whatever is staged, closes the files and removes the
// attempt's temp files. Safe on a partially constructed writer; never
// touches committed output.
func (w *Writer) Abort() {
	clear(w.staging)
	_ = w.Close()
	if w.committed {
		return
	}
	for _, tmp := range w.tmps {
		_ = os.Remove(tmp)
	}
}

// Reader streams one reduce partition across all map tasks, verifying the
// per-block checksum written by the Writer. Any integrity failure —
// missing partition file, truncated block, checksum mismatch, undecodable
// payload — surfaces as *CorruptBlockError naming the producing map task,
// which the driver uses for lineage recovery.
//
// A decoded batch's strings alias the reader's buffers and are valid until
// the next call to Next.
type Reader struct {
	schema  *types.Schema
	shuffle string
	part    int
	paths   []string
	data    []byte // the current partition file
	pending []byte // its blocks not yet decoded
	payload []byte // the current block, decompressed
	dec     blockDecoder
	file    int // index of the next file to open; pending is from file-1
	// Obs, when set, counts bytes read from shuffle files and corrupt
	// blocks detected.
	Obs *Metrics
	// Ctx, when set, bounds injected failpoint latency on the read site.
	Ctx context.Context
	// Site is the failpoint this reader hits per file open (defaults to
	// shuffle-read; broadcast readers use broadcast-fetch).
	Site fault.Site
}

// NewReader opens partition `part` written by mapTasks map tasks.
func NewReader(dir, shuffleID string, mapTasks, part int, schema *types.Schema) *Reader {
	r := &Reader{schema: schema, shuffle: shuffleID, part: part, Site: fault.ShuffleRead}
	for m := 0; m < mapTasks; m++ {
		r.paths = append(r.paths, partPath(dir, shuffleID, m, part))
	}
	return r
}

// corrupt builds the lineage-addressed corruption error for the file whose
// data is currently pending (or just failed to open) and counts it.
func (r *Reader) corrupt(reason string) error {
	if r.Obs != nil {
		r.Obs.BlocksCorrupt.Inc()
	}
	return &CorruptBlockError{
		Path:      r.paths[r.file-1],
		ShuffleID: r.shuffle,
		MapTask:   r.file - 1,
		Part:      r.part,
		Reason:    reason,
	}
}

// readFile reads the next partition file into r.data's storage.
func (r *Reader) readFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := int(info.Size())
	r.data = slices.Grow(r.data[:0], size)[:size]
	_, err = io.ReadFull(f, r.data)
	return err
}

// Next decodes the next block into dst; returns false at end of partition.
// Nothing in a block is trusted before its checksum has been verified over
// the frame's header and compressed bytes.
func (r *Reader) Next(dst *vector.Batch) (bool, error) {
	for {
		if len(r.pending) > 0 {
			if len(r.pending) < checksumLen {
				return false, r.corrupt(fmt.Sprintf("truncated block header: %d trailing bytes", len(r.pending)))
			}
			want := binary.LittleEndian.Uint32(r.pending)
			frame := r.pending[checksumLen:]
			n, err := lz4.FrameLen(frame)
			if err != nil {
				return false, r.corrupt(err.Error())
			}
			if got := blockChecksum(frame[:n]); got != want {
				return false, r.corrupt(fmt.Sprintf("checksum mismatch: stored %08x computed %08x", want, got))
			}
			if r.payload, r.pending, err = lz4.ReadFrame(r.payload, frame); err != nil {
				return false, r.corrupt(err.Error())
			}
			if err := r.dec.decodeBlock(r.payload, dst); err != nil {
				return false, r.corrupt(err.Error())
			}
			return true, nil
		}
		if r.file >= len(r.paths) {
			r.data, r.payload, r.dec = nil, nil, blockDecoder{}
			return false, nil
		}
		if err := fault.Hit(r.Ctx, r.Site); err != nil {
			return false, err
		}
		err := r.readFile(r.paths[r.file])
		r.file++
		if err != nil {
			if os.IsNotExist(err) {
				// A committed map task publishes every partition file
				// (possibly empty), so a missing file means lost output —
				// recoverable by re-running the producer.
				return false, r.corrupt("missing partition file")
			}
			return false, fault.ClassifyIO(r.Site, err)
		}
		if r.Obs != nil {
			r.Obs.BytesRead.Add(int64(len(r.data)))
		}
		r.pending = r.data
	}
}

// Manager tracks shuffle outputs within a process (the scheduler's shuffle
// metadata service).
type Manager struct {
	Dir string

	mu     sync.Mutex
	counts map[string]int // shuffleID -> number of map tasks registered
}

// NewManager creates a manager rooted at dir.
func NewManager(dir string) *Manager {
	return &Manager{Dir: dir, counts: make(map[string]int)}
}

// RegisterMap records that a map task finished writing shuffleID.
func (m *Manager) RegisterMap(shuffleID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts[shuffleID]++
}

// MapTasks returns how many map tasks wrote shuffleID.
func (m *Manager) MapTasks(shuffleID string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[shuffleID]
}

// RowWriter is the baseline row-serialized shuffle: each row writes per-
// value tagged bytes (the Java serialization analogue); blocks are LZ4-
// framed like the columnar writer so the comparison isolates the encoding.
type RowWriter struct {
	dir      string
	shuffle  string
	mapTask  int
	files    []*os.File
	bufs     [][]byte
	RawBytes int64
	Bytes    int64
	Rows     int64
}

// NewRowWriter opens P partition files for the row format.
func NewRowWriter(dir, shuffleID string, mapTask, numPartitions int) (*RowWriter, error) {
	w := &RowWriter{dir: dir, shuffle: shuffleID, mapTask: mapTask}
	for part := 0; part < numPartitions; part++ {
		f, err := os.Create(partPath(dir, shuffleID, mapTask, part))
		if err != nil {
			w.Close()
			return nil, err
		}
		w.files = append(w.files, f)
		w.bufs = append(w.bufs, nil)
	}
	return w, nil
}

const rowBlockFlush = 1 << 18

// WriteRow serializes one boxed row into its partition buffer.
func (w *RowWriter) WriteRow(part int, row []any, schema *types.Schema) error {
	buf := w.bufs[part]
	for c, v := range row {
		if v == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		switch schema.Field(c).Type.ID {
		case types.Bool:
			b := byte(0)
			if v.(bool) {
				b = 1
			}
			buf = append(buf, b)
		case types.Int32, types.Date:
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(v.(int32)))
			buf = append(buf, b[:]...)
		case types.Int64, types.Timestamp:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(v.(int64)))
			buf = append(buf, b[:]...)
		case types.Float64:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.(float64)))
			buf = append(buf, b[:]...)
		case types.Decimal:
			d := v.(types.Decimal128)
			var b [16]byte
			binary.LittleEndian.PutUint64(b[:8], d.Lo)
			binary.LittleEndian.PutUint64(b[8:], uint64(d.Hi))
			buf = append(buf, b[:]...)
		case types.String:
			s := v.(string)
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(len(s)))
			buf = append(buf, b[:]...)
			buf = append(buf, s...)
		}
	}
	w.Rows++
	w.bufs[part] = buf
	if len(buf) >= rowBlockFlush {
		return w.flush(part)
	}
	return nil
}

func (w *RowWriter) flush(part int) error {
	buf := w.bufs[part]
	if len(buf) == 0 {
		return nil
	}
	w.RawBytes += int64(len(buf))
	framed := lz4.AppendFrame(nil, buf)
	w.Bytes += int64(len(framed))
	w.bufs[part] = buf[:0]
	_, err := w.files[part].Write(framed)
	return err
}

// Close flushes all buffers and closes the files.
func (w *RowWriter) Close() error {
	var first error
	for part := range w.files {
		if w.files[part] == nil {
			continue
		}
		if err := w.flush(part); err != nil && first == nil {
			first = err
		}
		if err := w.files[part].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
