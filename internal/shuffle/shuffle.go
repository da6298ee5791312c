package shuffle

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"

	"photon/internal/fault"
	"photon/internal/kernels"
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
	keys          []*vector.Vector
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
	}
	if p.parts == nil {
		p.parts = make([][]int32, p.NumPartitions)
	}
	for i := range p.parts {
		p.parts[i] = p.parts[i][:0]
	}
	p.keys = p.keys[:0]
	for _, c := range p.KeyCols {
		p.keys = append(p.keys, b.Vecs[c])
	}
	p.lanes = kernels.HashKeys(p.keys, b.Sel, n, p.hashes, p.lanes)
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

// Writer writes one map task's output: one file per reduce partition, each
// a sequence of checksummed encoded blocks. Metrics report encoded and
// stored volume (Table 1's "Data Size").
//
// Blocks are not compressed: a file is written and read back by one process
// within one query, through the page cache, where LZ4 costs CPU and saves no
// transfer. Parquet, which outlives the query, compresses.
//
// Rows are staged per partition in a dense batch and leave as one block when
// the batch is full (and at Close), so a block's size does not depend on how
// the map side's batches happened to split: reducers receive full batches,
// and the per-block costs — encoding decisions, checksum, write — are paid
// once per stagingRows rows.
//
// Output is staged under attempt-unique temp names; Commit atomically
// renames every partition file into its final place. Concurrent attempts of
// the same task (speculative duplicates, lineage-recovery re-runs) never
// interleave bytes, and a reader either sees a complete committed file or
// none.
//
// A writer made by a Store keeps a staged batch as it is, for the store,
// where NewWriter's would encode it: a partition that never fills a block
// has no file, and a broadcast has none at all while its reservations hold
// (see Store). Both kinds stage rows, count them and fire the shuffle-write
// failpoint in the same code.
type Writer struct {
	dir      string // "" until a store writer's first file
	shuffle  string
	mapTask  int
	attempt  int64
	files    []*os.File // per partition; nil while the partition has no file
	tmps     []string   // temp paths (staged output); "" with no file
	RawBytes int64
	Bytes    int64
	Rows     int64
	// MemRows and MemBytes are the part of the output kept for the store
	// rather than written to a file; MemBytes is reserved on its manager.
	MemRows, MemBytes int64
	// PartRows records rows per reduce partition — the runtime statistic
	// AQE-style partition coalescing reads at the stage boundary (§5.5). Rows
	// mean the same in a file and in memory; encoded bytes do not.
	PartRows []int64
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
	enc     BlockEncoder
	frame   []byte // the block being written: header, then encoded rows

	// Store writers only: the batches kept for the store, per partition, and
	// whether a full block is kept too (a broadcast) or opens the partition's
	// file (a hash partition).
	store    *Store
	keepFull bool
	held     [][]*vector.Batch

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
	w := newWriter(shuffleID, mapTask, numPartitions, opts)
	w.dir = dir
	for part := 0; part < numPartitions; part++ {
		if err := w.open(part); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w, nil
}

func newWriter(shuffleID string, mapTask, numPartitions int, opts EncoderOptions) *Writer {
	w := &Writer{shuffle: shuffleID, mapTask: mapTask, attempt: writerSeq.Add(1),
		files:    make([]*os.File, numPartitions),
		tmps:     make([]string, numPartitions),
		PartRows: make([]int64, numPartitions),
		staging:  make([]*vector.Batch, numPartitions),
		arenas:   make([][]byte, numPartitions),
		enc:      BlockEncoder{opts: opts}}
	w.enc.counts = &w.EncCounts
	return w
}

// open creates one partition's temp file; a store writer's first file makes
// the query's directory.
func (w *Writer) open(part int) error {
	if w.store != nil && w.dir == "" {
		dir, err := w.store.dir.Ensure()
		if err != nil {
			return fault.ClassifyIO(fault.ShuffleWrite, err)
		}
		w.dir = dir
	}
	tmp := fmt.Sprintf("%s.tmp-%d", partPath(w.dir, w.shuffle, w.mapTask, part), w.attempt)
	f, err := os.Create(tmp)
	if err != nil {
		return fault.ClassifyIO(fault.ShuffleWrite, err)
	}
	w.files[part], w.tmps[part] = f, tmp
	return nil
}

func partPath(dir, shuffleID string, mapTask, part int) string {
	return filepath.Join(dir, fmt.Sprintf("shuffle-%s-m%d-p%d.bin", shuffleID, mapTask, part))
}

// WritePartition adds b's active rows to one partition's output. The rows
// are copied — b may be reused on return — and leave staging with the block
// they complete.
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
			if err := w.emit(part, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// emit moves one partition's staged rows out of staging: into the store —
// the partition's last block when it has no file, any block of a broadcast —
// or, encoded, into the partition's file. A hash partition's file is opened
// by the first block it fills.
func (w *Writer) emit(part int, last bool) error {
	st := w.staging[part]
	if st == nil || st.NumRows == 0 {
		return nil
	}
	if err := fault.Hit(w.Ctx, fault.ShuffleWrite); err != nil {
		return err
	}
	rows := int64(st.NumRows)
	w.Rows += rows
	w.PartRows[part] += rows
	if w.Obs != nil {
		w.Obs.RowsWritten.Add(rows)
	}
	if w.files[part] == nil { // a store writer's partition with no file yet
		if last || w.keepFull {
			if n := heldBytes(st, w.arenas[part]); w.store.reserve(n) {
				// The batch and its strings now belong to the store's readers.
				w.held[part] = append(w.held[part], st)
				w.staging[part], w.arenas[part] = nil, nil
				w.MemRows += rows
				w.MemBytes += n
				return nil
			}
			// No memory for it: the output goes to files, what was kept first.
			if err := w.spill(); err != nil {
				return err
			}
			w.store.release(w.MemBytes)
			w.MemRows, w.MemBytes = 0, 0
		}
		if w.files[part] == nil {
			if err := w.open(part); err != nil {
				return err
			}
		}
	}
	err := w.writeBlock(part, st)
	st.NumRows = 0
	w.arenas[part] = w.arenas[part][:0]
	return err
}

// heldBytes is what keeping a staged batch keeps alive: its vectors at their
// capacity, and its strings.
func heldBytes(b *vector.Batch, arena []byte) int64 {
	n := int64(len(arena))
	for _, v := range b.Vecs {
		width := v.Type.FixedWidth()
		if width == 0 {
			width = 24 // a slice header per string
		}
		n += int64(width+1) * int64(v.Capacity())
	}
	return n
}

// spill writes the batches kept for the store to their partitions' files,
// opening those: a map output's in-memory part, whole. A reservation that
// fails does this to its writer's output, Store.Spill to published ones.
func (w *Writer) spill() error {
	for part, bs := range w.held {
		if len(bs) > 0 && w.files[part] == nil {
			if err := w.open(part); err != nil {
				return err
			}
		}
		for _, b := range bs {
			if err := w.writeBlock(part, b); err != nil {
				return err
			}
		}
		w.held[part] = nil
	}
	return nil
}

// writeBlock writes b to the partition's file as one block.
func (w *Writer) writeBlock(part int, b *vector.Batch) error {
	w.frame = w.enc.AppendBlock(w.frame[:0], b)
	stored := int64(len(w.frame))
	w.RawBytes += stored - BlockHeader
	w.Bytes += stored
	if w.Obs != nil {
		w.Obs.RawBytesWritten.Add(stored - BlockHeader)
		w.Obs.BytesWritten.Add(stored)
		w.Obs.BlocksWritten.Inc()
	}
	if _, err := w.files[part].Write(w.frame); err != nil {
		return fault.ClassifyIO(fault.ShuffleWrite, err)
	}
	return nil
}

// Close moves every partition's last, partial block out of staging, closes
// all partition file handles and releases the staging memory, mirroring the
// per-writer encoding tallies into the metrics registry once. Close does NOT
// publish the output — call Commit (success) or Abort (failure). Idempotent:
// later calls return the first call's error.
func (w *Writer) Close() error {
	if w.closed {
		return w.closeErr
	}
	w.closed = true
	var first error
	for part := range w.staging {
		if first == nil {
			first = w.emit(part, true)
		}
	}
	for _, f := range w.files {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	w.staging, w.arenas, w.frame, w.enc = nil, nil, nil, BlockEncoder{}
	if w.Obs != nil {
		for i, n := range w.EncCounts {
			w.Obs.Encodings[i].Add(n)
		}
	}
	w.closeErr = first
	return first
}

// Commit closes (if needed) and atomically publishes the output: every
// partition file by renaming its temp to the final path, then what the store
// keeps. Rename is atomic per file, so a concurrent reader sees either the
// old committed file or the new one, never a torn write. Exactly one attempt
// of a task should Commit (the scheduler/driver's commit guard); losers
// Abort. A writer whose Close failed — its last blocks may be missing — does
// not commit.
func (w *Writer) Commit() error {
	if err := w.Close(); err != nil {
		return fault.ClassifyIO(fault.ShuffleWrite, err)
	}
	if w.committed {
		return nil
	}
	if err := w.rename(); err != nil {
		return err
	}
	if w.store != nil {
		w.store.publish(w)
	}
	w.committed = true
	return nil
}

// rename moves every partition file the writer opened to its final path.
func (w *Writer) rename() error {
	for part, tmp := range w.tmps {
		if tmp == "" {
			continue
		}
		if err := os.Rename(tmp, partPath(w.dir, w.shuffle, w.mapTask, part)); err != nil {
			return fault.ClassifyIO(fault.ShuffleWrite, err)
		}
	}
	return nil
}

// Abort drops whatever is staged or kept for the store, closes the files and
// removes the attempt's temp files. Safe on a partially constructed writer;
// never touches committed output.
func (w *Writer) Abort() {
	w.staging = nil
	_ = w.Close()
	if w.committed {
		return
	}
	for _, tmp := range w.tmps {
		if tmp != "" {
			_ = os.Remove(tmp)
		}
	}
	if w.store != nil {
		w.store.release(w.MemBytes)
		w.held, w.MemBytes, w.MemRows = nil, 0, 0
	}
}

// Reader streams one reduce partition across all map tasks, verifying the
// per-block checksum written by the Writer. Any integrity failure —
// missing partition file, truncated block, checksum mismatch, undecodable
// payload — surfaces as *CorruptBlockError naming the producing map task,
// which the driver uses for lineage recovery.
//
// A file is read one block at a time into one buffer and decoded in place: a
// decoded batch's strings alias the reader's buffers and are valid until the
// next call to Next. The file is open while it has blocks left to read. A
// store's reader yields what the store holds of a map output as it is
// stored, and reads the rest from its files.
type Reader struct {
	schema   *types.Schema
	dir      string
	shuffle  string
	part     int
	mapTasks int
	store    *Store          // nil: every map output is a file under dir
	held     []*vector.Batch // the store's batches of the current map output, not yet returned
	path     string          // the current partition file
	f        *os.File        // open while the file has blocks left
	off      int64           // where in it the next block starts
	size     int64           // its size
	buf      []byte          // the current block, header included
	dec      BlockDecoder
	file     int // index of the next map output to open; f and held are from file-1
	// Obs, when set, counts bytes read from shuffle files and corrupt
	// blocks detected.
	Obs *Metrics
	// Ctx, when set, bounds injected failpoint latency on the read site.
	Ctx context.Context
	// Site is the failpoint this reader hits per map output opened (defaults
	// to shuffle-read; broadcast readers use broadcast-fetch).
	Site fault.Site
}

// NewReader opens partition `part` written by mapTasks map tasks.
func NewReader(dir, shuffleID string, mapTasks, part int, schema *types.Schema) *Reader {
	return &Reader{schema: schema, dir: dir, shuffle: shuffleID, part: part, mapTasks: mapTasks,
		Site: fault.ShuffleRead}
}

// openFiles counts the partition files readers have opened and not closed.
var openFiles atomic.Int64

// OpenFiles returns the number of partition files readers hold open.
func OpenFiles() int64 { return openFiles.Load() }

// corrupt builds the lineage-addressed corruption error for the file being
// read (or that just failed to open) and counts it.
func (r *Reader) corrupt(reason string) error {
	if r.Obs != nil {
		r.Obs.BlocksCorrupt.Inc()
	}
	return &CorruptBlockError{
		Path:      r.path,
		ShuffleID: r.shuffle,
		MapTask:   r.file - 1,
		Part:      r.part,
		Reason:    reason,
	}
}

// Next decodes the next block into dst; returns false at end of partition.
// Nothing in a block but its length, checked against the file's size, is
// trusted before its checksum has been verified. (A store's reader copies a
// batch the store holds; NextBatch hands it over as it is.)
func (r *Reader) Next(dst *vector.Batch) (bool, error) {
	b, err := r.NextBatch(func() *vector.Batch { return dst })
	if b != nil && b != dst {
		b.GatherInto(dst)
	}
	return b != nil, err
}

// NextBatch returns the partition's next batch, nil at its end: a batch the
// store holds — shared with every other reader of it, so not to be written
// to — or the next file block, decoded into the batch decodeInto returns.
func (r *Reader) NextBatch(decodeInto func() *vector.Batch) (*vector.Batch, error) {
	for {
		if len(r.held) > 0 {
			b := r.held[0]
			r.held = r.held[1:]
			return b, nil
		}
		if r.f != nil {
			b, err := r.readBlock(decodeInto)
			if err != nil {
				r.Close()
			}
			return b, err
		}
		if r.file >= r.mapTasks {
			r.buf, r.dec = nil, BlockDecoder{}
			return nil, nil
		}
		if err := fault.Hit(r.Ctx, r.Site); err != nil {
			return nil, err
		}
		dir := r.dir
		if r.store != nil {
			held, ok := r.store.lookup(r.shuffle, r.file, r.part)
			if ok {
				r.held = held
				r.file++
				continue
			}
			dir = r.store.dir.Path() // "" while the query has no file: nothing to find
		}
		r.path = partPath(dir, r.shuffle, r.file, r.part)
		r.file++
		if err := r.open(); err != nil {
			return nil, err
		}
	}
}

// open opens the partition file at r.path; an empty one is closed at once.
func (r *Reader) open() error {
	f, err := os.Open(r.path)
	if os.IsNotExist(err) {
		// A committed map task publishes every partition (a file, or an
		// entry in the store, possibly empty), so finding neither means lost
		// output — recoverable by re-running the producer.
		return r.corrupt("missing partition file")
	} else if err != nil {
		return fault.ClassifyIO(r.Site, err)
	}
	openFiles.Add(1)
	r.f, r.off = f, 0
	info, err := f.Stat()
	if err != nil || info.Size() == 0 {
		r.Close()
		return fault.ClassifyIO(r.Site, err)
	}
	r.size = info.Size()
	return nil
}

// readBlock reads the block at r.off — its header, then the length the
// header gives — and verifies and decodes it in place. The file is closed
// after its last block.
func (r *Reader) readBlock(decodeInto func() *vector.Batch) (*vector.Batch, error) {
	if err := r.fill(0, BlockHeader); err != nil {
		return nil, err
	}
	n := BlockSize(r.buf)
	if err := r.fill(BlockHeader, n); err != nil {
		return nil, err
	}
	if r.off += int64(n); r.off == r.size {
		r.Close()
	}
	if r.Obs != nil {
		r.Obs.BytesRead.Add(int64(n))
	}
	dst := decodeInto()
	if err := r.dec.Decode(r.buf, dst); err != nil { // io.EOF too: an exchange file holds no empty block
		return nil, r.corrupt(err.Error())
	}
	return dst, nil
}

// fill reads bytes [from, to) of the block at r.off into r.buf, after the
// from bytes it holds. A block that would end past the end of the file is
// corruption, found before any buffer is sized for it; a buffer too small is
// replaced by one of exactly to bytes, so none outgrows the largest block.
func (r *Reader) fill(from, to int) error {
	if end := r.off + int64(to); end > r.size {
		return r.corrupt(fmt.Sprintf("block ends at byte %d of a %d-byte file", end, r.size))
	}
	if cap(r.buf) < to {
		r.buf = append(make([]byte, 0, to), r.buf[:from]...)
	}
	r.buf = r.buf[:to]
	if _, err := r.f.ReadAt(r.buf[from:], r.off+int64(from)); errors.Is(err, io.EOF) {
		return r.corrupt("file shorter than when it was opened")
	} else if err != nil {
		return fault.ClassifyIO(r.Site, err)
	}
	return nil
}

// Close releases the partition file the reader has open, if any, for a
// consumer that stops before the partition's end. Safe to call at any point.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	openFiles.Add(-1)
	return err
}

// RowWriter is the baseline row-serialized shuffle: each row writes per-
// value tagged bytes (the Java serialization analogue); blocks are framed
// as the columnar writer's are, so the comparison isolates the encoding.
type RowWriter struct {
	dir      string
	shuffle  string
	mapTask  int
	files    []*os.File
	bufs     [][]byte // per partition: the block being filled, header first
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
		w.bufs = append(w.bufs, make([]byte, BlockHeader))
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
	if len(buf) == BlockHeader {
		return nil
	}
	sealBlock(buf)
	w.RawBytes += int64(len(buf) - BlockHeader)
	w.Bytes += int64(len(buf))
	w.bufs[part] = buf[:BlockHeader]
	_, err := w.files[part].Write(buf)
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
