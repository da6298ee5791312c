package shuffle

import (
	"os"
	"sync"

	"photon/internal/fault"
	"photon/internal/mem"
	"photon/internal/types"
	"photon/internal/vector"
)

// QueryDir is one query's private spill/shuffle directory under a base
// directory ("" = the system temp directory). The directory is made by the
// first file that goes into it, so a query that writes no file makes none.
type QueryDir struct {
	base string

	mu      sync.Mutex
	path    string // "" until made
	removed bool
}

// NewQueryDir names no directory yet; Ensure makes it.
func NewQueryDir(base string) *QueryDir { return &QueryDir{base: base} }

// Ensure returns the directory, making it on the first call.
func (d *QueryDir) Ensure() (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.path != "" {
		return d.path, nil
	}
	if d.removed {
		return "", os.ErrClosed
	}
	pattern := "query-*"
	if d.base == "" {
		pattern = "photon-query-*"
	}
	var err error
	d.path, err = os.MkdirTemp(d.base, pattern)
	return d.path, err
}

// Path returns the directory if it has been made, "" otherwise.
func (d *QueryDir) Path() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.path
}

// Remove deletes the directory and everything in it, if it was made; it is
// not made afterwards.
func (d *QueryDir) Remove() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.removed = true
	if d.path != "" {
		_ = os.RemoveAll(d.path)
		d.path = ""
	}
}

// Store is one query's exchange storage: the map outputs, or parts of them,
// that are not files. Every task runs in this process, so an exchange has to
// be a file only when it is too big to keep. A map task's Writer stages rows
// in dense batches either way; a store's writer keeps the batch where a file
// writer encodes it, whenever the exchange is a broadcast (built once, read
// by every consumer task, bounded by the planner's broadcast ceiling) or a
// hash partition ends before its first block is full. A hash partition that
// fills a block opens its file then and streams every block through it: the
// block is the size at which the file path's per-block costs are amortised,
// and up to which the rows are in memory anyway.
//
// Commit publishes an attempt's batches under (exchange, map task); they are
// immutable from then on, and readers share them for as long as the store is
// open — the query's whole run. A losing attempt's batches are dropped by its
// Abort; a lineage re-run's replace the output they repair. A reader that
// finds neither an entry nor a file reports CorruptBlockError, as for a lost
// file.
//
// Kept bytes are reserved, if free, on the query's memory scope under one
// consumer, "exchange". Its Spill writes whole published outputs to their
// partition files in the file writer's block format — what a writer does
// with its own output when the bytes for its next batch are not free.
type Store struct {
	dir  *QueryDir
	mem  *mem.Manager
	opts EncoderOptions // of every block that does go to a file
	obs  *Metrics       // nil when uninstrumented

	// spillMu serializes Spill and publish, so an output is written out or
	// replaced, never both at once. mu guards outs and the outputs in it; it
	// is held across no file I/O and no reservation.
	spillMu sync.Mutex
	mu      sync.Mutex
	outs    map[outKey]*mapOutput
	spilled int64
}

type outKey struct {
	shuffle string
	mapTask int
}

// mapOutput is what the store holds of one committed map task's output.
type mapOutput struct {
	key   outKey
	parts [][]*vector.Batch // per partition; none for a partition in its file
	filed []bool            // per partition: in its file
	bytes int64             // reserved for parts
}

// NewStore makes a query's store. Files go under dir, encoded per opts; kept
// bytes are reserved on m.
func NewStore(dir *QueryDir, m *mem.Manager, opts EncoderOptions, obs *Metrics) *Store {
	return &Store{dir: dir, mem: m, opts: opts, obs: obs, outs: map[outKey]*mapOutput{}}
}

// NewWriter makes the writer of one map task's hash-partitioned output.
func (s *Store) NewWriter(shuffleID string, mapTask, numPartitions int) *Writer {
	w := newWriter(shuffleID, mapTask, numPartitions, s.opts)
	w.store = s
	w.held = make([][]*vector.Batch, numPartitions)
	w.Obs = s.obs
	return w
}

// NewBroadcastWriter makes the writer of one map task's broadcast output: a
// single partition kept whole.
func (s *Store) NewBroadcastWriter(shuffleID string, mapTask int) *Writer {
	w := s.NewWriter(shuffleID, mapTask, 1)
	w.keepFull = true
	return w
}

// NewReader opens partition part of an exchange written by mapTasks tasks.
func (s *Store) NewReader(shuffleID string, mapTasks, part int, schema *types.Schema) *Reader {
	r := NewReader("", shuffleID, mapTasks, part, schema)
	r.store = s
	r.Obs = s.obs
	return r
}

// NewBroadcastReader opens the union of every map task's broadcast output.
func (s *Store) NewBroadcastReader(shuffleID string, mapTasks int, schema *types.Schema) *Reader {
	r := s.NewReader(shuffleID, mapTasks, 0, schema)
	r.Site = fault.BroadcastFetch
	return r
}

// reserve takes n bytes for a batch a writer wants kept, if they are free:
// an exchange is kept in memory because the memory is there, and pushes no
// operator's state out to stay. false sends the writer's output to files.
func (s *Store) reserve(n int64) bool {
	if !s.mem.TryReserve(s, n) {
		return false
	}
	if s.obs != nil {
		s.obs.HeldBytes.Add(n)
	}
	return true
}

func (s *Store) release(n int64) {
	if n == 0 {
		return
	}
	s.mem.Release(s, n)
	if s.obs != nil {
		s.obs.HeldBytes.Add(-n)
	}
}

// publish makes a committed writer's kept batches the map task's output,
// taking over their reservation, and drops the output it replaces, if any.
func (s *Store) publish(w *Writer) {
	out := &mapOutput{key: outKey{w.shuffle, w.mapTask}, parts: w.held,
		filed: make([]bool, len(w.files)), bytes: w.MemBytes}
	for part, f := range w.files {
		out.filed[part] = f != nil
	}
	w.held = nil
	if s.obs != nil {
		s.obs.MemRows.Add(w.MemRows)
		s.obs.MemBytes.Add(w.MemBytes)
	}
	s.spillMu.Lock()
	s.mu.Lock()
	old := s.outs[out.key]
	s.outs[out.key] = out
	s.mu.Unlock()
	s.spillMu.Unlock()
	if old != nil {
		s.release(old.bytes)
	}
}

// lookup returns the batches held of one partition of a map task's output;
// false when the partition is in its file, or the task has no output here.
func (s *Store) lookup(shuffleID string, mapTask, part int) ([]*vector.Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.outs[outKey{shuffleID, mapTask}]
	if out == nil || part >= len(out.parts) || out.filed[part] {
		return nil, false
	}
	return out.parts[part], true
}

// Name implements mem.Consumer.
func (s *Store) Name() string { return "exchange" }

// Spill implements mem.Consumer: it writes published outputs to their
// partition files, largest first, until need bytes are free.
func (s *Store) Spill(need int64) (int64, error) {
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	var freed int64
	for freed < need {
		var out *mapOutput
		s.mu.Lock()
		for _, o := range s.outs {
			if o.bytes > 0 && (out == nil || o.bytes > out.bytes) {
				out = o
			}
		}
		s.mu.Unlock()
		if out == nil {
			break
		}
		if err := s.writeOut(out); err != nil {
			return freed, err
		}
		s.mu.Lock()
		for part, bs := range out.parts {
			// An empty partition stays an empty entry: no file to make.
			if len(bs) > 0 {
				out.parts[part], out.filed[part] = nil, true
			}
		}
		n := out.bytes
		out.bytes = 0
		s.spilled += n
		s.mu.Unlock()
		s.release(n)
		freed += n
	}
	return freed, nil
}

// writeOut writes the batches of out to their partitions' files with a file
// writer's own routine, leaving out as it is: readers find the batches until
// the files are in place.
func (s *Store) writeOut(out *mapOutput) error {
	w := s.NewWriter(out.key.shuffle, out.key.mapTask, len(out.parts))
	w.held = append([][]*vector.Batch(nil), out.parts...)
	err := w.spill()
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = w.rename()
	}
	if err != nil {
		w.held = nil
		w.Abort()
	}
	return err
}

// Held reports what the store holds now: published batches, and the bytes
// reserved for them and for running writers'.
func (s *Store) Held() (batches int, bytes int64) {
	s.mu.Lock()
	for _, out := range s.outs {
		for _, bs := range out.parts {
			batches += len(bs)
		}
	}
	s.mu.Unlock()
	return batches, s.mem.UsedBy(s)
}

// SpilledBytes reports the reserved bytes Spill has written out.
func (s *Store) SpilledBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spilled
}

// Close drops every output and gives back what is still reserved for them.
// The query's tasks have finished: nothing reads or writes the store now.
// A nil store, that of a job without exchanges, has nothing to close.
func (s *Store) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	var bytes int64
	for _, out := range s.outs {
		bytes += out.bytes
	}
	s.outs = map[outKey]*mapOutput{}
	s.mu.Unlock()
	s.release(bytes)
}
