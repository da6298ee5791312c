package shuffle

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"photon/internal/fault"
	"photon/internal/mem"
	"photon/internal/obs"
	"photon/internal/vector"
)

// seqRows makes n rows (k, "row-k") counting from lo.
func seqRows(lo, n int) [][]any {
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{int64(lo + i), fmt.Sprintf("row-%d", lo+i)}
	}
	return rows
}

// writeRows feeds rows to one partition in 500-row batches whose strings the
// caller overwrites afterwards, as an operator refilling its batch would.
func writeRows(t *testing.T, w *Writer, part int, rows [][]any) {
	t.Helper()
	for lo := 0; lo < len(rows); lo += 500 {
		b := mkBatch(shuffleSchema(), rows[lo:min(lo+500, len(rows))])
		if err := w.WritePartition(part, b); err != nil {
			t.Fatal(err)
		}
		for _, s := range b.Vecs[1].Str {
			clear(s)
		}
	}
}

// drain reads a partition to its end: the rows, and how many of the batches
// were the store's own rather than decoded file blocks.
func drain(t *testing.T, r *Reader) (rows [][]any, shared int) {
	t.Helper()
	dst := vector.NewBatch(shuffleSchema(), stagingRows)
	for {
		b, err := r.NextBatch(func() *vector.Batch { return dst })
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return rows, shared
		}
		if b != dst {
			shared++
		}
		rows = append(rows, b.Rows()...)
	}
}

func testStore(t *testing.T, limit int64) (*Store, *QueryDir, string) {
	t.Helper()
	base := t.TempDir()
	dir := NewQueryDir(base)
	t.Cleanup(dir.Remove)
	return NewStore(dir, mem.NewManager(limit), EncoderOptions{Adaptive: true}, NewMetrics(obs.NewRegistry())), dir, base
}

func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// A hash partition that ends inside its first block is handed over in
// memory, one that fills a block goes through its file from that block on,
// and an untouched one is an empty entry. Only the file made a directory.
func TestStoreHashPartitionsSwitchAtTheBlock(t *testing.T) {
	s, dir, base := testStore(t, 0)
	small, big := seqRows(0, 700), seqRows(10000, stagingRows+300)
	w := s.NewWriter("x1", 0, 3)
	writeRows(t, w, 0, small)
	if dir.Path() != "" {
		t.Fatal("a partition short of a block made the directory")
	}
	writeRows(t, w, 1, big)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if files := dirEntries(t, dir.Path()); len(files) != 1 || filepath.Base(files[0]) != "shuffle-x1-m0-p1.bin" {
		t.Fatalf("files = %v, want the one partition that filled a block", files)
	}
	if w.Rows != int64(len(small)+len(big)) || w.MemRows != int64(len(small)) ||
		!reflect.DeepEqual(w.PartRows, []int64{int64(len(small)), int64(len(big)), 0}) {
		t.Fatalf("rows %d mem %d per partition %v", w.Rows, w.MemRows, w.PartRows)
	}
	if w.Bytes == 0 || s.obs.BytesWritten.Load() != w.Bytes || s.obs.RowsWritten.Load() != w.Rows ||
		s.obs.MemRows.Load() != w.MemRows || s.obs.MemBytes.Load() != w.MemBytes {
		t.Fatalf("metrics disagree with the writer: %+v", w)
	}
	for part, want := range [][][]any{small, big, nil} {
		got, shared := drain(t, s.NewReader("x1", 1, part, shuffleSchema()))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("partition %d: %d rows, want %d", part, len(got), len(want))
		}
		if wantShared := map[int]int{0: 1}[part]; shared != wantShared {
			t.Fatalf("partition %d: %d batches came from memory, want %d", part, shared, wantShared)
		}
	}
	if batches, bytes := s.Held(); batches != 1 || bytes != w.MemBytes || bytes == 0 {
		t.Fatalf("store holds %d batches, %d bytes; writer reserved %d", batches, bytes, w.MemBytes)
	}
	s.Close()
	if batches, bytes := s.Held(); batches != 0 || bytes != 0 || s.obs.HeldBytes.Load() != 0 {
		t.Fatalf("closed store holds %d batches, %d bytes", batches, bytes)
	}
	if left := dirEntries(t, base); len(left) != 1 {
		t.Fatalf("%v under the base directory", left)
	}
	dir.Remove()
	if left := dirEntries(t, base); len(left) != 0 {
		t.Fatalf("%v left after Remove", left)
	}
}

// A broadcast is kept whole, full blocks too, and every consumer reads the
// same batches; no file, no directory. Plain Next copies a held batch.
func TestStoreBroadcastKeptWhole(t *testing.T) {
	s, dir, base := testStore(t, 0)
	rows := seqRows(0, 2*stagingRows+50)
	w := s.NewBroadcastWriter("b1", 0)
	writeRows(t, w, 0, rows)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// A second map task with nothing to say.
	if err := s.NewBroadcastWriter("b1", 1).Commit(); err != nil {
		t.Fatal(err)
	}
	var first []*vector.Batch
	for task := 0; task < 3; task++ {
		r := s.NewBroadcastReader("b1", 2, shuffleSchema())
		var got [][]any
		var batches []*vector.Batch
		for {
			b, err := r.NextBatch(func() *vector.Batch { t.Fatal("decoded a block"); return nil })
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			batches = append(batches, b)
			got = append(got, b.Rows()...)
		}
		if !reflect.DeepEqual(got, rows) || len(batches) != 3 {
			t.Fatalf("task %d read %d rows in %d batches", task, len(got), len(batches))
		}
		if first == nil {
			first = batches
		} else if !reflect.DeepEqual(first, batches) {
			t.Fatal("consumers were not handed the same batches")
		}
	}
	dst := vector.NewBatch(shuffleSchema(), stagingRows)
	if ok, err := s.NewBroadcastReader("b1", 2, shuffleSchema()).Next(dst); !ok || err != nil ||
		!reflect.DeepEqual(dst.Rows(), rows[:stagingRows]) || dst.Vecs[0] == first[0].Vecs[0] {
		t.Fatalf("Next did not copy the first held batch: ok=%v err=%v", ok, err)
	}
	if dir.Path() != "" || len(dirEntries(t, base)) != 0 || w.Bytes != 0 || w.MemRows != int64(len(rows)) {
		t.Fatalf("broadcast touched the disk: dir %q bytes %d", dir.Path(), w.Bytes)
	}
}

// Exactly one attempt's batches are published: a loser's Abort drops its own
// and gives back their reservation; a lineage re-run's Commit replaces the
// output and the store lets go of the old one.
func TestStoreCommitOnceAndReplace(t *testing.T) {
	s, _, _ := testStore(t, 0)
	winner := s.NewWriter("x", 0, 1)
	loser := s.NewWriter("x", 0, 1)
	writeRows(t, winner, 0, seqRows(0, 10))
	writeRows(t, loser, 0, seqRows(100, 900))
	if err := loser.Close(); err != nil {
		t.Fatal(err)
	}
	if _, bytes := s.Held(); bytes != loser.MemBytes || bytes == 0 {
		t.Fatalf("closed loser reserved %d, store says %d", loser.MemBytes, bytes)
	}
	if err := winner.Commit(); err != nil {
		t.Fatal(err)
	}
	loser.Abort()
	if batches, bytes := s.Held(); batches != 1 || bytes != winner.MemBytes {
		t.Fatalf("store holds %d batches, %d bytes; the winner's are 1, %d", batches, bytes, winner.MemBytes)
	}
	if got, _ := drain(t, s.NewReader("x", 1, 0, shuffleSchema())); !reflect.DeepEqual(got, seqRows(0, 10)) {
		t.Fatalf("read %d rows, want the winner's 10", len(got))
	}
	rerun := s.NewWriter("x", 0, 1)
	writeRows(t, rerun, 0, seqRows(0, 10))
	if err := rerun.Commit(); err != nil {
		t.Fatal(err)
	}
	if batches, bytes := s.Held(); batches != 1 || bytes != rerun.MemBytes {
		t.Fatalf("after the re-run the store holds %d batches, %d bytes", batches, bytes)
	}
	if s.obs.HeldBytes.Load() != rerun.MemBytes {
		t.Fatalf("held-bytes gauge %d, reserved %d", s.obs.HeldBytes.Load(), rerun.MemBytes)
	}
}

// Spill writes published outputs to partition files any reader decodes, keeps
// empty partitions as entries, frees the reservation, and is what a damaged
// file is recovered from: a re-run's entry wins over the file.
func TestStoreSpillWritesTheBlockFormat(t *testing.T) {
	s, dir, _ := testStore(t, 0)
	rows := [][][]any{seqRows(0, 300), nil, seqRows(1000, 40)}
	w := s.NewWriter("x", 0, 3)
	for part, rs := range rows {
		writeRows(t, w, part, rs)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	open := s.NewReader("x", 1, 0, shuffleSchema()) // resolves its batches before the spill
	first, err := open.NextBatch(nil)
	if err != nil || first == nil {
		t.Fatal(err)
	}
	freed, err := s.Spill(math.MaxInt64)
	if err != nil || freed != w.MemBytes || s.SpilledBytes() != freed {
		t.Fatalf("Spill freed %d (err %v), reserved %d, reported %d", freed, err, w.MemBytes, s.SpilledBytes())
	}
	if batches, bytes := s.Held(); batches != 0 || bytes != 0 {
		t.Fatalf("store holds %d batches, %d bytes after spilling all", batches, bytes)
	}
	if !reflect.DeepEqual(first.Rows(), rows[0]) {
		t.Fatal("a batch handed out before the spill changed")
	}
	if files := dirEntries(t, dir.Path()); len(files) != 2 {
		t.Fatalf("files = %v, want one per non-empty partition", files)
	}
	for part, want := range rows {
		got, shared := drain(t, s.NewReader("x", 1, part, shuffleSchema()))
		if !reflect.DeepEqual(got, want) || shared != 0 {
			t.Fatalf("partition %d after spill: %d rows (%d batches from memory), want %d from its file",
				part, len(got), shared, len(want))
		}
	}
	// The files are the file writer's: a reader that knows only the directory reads them.
	if got, _ := drain(t, NewReader(dir.Path(), "x", 1, 2, shuffleSchema())); !reflect.DeepEqual(got, rows[2]) {
		t.Fatalf("plain reader got %d rows", len(got))
	}
	if s.obs.BytesWritten.Load() == 0 || s.obs.BlocksWritten.Load() != 2 || s.obs.RowsWritten.Load() != w.Rows {
		t.Fatalf("spill counted %d bytes, %d blocks, %d rows", s.obs.BytesWritten.Load(),
			s.obs.BlocksWritten.Load(), s.obs.RowsWritten.Load())
	}

	// Lost file: the reader names the map task; its re-run publishes an entry.
	if err := os.Remove(filepath.Join(dir.Path(), "shuffle-x-m0-p0.bin")); err != nil {
		t.Fatal(err)
	}
	var cbe *CorruptBlockError
	if _, err := s.NewReader("x", 1, 0, shuffleSchema()).NextBatch(nil); !errors.As(err, &cbe) || cbe.MapTask != 0 {
		t.Fatalf("err = %v, want CorruptBlockError for map task 0", err)
	}
	rerun := s.NewWriter("x", 0, 3)
	for part, rs := range rows {
		writeRows(t, rerun, part, rs)
	}
	if err := rerun.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, shared := drain(t, s.NewReader("x", 1, 0, shuffleSchema())); !reflect.DeepEqual(got, rows[0]) || shared != 1 {
		t.Fatalf("after the re-run: %d rows, %d batches from memory", len(got), shared)
	}
}

// A map output that was never published, with no file either, is lost
// output — and looking for it makes no directory.
func TestStoreMissingOutputIsCorruption(t *testing.T) {
	s, dir, base := testStore(t, 0)
	var cbe *CorruptBlockError
	_, err := s.NewReader("nope", 2, 1, shuffleSchema()).NextBatch(nil)
	if !errors.As(err, &cbe) || cbe.ShuffleID != "nope" || cbe.MapTask != 0 || cbe.Part != 1 {
		t.Fatalf("err = %v, want CorruptBlockError naming map task 0", err)
	}
	if s.obs.BlocksCorrupt.Load() != 1 || dir.Path() != "" || len(dirEntries(t, base)) != 0 {
		t.Fatalf("corrupt=%d dir=%q", s.obs.BlocksCorrupt.Load(), dir.Path())
	}
}

// When the manager has no room for the next batch, the writer's output goes
// to its file — what was kept first, in order — and the reservation is given
// back; so does a published output the manager asks the store to spill.
func TestStoreOutOfMemoryGoesToFiles(t *testing.T) {
	oneBatch := heldBytes(vector.NewBatch(shuffleSchema(), stagingRows), nil)
	s, dir, _ := testStore(t, 2*oneBatch) // room for one full batch and its strings, not two
	rows := seqRows(0, 3*stagingRows+7)
	w := s.NewBroadcastWriter("b", 0)
	writeRows(t, w, 0, rows[:stagingRows])
	if _, bytes := s.Held(); bytes == 0 || w.Bytes != 0 {
		t.Fatalf("first block: reserved %d, wrote %d bytes", bytes, w.Bytes)
	}
	writeRows(t, w, 0, rows[stagingRows:])
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, bytes := s.Held(); bytes != 0 || w.MemRows != 0 || w.MemBytes != 0 {
		t.Fatalf("writer out of memory still holds %d bytes (%d rows)", bytes, w.MemRows)
	}
	if got, shared := drain(t, s.NewBroadcastReader("b", 1, shuffleSchema())); !reflect.DeepEqual(got, rows) || shared != 0 {
		t.Fatalf("read %d rows, %d batches from memory; want %d rows in order from the file", len(got), shared, len(rows))
	}
	if files := dirEntries(t, dir.Path()); len(files) != 1 {
		t.Fatalf("files = %v", files)
	}

	// Another consumer's reservation pushes a published output out.
	small := s.NewWriter("x", 0, 1)
	writeRows(t, small, 0, seqRows(0, 100))
	if err := small.Commit(); err != nil {
		t.Fatal(err)
	}
	other := &mem.FuncConsumer{ConsumerName: "other"}
	if err := s.mem.Reserve(other, 2*oneBatch-small.MemBytes/2); err != nil {
		t.Fatal(err)
	}
	if _, bytes := s.Held(); bytes != 0 || s.SpilledBytes() != small.MemBytes {
		t.Fatalf("store still holds %d bytes; spilled %d of %d", bytes, s.SpilledBytes(), small.MemBytes)
	}
	if got, shared := drain(t, s.NewReader("x", 1, 0, shuffleSchema())); !reflect.DeepEqual(got, seqRows(0, 100)) || shared != 0 {
		t.Fatalf("spilled output read back as %d rows (%d batches from memory)", len(got), shared)
	}
}

// The shuffle-write, shuffle-read and broadcast-fetch failpoints fire where
// nothing is a file: at a block's hand-over, and at opening a map output.
func TestStoreFailpointsFireInMemory(t *testing.T) {
	s, dir, _ := testStore(t, 0)
	r := fault.NewRegistry(5)
	for _, site := range []fault.Site{fault.ShuffleWrite, fault.ShuffleRead, fault.BroadcastFetch} {
		r.Arm(site, fault.Policy{FailN: 1})
	}
	defer fault.Activate(r)()

	w := s.NewWriter("x", 0, 1)
	writeRows(t, w, 0, seqRows(0, 5))
	if err := w.Commit(); err == nil || r.Fires(fault.ShuffleWrite) != 1 {
		t.Fatalf("Commit err = %v, shuffle-write fired %d times", err, r.Fires(fault.ShuffleWrite))
	}
	w.Abort()
	if batches, bytes := s.Held(); batches != 0 || bytes != 0 {
		t.Fatalf("failed attempt left %d batches, %d bytes", batches, bytes)
	}
	for _, bcast := range []bool{false, true} {
		w, site := s.NewWriter("h", 0, 1), fault.ShuffleRead
		open := func() *Reader { return s.NewReader("h", 1, 0, shuffleSchema()) }
		if bcast {
			w, site = s.NewBroadcastWriter("b", 0), fault.BroadcastFetch
			open = func() *Reader { return s.NewBroadcastReader("b", 1, shuffleSchema()) }
		}
		writeRows(t, w, 0, seqRows(0, 5))
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := open().NextBatch(nil); err == nil || r.Fires(site) != 1 {
			t.Fatalf("%s: err = %v, fired %d times", site, err, r.Fires(site))
		}
		if got, _ := drain(t, open()); len(got) != 5 {
			t.Fatalf("%s: retry read %d rows", site, len(got))
		}
	}
	if dir.Path() != "" {
		t.Fatal("a file was written")
	}
}

// Readers, a spill and a replacing re-run may all be at one output at once
// (run under -race): every reader sees all of its rows, from wherever.
func TestStoreConcurrentReadSpillReplace(t *testing.T) {
	s, _, _ := testStore(t, 0)
	rows := seqRows(0, stagingRows+500)
	publish := func() { // also off the test's goroutine: reports with t.Error
		w := s.NewBroadcastWriter("b", 0)
		err := w.WritePartition(0, mkBatch(shuffleSchema(), rows))
		if err == nil {
			err = w.Commit()
		}
		if err != nil {
			t.Error(err)
		}
	}
	publish()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				dst := vector.NewBatch(shuffleSchema(), stagingRows)
				r := s.NewBroadcastReader("b", 1, shuffleSchema())
				var got [][]any
				for {
					b, err := r.NextBatch(func() *vector.Batch { return dst })
					if err != nil {
						t.Error(err)
						return
					}
					if b == nil {
						break
					}
					got = append(got, b.Rows()...)
				}
				if !reflect.DeepEqual(got, rows) {
					t.Errorf("read %d rows, want %d", len(got), len(rows))
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := s.Spill(math.MaxInt64); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			publish()
		}
	}()
	wg.Wait()
	s.Close()
	if batches, bytes := s.Held(); batches != 0 || bytes != 0 || s.obs.HeldBytes.Load() != 0 {
		t.Fatalf("closed store holds %d batches, %d bytes (gauge %d)", batches, bytes, s.obs.HeldBytes.Load())
	}
}
