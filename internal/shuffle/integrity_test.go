package shuffle

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"photon/internal/mem"
	"photon/internal/vector"
)

const integrityID, integrityMaps = "integrity", 2

// integrityFixture is a committed exchange of integrityMaps map tasks whose
// partition files the test damages one at a time.
type integrityFixture struct {
	parts int
	open  func(part int) *Reader
	want  [][][]any // per partition: every map task's rows, in order
	// blocks holds, per partition file, the offsets at which its blocks
	// start followed by the file's size.
	blocks map[string][]int64
	paths  [][]string // [map task][partition]
}

// writeRecorded writes batches through w, routing rows by split (nil: all to
// partition 0), and commits. It returns the rows per partition and, per
// partition, every size its file had: after each block the writer wrote.
func writeRecorded(t *testing.T, w *Writer, parts int, batches []*vector.Batch, split *Partitioner) ([][][]any, [][]int64) {
	t.Helper()
	rows := make([][][]any, parts)
	sizes := make([][]int64, parts)
	for p := range sizes {
		sizes[p] = []int64{0}
	}
	record := func(p int, path string) {
		info, err := os.Stat(path)
		if err != nil {
			return // no file yet
		}
		if n := info.Size(); n > sizes[p][len(sizes[p])-1] {
			sizes[p] = append(sizes[p], n)
		}
	}
	write := func(p int, b *vector.Batch) {
		rows[p] = append(rows[p], b.Rows()...)
		if err := w.WritePartition(p, b); err != nil {
			t.Fatal(err)
		}
		if w.tmps[p] != "" {
			record(p, w.tmps[p])
		}
	}
	for _, b := range batches {
		if split == nil {
			write(0, b)
			continue
		}
		saved := b.Sel
		for p, sel := range split.Split(b) {
			b.Sel = sel
			write(p, b)
		}
		b.Sel = saved
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts && w.dir != ""; p++ {
		record(p, partPath(w.dir, w.shuffle, w.mapTask, p))
	}
	return rows, sizes
}

// integrityInput is the pin batches, passes times over: enough rows for a
// partition to fill blocks.
func integrityInput(passes int) []*vector.Batch {
	var out []*vector.Batch
	for i := 0; i < passes; i++ {
		out = append(out, pinBatches()...)
	}
	return out
}

// writerFixture: NewWriter's hash-partitioned output, several blocks a file.
func writerFixture(t *testing.T) *integrityFixture {
	dir := t.TempDir()
	fx := &integrityFixture{parts: pinParts, want: make([][][]any, pinParts), blocks: map[string][]int64{},
		open: func(part int) *Reader { return NewReader(dir, integrityID, integrityMaps, part, pinSchema()) }}
	for m := 0; m < integrityMaps; m++ {
		w, err := NewWriter(dir, integrityID, m, pinParts, EncoderOptions{Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		rows, sizes := writeRecorded(t, w, pinParts, integrityInput(6), NewPartitioner(pinParts, []int{0}))
		fx.paths = append(fx.paths, nil)
		for p := range rows {
			fx.want[p] = append(fx.want[p], rows[p]...)
			path := partPath(dir, integrityID, m, p)
			fx.paths[m] = append(fx.paths[m], path)
			fx.blocks[path] = sizes[p]
		}
	}
	return fx
}

// storeFixture: a store's broadcast output, kept in memory until Store.Spill
// writes it to files. The blocks of a spilled file are found from a file
// writer fed the same batches, whose file the spilled one must equal.
func storeFixture(t *testing.T) *integrityFixture {
	dir := NewQueryDir(t.TempDir())
	t.Cleanup(dir.Remove)
	s := NewStore(dir, mem.NewManager(0), EncoderOptions{Adaptive: true}, nil)
	fx := &integrityFixture{parts: 1, want: make([][][]any, 1), blocks: map[string][]int64{},
		open: func(int) *Reader { return s.NewBroadcastReader(integrityID, integrityMaps, pinSchema()) }}
	twinDir := t.TempDir()
	var twins [][]int64
	for m := 0; m < integrityMaps; m++ {
		rows, _ := writeRecorded(t, s.NewBroadcastWriter(integrityID, m), 1, integrityInput(4), nil)
		fx.want[0] = append(fx.want[0], rows[0]...)
		twin, err := NewWriter(twinDir, integrityID, m, 1, EncoderOptions{Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		_, sizes := writeRecorded(t, twin, 1, integrityInput(4), nil)
		twins = append(twins, sizes[0])
	}
	if dir.Path() != "" {
		t.Fatal("the broadcast went to files before Spill")
	}
	if _, err := s.Spill(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < integrityMaps; m++ {
		path := partPath(dir.Path(), integrityID, m, 0)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(partPath(twinDir, integrityID, m, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("map %d: Spill wrote %d bytes, the file writer %d (or they differ)", m, len(got), len(want))
		}
		fx.paths = append(fx.paths, []string{path})
		fx.blocks[path] = twins[m]
	}
	return fx
}

// readPartition reads one partition to its end or its first error, keeping
// the rows when asked to.
func readPartition(r *Reader, keep bool) ([][]any, error) {
	dst := vector.NewBatch(pinSchema(), vector.DefaultBatchSize)
	var rows [][]any
	for {
		ok, err := r.Next(dst)
		if err != nil || !ok {
			return rows, err
		}
		if keep {
			rows = append(rows, dst.Rows()...)
		}
	}
}

// TestShuffleFileIntegrity damages partition files — written by NewWriter,
// and by a store's writer through Store.Spill — in every way the block
// format must notice: a flipped byte in a block's first bytes (its
// checksum), the four after them (a length) or its last and middle bytes, a
// cut one byte either side of every block boundary and inside a block's
// first eight bytes, a length claiming more than the file holds, and a
// deleted file. Each read of the damaged partition ends in a
// *CorruptBlockError naming the exchange, map task and partition of the
// file, without a panic, and the length claim allocates nothing near what
// it claims. A cut exactly at a block boundary leaves a well-formed shorter
// file: commit-by-rename, not the block format, keeps those from readers.
func TestShuffleFileIntegrity(t *testing.T) {
	for name, build := range map[string]func(*testing.T) *integrityFixture{
		"writer": writerFixture,
		"store":  storeFixture,
	} {
		t.Run(name, func(t *testing.T) {
			fx := build(t)
			for p := 0; p < fx.parts; p++ {
				got, err := readPartition(fx.open(p), true)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, fx.want[p]) {
					t.Fatalf("partition %d read back %d rows, want %d", p, len(got), len(fx.want[p]))
				}
			}
			for m, paths := range fx.paths {
				for p, path := range paths {
					bounds := fx.blocks[path]
					if len(bounds) < 3 {
						t.Fatalf("%s: blocks at %v, want at least two", path, bounds)
					}
					damageFile(t, fx, m, p, path, bounds)
				}
			}
		})
	}
}

// rewrite gives the file at path the contents data in place. It never
// truncates the file to zero first: ext4 flushes a file rewritten that way
// to disk when it is closed, which makes each case cost tens of milliseconds.
func rewrite(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt(data, 0)
	if err == nil {
		err = f.Truncate(int64(len(data)))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
}

// damageFile runs every damage case against one partition file, putting the
// file back after each.
func damageFile(t *testing.T, fx *integrityFixture, m, p int, path string, bounds []int64) {
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(orig))
	expect := func(what string, damaged []byte, reason string) {
		t.Helper()
		if damaged == nil {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		} else {
			rewrite(t, path, damaged)
		}
		defer rewrite(t, path, orig)
		_, err := readPartition(fx.open(p), false)
		var cbe *CorruptBlockError
		if !errors.As(err, &cbe) {
			t.Fatalf("%s, %s: err = %v, want a CorruptBlockError", filepath.Base(path), what, err)
		}
		if cbe.ShuffleID != integrityID || cbe.MapTask != m || cbe.Part != p || (reason != "" && cbe.Reason != reason) {
			t.Fatalf("%s, %s: error names shuffle %s map %d part %d (%q)", filepath.Base(path), what,
				cbe.ShuffleID, cbe.MapTask, cbe.Part, cbe.Reason)
		}
	}
	flipped := func(at int64) []byte {
		b := append([]byte(nil), orig...)
		b[at] ^= 0xff
		return b
	}
	for i := 0; i+1 < len(bounds); i++ {
		start, end := bounds[i], bounds[i+1]
		for _, at := range []int64{start, start + 4, (start + end) / 2, end - 1} {
			expect(fmt.Sprintf("block %d: byte %d flipped", i, at), flipped(at), "")
		}
		expect(fmt.Sprintf("block %d: cut inside its header", i), orig[:start+6], "")
	}
	for _, b := range bounds {
		if b > 0 {
			expect(fmt.Sprintf("cut at %d", b-1), orig[:b-1], "")
		}
		if b < size {
			expect(fmt.Sprintf("cut at %d", b+1), orig[:b+1], "")
		} else {
			expect("one byte past the end", append(append([]byte(nil), orig...), 0), "")
		}
	}
	for _, claim := range []uint32{uint32(size), math.MaxInt32} {
		b := append([]byte(nil), orig...)
		b[4], b[5], b[6], b[7] = byte(claim), byte(claim>>8), byte(claim>>16), byte(claim>>24)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		expect(fmt.Sprintf("first block claims %d bytes", claim), b, "")
		runtime.ReadMemStats(&after)
		if claim == math.MaxInt32 && after.TotalAlloc-before.TotalAlloc > math.MaxInt32/4 {
			t.Fatalf("%s: a claim of %d bytes allocated %d", filepath.Base(path), claim, after.TotalAlloc-before.TotalAlloc)
		}
	}
	expect("deleted", nil, "missing partition file")
}
