package shuffle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"photon/internal/obs"
	"photon/internal/types"
	"photon/internal/vector"
)

func mkBatch(schema *types.Schema, rows [][]any) *vector.Batch {
	b := vector.NewBatch(schema, max(len(rows), 1))
	for _, r := range rows {
		b.AppendRow(r...)
	}
	return b
}

func TestPartitionerCoversAllRowsDeterministically(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "k", Type: types.Int64Type, Nullable: true})
	var rows [][]any
	for i := 0; i < 1000; i++ {
		rows = append(rows, []any{int64(i)})
	}
	rows = append(rows, []any{nil})
	b := mkBatch(schema, rows)
	p := NewPartitioner(8, []int{0})
	parts := p.Split(b)
	total := 0
	for _, sel := range parts {
		total += len(sel)
	}
	if total != len(rows) {
		t.Fatalf("partitioned %d of %d rows", total, len(rows))
	}
	// Same key always lands in the same partition.
	p2 := NewPartitioner(8, []int{0})
	parts2 := p2.Split(b)
	for i := range parts {
		if !reflect.DeepEqual(parts[i], parts2[i]) {
			t.Fatal("partitioning not deterministic")
		}
	}
}

func shuffleSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "k", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
	)
}

func writeAndReadBack(t *testing.T, rows [][]any, adaptive bool) ([][]any, *Writer) {
	t.Helper()
	schema := shuffleSchema()
	dir := t.TempDir()
	const parts = 4
	w, err := NewWriter(dir, "s1", 0, parts, EncoderOptions{Adaptive: adaptive})
	if err != nil {
		t.Fatal(err)
	}
	b := mkBatch(schema, rows)
	p := NewPartitioner(parts, []int{0})
	for part, sel := range p.Split(b) {
		saved := b.Sel
		b.Sel = sel
		if err := w.WritePartition(part, b); err != nil {
			t.Fatal(err)
		}
		b.Sel = saved
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	var got [][]any
	for part := 0; part < parts; part++ {
		r := NewReader(dir, "s1", 1, part, schema)
		dst := vector.NewBatch(schema, 4096)
		for {
			ok, err := r.Next(dst)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, dst.Rows()...)
		}
	}
	return got, w
}

func sortAnyRows(rows [][]any) {
	sort.Slice(rows, func(i, j int) bool {
		return fmt.Sprint(rows[i]) < fmt.Sprint(rows[j])
	})
}

func TestShuffleRoundTripPlain(t *testing.T) {
	var rows [][]any
	for i := 0; i < 500; i++ {
		var s any = fmt.Sprintf("value-%d", i)
		if i%13 == 0 {
			s = nil
		}
		var k any = int64(i % 50)
		if i%31 == 0 {
			k = nil
		}
		rows = append(rows, []any{k, s})
	}
	for _, adaptive := range []bool{false, true} {
		got, _ := writeAndReadBack(t, rows, adaptive)
		want := append([][]any{}, rows...)
		sortAnyRows(got)
		sortAnyRows(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("adaptive=%v: shuffle round trip mismatch", adaptive)
		}
	}
}

func TestAdaptiveUUIDEncodingShrinksData(t *testing.T) {
	var rows [][]any
	for i := 0; i < 2000; i++ {
		u := types.UUIDFromParts(uint64(i)*0x9e3779b97f4a7c15, uint64(i)*0xc2b2ae3d27d4eb4f)
		rows = append(rows, []any{int64(i), types.UUIDString(u)})
	}
	gotPlain, wPlain := writeAndReadBack(t, rows, false)
	gotAdapt, wAdapt := writeAndReadBack(t, rows, true)
	sortAnyRows(gotPlain)
	sortAnyRows(gotAdapt)
	if !reflect.DeepEqual(gotPlain, gotAdapt) {
		t.Fatal("adaptive encoding changed results")
	}
	if wAdapt.RawBytes >= wPlain.RawBytes {
		t.Errorf("adaptive raw bytes %d should be < plain %d", wAdapt.RawBytes, wPlain.RawBytes)
	}
	// The paper reports >2x reduction in shuffle volume (Table 1): a UUID is
	// 16 bytes encoded instead of 36 bytes of text and a length.
	ratio := float64(wPlain.Bytes) / float64(wAdapt.Bytes)
	if ratio < 1.8 {
		t.Errorf("stored reduction ratio = %.2f, want > 1.8", ratio)
	}
}

func TestAdaptiveDictEncoding(t *testing.T) {
	var rows [][]any
	for i := 0; i < 2000; i++ {
		rows = append(rows, []any{int64(i), fmt.Sprintf("city_%d", i%8)})
	}
	gotPlain, wPlain := writeAndReadBack(t, rows, false)
	gotAdapt, wAdapt := writeAndReadBack(t, rows, true)
	sortAnyRows(gotPlain)
	sortAnyRows(gotAdapt)
	if !reflect.DeepEqual(gotPlain, gotAdapt) {
		t.Fatal("dict encoding changed results")
	}
	if wAdapt.RawBytes >= wPlain.RawBytes {
		t.Errorf("dict raw bytes %d should be < plain %d", wAdapt.RawBytes, wPlain.RawBytes)
	}
}

func TestRowShuffleWriterVolume(t *testing.T) {
	// The baseline row shuffle produces at least as many raw bytes as the
	// columnar PLAIN format for the same rows.
	schema := shuffleSchema()
	dir := t.TempDir()
	var rows [][]any
	for i := 0; i < 1000; i++ {
		u := types.UUIDFromParts(uint64(i), uint64(i)*7)
		rows = append(rows, []any{int64(i), types.UUIDString(u)})
	}
	rw, err := NewRowWriter(dir, "r1", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if err := rw.WriteRow(i%2, r, schema); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	if rw.Rows != int64(len(rows)) {
		t.Errorf("rows = %d", rw.Rows)
	}
	if rw.Bytes == 0 || rw.RawBytes == 0 {
		t.Error("row shuffle metrics empty")
	}
	// Its blocks are framed as the columnar writer's: checksummed, and their
	// lengths account for every byte of the files.
	var raw, stored int64
	for part := 0; part < 2; part++ {
		data, err := os.ReadFile(partPath(dir, "r1", 0, part))
		if err != nil {
			t.Fatal(err)
		}
		stored += int64(len(data))
		for len(data) > 0 {
			n := BlockHeader + int(binary.LittleEndian.Uint32(data[checksumLen:]))
			if n > len(data) || blockChecksum(data[checksumLen:n]) != binary.LittleEndian.Uint32(data) {
				t.Fatalf("partition %d: a block of %d bytes does not verify", part, n)
			}
			raw += int64(n - BlockHeader)
			data = data[n:]
		}
	}
	if raw != rw.RawBytes || stored != rw.Bytes {
		t.Errorf("blocks hold %d of %d bytes in files of %d, writer counted %d", raw, rw.RawBytes, stored, rw.Bytes)
	}
}

func TestReaderEmptyMapOutputsSkipped(t *testing.T) {
	schema := shuffleSchema()
	dir := t.TempDir()
	// Map task 0 writes one row; tasks 1 and 2 commit empty outputs (as a
	// coalesced-away producer does). The reader must stream exactly the
	// one row.
	w, _ := NewWriter(dir, "sx", 0, 1, EncoderOptions{})
	b := mkBatch(schema, [][]any{{int64(1), "a"}})
	if err := w.WritePartition(0, b); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	for m := 1; m < 3; m++ {
		we, _ := NewWriter(dir, "sx", m, 1, EncoderOptions{})
		if err := we.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(dir, "sx", 3, 0, schema)
	dst := vector.NewBatch(schema, 16)
	count := 0
	for {
		ok, err := r.Next(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count += dst.NumRows
	}
	if count != 1 {
		t.Errorf("rows = %d", count)
	}
}

// TestReaderMissingFileIsCorruption: with atomic publish, every committed
// map task's partition file exists, so a missing file means lost output and
// must surface as a lineage-addressed CorruptBlockError — never be
// silently skipped (which would drop rows).
func TestReaderMissingFileIsCorruption(t *testing.T) {
	schema := shuffleSchema()
	dir := t.TempDir()
	r := NewReader(dir, "sx", 2, 0, schema)
	dst := vector.NewBatch(schema, 16)
	_, err := r.Next(dst)
	var cbe *CorruptBlockError
	if !errors.As(err, &cbe) {
		t.Fatalf("err = %v, want CorruptBlockError", err)
	}
	if cbe.MapTask != 0 || cbe.Part != 0 || cbe.ShuffleID != "sx" {
		t.Errorf("lineage = map %d part %d shuffle %s", cbe.MapTask, cbe.Part, cbe.ShuffleID)
	}
}

// TestAbortRemovesStagedFiles: an aborted attempt leaves nothing behind and
// never clobbers a committed twin.
func TestAbortRemovesStagedFiles(t *testing.T) {
	schema := shuffleSchema()
	dir := t.TempDir()
	b := mkBatch(schema, [][]any{{int64(1), "a"}})

	winner, _ := NewWriter(dir, "sa", 0, 1, EncoderOptions{})
	if err := winner.WritePartition(0, b); err != nil {
		t.Fatal(err)
	}
	loser, _ := NewWriter(dir, "sa", 0, 1, EncoderOptions{})
	b2 := mkBatch(schema, [][]any{{int64(2), "b"}})
	if err := loser.WritePartition(0, b2); err != nil {
		t.Fatal(err)
	}
	if err := winner.Commit(); err != nil {
		t.Fatal(err)
	}
	loser.Abort()

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("dir has %d entries after abort, want 1 committed file", len(ents))
	}
	r := NewReader(dir, "sa", 1, 0, schema)
	dst := vector.NewBatch(schema, 16)
	ok, err := r.Next(dst)
	if err != nil || !ok {
		t.Fatalf("read back: ok=%v err=%v", ok, err)
	}
	if got := dst.Rows()[0][0].(int64); got != 1 {
		t.Errorf("winner row = %d, want 1 (loser must not clobber)", got)
	}
}

// Corrupt shuffle data must error, never panic (testing/quick-style
// robustness over the block decoder).
func TestDecodeCorruptBlocks(t *testing.T) {
	schema := shuffleSchema()
	var rows [][]any
	for i := 0; i < 100; i++ {
		rows = append(rows, []any{int64(i), fmt.Sprintf("s%d", i%7)})
	}
	good := (&BlockEncoder{opts: EncoderOptions{Adaptive: true}}).encodeBlock(nil, mkBatch(schema, rows))
	dst := vector.NewBatch(schema, 256)
	var dec BlockDecoder
	if err := dec.decodeBlock(good, dst); err != nil || !reflect.DeepEqual(dst.Rows(), rows) {
		t.Fatalf("intact block: err %v", err)
	}
	// Truncations at every offset, a flip of every byte: each is an error or
	// a decoded batch, never a panic.
	for cut := 0; cut < len(good); cut++ {
		if err := dec.decodeBlock(good[:cut], dst); err == nil {
			t.Fatalf("block truncated to %d of %d bytes decoded", cut, len(good))
		}
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0xff
		_ = dec.decodeBlock(bad, dst)
	}
}

// Lengths a block states about itself are checked against the bytes that
// are there before anything is sized from them.
func TestDecodeRejectsLyingLengths(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "s", Type: types.StringType, Nullable: true})
	dst := vector.NewBatch(schema, 16)
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	dictCol := func(dictN uint32, width byte, cnt uint32, packed []byte) []byte {
		return cat(u32(2), []byte{byte(EncDict), 0}, u32(dictN), u32(1), []byte("a"), []byte{width}, u32(cnt), packed)
	}
	for name, block := range map[string][]byte{
		"dictionary count beyond the block": dictCol(1<<31, 1, 2, []byte{0}),
		"index width beyond 32 bits":        dictCol(1, 40, 2, make([]byte, 16)),
		"fewer indices than valid rows":     dictCol(1, 1, 1, []byte{0}),
		"index outside the dictionary":      dictCol(1, 1, 2, []byte{2}),
		"UUID encoding on too few bytes":    cat(u32(2), []byte{byte(EncUUID), 0}, make([]byte, 31)),
		"rows beyond the batch":             cat(u32(17), []byte{byte(EncPlain), 0}),
		"unknown encoding":                  cat(u32(1), []byte{9, 0}),
	} {
		if err := new(BlockDecoder).decodeBlock(block, dst); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	ints := vector.NewBatch(types.NewSchema(types.Field{Name: "k", Type: types.Int64Type}), 16)
	if err := new(BlockDecoder).decodeBlock(cat(u32(1), []byte{byte(EncUUID), 0}, make([]byte, 16)), ints); err == nil {
		t.Error("UUID encoding on an integer column decoded")
	}
}

// TestBlocksAreFullBatches: however sparse the map side's batches, a
// partition's rows leave in blocks of stagingRows (plus one partial block at
// Close), in order, and the reader hands back full batches.
func TestBlocksAreFullBatches(t *testing.T) {
	schema := shuffleSchema()
	dir := t.TempDir()
	w, err := NewWriter(dir, "full", 0, 2, EncoderOptions{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	w.Obs = NewMetrics(obs.NewRegistry())
	const total = 3*stagingRows + 100
	var want [][]any
	b := vector.NewBatch(schema, 512)
	for next := 0; next < total; {
		// 512-row batches with one row in four active, alternating between
		// the partitions; the strings live in a buffer the batch reuses.
		b.Reset()
		buf := make([]byte, 0, 512*12)
		for r := 0; r < 512; r++ {
			at := len(buf)
			buf = fmt.Appendf(buf, "row-%d", next+r/4)
			b.AppendRow(int64(next+r/4), buf[at:len(buf):len(buf)])
		}
		var sel []int32
		for r := 0; r < 512 && next < total; r += 4 {
			sel = append(sel, int32(r))
			want = append(want, []any{int64(next), fmt.Sprintf("row-%d", next)})
			next++
		}
		b.Sel = sel
		if err := w.WritePartition(1, b); err != nil {
			t.Fatal(err)
		}
		clear(buf[:cap(buf)]) // the caller's strings do not outlive the call
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if w.Rows != total || w.Obs.BlocksWritten.Load() != 4 {
		t.Fatalf("rows %d in %d blocks, want %d in 4", w.Rows, w.Obs.BlocksWritten.Load(), total)
	}
	r := NewReader(dir, "full", 1, 1, schema)
	dst := vector.NewBatch(schema, stagingRows)
	var got [][]any
	var sizes []int
	for {
		ok, err := r.Next(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		sizes = append(sizes, dst.NumRows)
		got = append(got, dst.Rows()...)
	}
	if !reflect.DeepEqual(sizes, []int{stagingRows, stagingRows, stagingRows, 100}) {
		t.Fatalf("block sizes = %v", sizes)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("rows changed or reordered on the way through staging")
	}
	if ok, err := NewReader(dir, "full", 1, 0, schema).Next(dst); ok || err != nil {
		t.Fatalf("untouched partition: ok=%v err=%v", ok, err)
	}
}

// TestReaderHoldsFilesOnlyWhileReading: a reader holds a partition file from
// its first block to its last, never holds an empty one, and lets go at an
// error and at Close; a file that shrinks under it is corruption.
func TestReaderHoldsFilesOnlyWhileReading(t *testing.T) {
	schema := shuffleSchema()
	dir := t.TempDir()
	w, err := NewWriter(dir, "of", 0, 2, EncoderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	writeRows(t, w, 0, seqRows(0, 2*stagingRows+10)) // three blocks; partition 1 stays empty
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	base := OpenFiles()
	held := func(what string, want int64) {
		t.Helper()
		if n := OpenFiles() - base; n != want {
			t.Fatalf("%s: %d files open, want %d", what, n, want)
		}
	}
	dst := vector.NewBatch(schema, stagingRows)
	next := func(r *Reader) (bool, error) {
		t.Helper()
		ok, err := r.Next(dst)
		if err != nil {
			var cbe *CorruptBlockError
			if !errors.As(err, &cbe) {
				t.Fatalf("err = %v, want a CorruptBlockError", err)
			}
		}
		return ok, err
	}
	r := NewReader(dir, "of", 1, 0, schema)
	for block := 0; block < 3; block++ {
		if ok, err := next(r); !ok || err != nil {
			t.Fatalf("block %d: ok=%v err=%v", block, ok, err)
		}
		held(fmt.Sprintf("after block %d", block), int64(min(1, 2-block)))
	}
	if ok, err := next(r); ok || err != nil {
		t.Fatalf("past the last block: ok=%v err=%v", ok, err)
	}
	if ok, err := next(NewReader(dir, "of", 1, 1, schema)); ok || err != nil {
		t.Fatalf("empty partition: ok=%v err=%v", ok, err)
	}
	held("after an empty partition", 0)

	r = NewReader(dir, "of", 1, 0, schema)
	next(r)
	held("inside the file", 1)
	r.Close()
	r.Close()
	held("after Close", 0)

	r = NewReader(dir, "of", 1, 0, schema)
	next(r)
	path := partPath(dir, "of", 0, 0)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-1); err != nil {
		t.Fatal(err)
	}
	next(r)
	if _, err := next(r); err == nil {
		t.Fatal("a file that shrank while it was read decoded")
	}
	held("after the error", 0)
}

// A writer whose last blocks could not be written must not commit.
func TestCloseErrorBlocksCommit(t *testing.T) {
	schema := shuffleSchema()
	dir := t.TempDir()
	w, err := NewWriter(dir, "ce", 0, 1, EncoderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePartition(0, mkBatch(schema, [][]any{{int64(1), "a"}})); err != nil {
		t.Fatal(err)
	}
	w.files[0].Close() // the staged row's block will fail to write
	if err := w.Close(); err == nil {
		t.Fatal("Close lost the write error")
	}
	if err := w.Close(); err == nil {
		t.Fatal("second Close forgot the error")
	}
	if err := w.Commit(); err == nil {
		t.Fatal("Commit published a partition file missing its last block")
	}
	w.Abort()
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("%d files left after abort", len(ents))
	}
}
