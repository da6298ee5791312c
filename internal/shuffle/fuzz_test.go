package shuffle

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"photon/internal/vector"
)

// pinnedFiles returns the pinned partition files' bytes.
func pinnedFiles(f *testing.F) [][]byte {
	var files [][]byte
	for p := 0; p < pinParts; p++ {
		data, err := os.ReadFile(filepath.Join("testdata", partPath("", "pin", 0, p)))
		if err != nil {
			f.Fatal(err)
		}
		files = append(files, data)
	}
	return files
}

// FuzzShuffleDecodeBlock feeds arbitrary bytes to the block decoder: an
// error or a valid batch, never a panic, and no row count or dictionary the
// bytes do not back up. Seeds are the blocks of the pinned partition files
// and a block of every encoding, each whole and cut in half.
func FuzzShuffleDecodeBlock(f *testing.F) {
	schema := pinSchema()
	add := func(block []byte) {
		f.Add(block)
		f.Add(block[:len(block)/2])
	}
	for _, data := range pinnedFiles(f) {
		for len(data) >= BlockHeader {
			n := BlockHeader + int(binary.LittleEndian.Uint32(data[checksumLen:]))
			add(data[BlockHeader:n])
			data = data[n:]
		}
	}
	for _, b := range pinBatches() {
		b.Sel = nil
		add((&BlockEncoder{opts: EncoderOptions{Adaptive: true}}).encodeBlock(nil, b))
		add((&BlockEncoder{}).encodeBlock(nil, b))
	}

	f.Fuzz(func(t *testing.T, block []byte) {
		dst := vector.NewBatch(schema, 1024)
		if err := new(BlockDecoder).decodeBlock(block, dst); err != nil {
			return
		}
		if dst.NumRows > dst.Capacity() || dst.Sel != nil {
			t.Fatalf("decoded %d rows into capacity %d", dst.NumRows, dst.Capacity())
		}
		if dst.NumRows > len(block) {
			t.Fatalf("%d rows from a %d-byte block", dst.NumRows, len(block))
		}
		_ = dst.Rows() // every slot readable
	})
}

// FuzzShuffleReadFile feeds arbitrary bytes to a Reader as a partition file:
// batches, then the end or a CorruptBlockError — never a panic, another
// error, or a block buffer larger than the file. Seeds are the pinned files.
func FuzzShuffleReadFile(f *testing.F) {
	for _, data := range pinnedFiles(f) {
		f.Add(data)
	}
	f.Add([]byte{})
	schema := pinSchema()

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(partPath(dir, "fz", 0, 0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r := NewReader(dir, "fz", 1, 0, schema)
		defer r.Close()
		dst := vector.NewBatch(schema, vector.DefaultBatchSize)
		for {
			ok, err := r.Next(dst)
			if cap(r.buf) > len(data) {
				t.Fatalf("a %d-byte buffer for a %d-byte file", cap(r.buf), len(data))
			}
			if err != nil {
				var cbe *CorruptBlockError
				if !errors.As(err, &cbe) {
					t.Fatalf("err = %v, want a CorruptBlockError", err)
				}
				return
			}
			if !ok {
				return
			}
			_ = dst.Rows()
		}
	})
}
