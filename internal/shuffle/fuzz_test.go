package shuffle

import (
	"os"
	"path/filepath"
	"testing"

	"photon/internal/storage/lz4"
	"photon/internal/vector"
)

// FuzzShuffleDecodeBlock feeds arbitrary bytes to the block decoder: an
// error or a valid batch, never a panic, and no row count or dictionary the
// bytes do not back up. Seeds are the blocks of the pinned partition files
// and a block of every encoding.
func FuzzShuffleDecodeBlock(f *testing.F) {
	schema := pinSchema()
	for p := 0; p < pinParts; p++ {
		data, err := os.ReadFile(filepath.Join("testdata", partPath("", "pin", 0, p)))
		if err != nil {
			f.Fatal(err)
		}
		for len(data) > checksumLen {
			payload, rest, err := lz4.ReadFrame(nil, data[checksumLen:])
			if err != nil {
				f.Fatal(err)
			}
			f.Add(payload)
			data = rest
		}
	}
	for _, b := range pinBatches() {
		b.Sel = nil
		f.Add((&blockEncoder{opts: EncoderOptions{Adaptive: true}}).encodeBlock(nil, b))
		f.Add((&blockEncoder{}).encodeBlock(nil, b))
	}

	f.Fuzz(func(t *testing.T, block []byte) {
		dst := vector.NewBatch(schema, 1024)
		if err := new(blockDecoder).decodeBlock(block, dst); err != nil {
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
