package lz4

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.lz4 with this build's compressor")

// pinCorpus is the pinned corpus: inputs are regenerated here, their
// compressed blocks live in testdata/<name>.lz4 as the compressor of the
// commit that introduced this test wrote them.
func pinCorpus() map[string][]byte {
	rng := rand.New(rand.NewSource(13))
	c := map[string][]byte{"empty": nil, "tiny": []byte("hello")}

	var text bytes.Buffer
	for i := 0; text.Len() < 32<<10; i++ {
		fmt.Fprintf(&text, "order %d shipped to city_%03d by carrier-%c on 1996-%02d-%02d\n",
			i*7919%100003, i*31%200, 'A'+rune(i%5), 1+i%12, 1+i%28)
	}
	c["text"] = text.Bytes()

	// A columnar block: sorted-ish int64 keys then 4-byte dates, like a
	// shuffle block or a Parquet PLAIN chunk.
	ints := make([]byte, 0, 48<<10)
	for i := 0; i < 4096; i++ {
		ints = binary.LittleEndian.AppendUint64(ints, uint64(1_000_000+i*3+rng.Intn(3)))
	}
	for i := 0; i < 4096; i++ {
		ints = binary.LittleEndian.AppendUint32(ints, uint32(9000+rng.Intn(2500)))
	}
	c["ints"] = ints

	random := make([]byte, 4<<10)
	rng.Read(random)
	c["random"] = random

	low := make([]byte, 32<<10)
	for i := range low {
		low[i] = byte(rng.Intn(4))
	}
	c["lowentropy"] = low

	// Overlapping matches at every small offset, and a run past 64 KB so
	// candidates fall out of the offset window.
	var runs []byte
	for off := 1; off <= 9; off++ {
		pat := make([]byte, off)
		rng.Read(pat)
		runs = append(runs, bytes.Repeat(pat, 300/off+1)...)
	}
	runs = append(runs, bytes.Repeat([]byte{0}, 70<<10)...)
	runs = append(runs, c["text"][:2048]...)
	c["runs"] = runs
	return c
}

// TestPinnedCorpus: the compressor reproduces the pinned blocks byte for
// byte, and the decompressor expands them to the original inputs.
func TestPinnedCorpus(t *testing.T) {
	for name, raw := range pinCorpus() {
		path := filepath.Join("testdata", name+".lz4")
		got := Compress(nil, raw)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: compressed to %d bytes, pinned block has %d (or differs in content)", name, len(got), len(want))
		}
		dst := make([]byte, len(raw))
		n, err := Decompress(dst, want)
		if err != nil || n != len(raw) || !bytes.Equal(dst, raw) {
			t.Errorf("%s: pinned block decompressed to %d of %d bytes, err %v", name, n, len(raw), err)
		}
	}
}
