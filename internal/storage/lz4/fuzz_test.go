package lz4

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

var errRef = errors.New("lz4: invalid block")

// refDecompress is the byte-at-a-time decoder the fast one is checked
// against: no wild copies, no shortcuts.
func refDecompress(dst, src []byte) (int, error) {
	di, si := 0, 0
	readLen := func(v int) (int, bool) {
		for v >= 15 {
			if si >= len(src) {
				return 0, false
			}
			b := src[si]
			si++
			v += int(b)
			if b != 255 {
				break
			}
		}
		return v, true
	}
	for si < len(src) {
		token := src[si]
		si++
		lit, ok := readLen(int(token >> 4))
		if !ok || lit > len(src)-si || lit > len(dst)-di {
			return 0, errRef
		}
		for k := 0; k < lit; k++ {
			dst[di+k] = src[si+k]
		}
		si, di = si+lit, di+lit
		if si >= len(src) {
			break
		}
		if si+2 > len(src) {
			return 0, errRef
		}
		offset := int(src[si]) | int(src[si+1])<<8
		si += 2
		ml, ok := readLen(int(token & 15))
		if ml += minMatch; !ok || offset == 0 || offset > di || ml > len(dst)-di {
			return 0, errRef
		}
		for k := 0; k < ml; k++ {
			dst[di+k] = dst[di-offset+k]
		}
		di += ml
	}
	return di, nil
}

// FuzzLZ4Decompress feeds arbitrary bytes to the decompressor as a block
// and as input: as a block it must agree with the reference decoder (same
// error-or-not, same length, same bytes) and never write past dst; as input
// it must survive compress → decompress unchanged.
func FuzzLZ4Decompress(f *testing.F) {
	for _, raw := range pinCorpus() {
		f.Add(raw[:min(len(raw), 4096)])
	}
	blocks, _ := filepath.Glob(filepath.Join("testdata", "*.lz4"))
	for _, p := range blocks {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{0x10, 'a', 0xFF, 0xFF, 0x00})
	f.Add([]byte{0x1F, 'a', 0x01, 0x00, 0xFF, 0xFF, 0x10})

	f.Fuzz(func(t *testing.T, data []byte) {
		// A block can expand 255-fold; a fixed window a few times the input
		// exercises both "fits" and "overruns dst".
		const guard = 0xA5
		size := 4*len(data) + 64
		want := make([]byte, size)
		wn, werr := refDecompress(want, data)
		got := bytes.Repeat([]byte{guard}, size+16)
		gn, gerr := Decompress(got[:size:size], data)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("reference err %v, fast err %v", werr, gerr)
		}
		if gerr == nil && (gn != wn || !bytes.Equal(got[:gn], want[:wn])) {
			t.Fatalf("fast decoder produced %d bytes, reference %d (or contents differ)", gn, wn)
		}
		for _, b := range got[size:] {
			if b != guard {
				t.Fatal("decoder wrote past dst")
			}
		}

		comp := Compress(nil, data)
		if len(comp) > CompressBound(len(data)) {
			t.Fatalf("compressed %d bytes to %d, bound %d", len(data), len(comp), CompressBound(len(data)))
		}
		back := make([]byte, len(data))
		if n, err := Decompress(back, comp); err != nil || n != len(data) || !bytes.Equal(back, data) {
			t.Fatalf("round trip: %d of %d bytes, err %v", n, len(data), err)
		}
	})
}
