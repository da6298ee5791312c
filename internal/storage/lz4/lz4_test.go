package lz4

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) {
	t.Helper()
	comp := Compress(nil, src)
	if len(comp) > CompressBound(len(src)) {
		t.Fatalf("compressed %d > bound %d", len(comp), CompressBound(len(src)))
	}
	dst := make([]byte, len(src))
	n, err := Decompress(dst, comp)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if n != len(src) || !bytes.Equal(dst[:n], src) {
		t.Fatalf("round trip failed: %d bytes vs %d", n, len(src))
	}
}

func TestRoundTripBasics(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte(""),
		[]byte("a"),
		[]byte("hello"),
		[]byte("hello hello hello hello hello hello hello"),
		bytes.Repeat([]byte("ab"), 1000),
		bytes.Repeat([]byte{0}, 100000),
		[]byte(strings.Repeat("the quick brown fox jumps over the lazy dog ", 200)),
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 50; i++ {
		n := rng.Intn(100000)
		b := make([]byte, n)
		switch i % 3 {
		case 0: // incompressible
			rng.Read(b)
		case 1: // highly repetitive
			pat := make([]byte, 1+rng.Intn(20))
			rng.Read(pat)
			for j := range b {
				b[j] = pat[j%len(pat)]
			}
		case 2: // low-entropy random
			for j := range b {
				b[j] = byte(rng.Intn(4))
			}
		}
		roundTrip(t, b)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		comp := Compress(nil, b)
		dst := make([]byte, len(b))
		n, err := Decompress(dst, comp)
		return err == nil && n == len(b) && bytes.Equal(dst[:n], b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompressionActuallyCompresses(t *testing.T) {
	src := bytes.Repeat([]byte("abcdefgh"), 10000)
	comp := Compress(nil, src)
	if len(comp) >= len(src)/10 {
		t.Errorf("repetitive data compressed to %d of %d", len(comp), len(src))
	}
}

func TestOverlappingMatches(t *testing.T) {
	// RLE-style data forces offset < matchLen overlapping copies.
	src := append([]byte("x"), bytes.Repeat([]byte("y"), 300)...)
	roundTrip(t, src)
}

func TestDecompressCorruptInput(t *testing.T) {
	src := []byte(strings.Repeat("data data data ", 100))
	comp := Compress(nil, src)
	dst := make([]byte, len(src))
	// Truncations must error, not panic.
	for cut := 1; cut < len(comp); cut += 7 {
		if _, err := Decompress(dst, comp[:cut]); err == nil {
			// Some prefixes happen to decode as shorter valid streams; that
			// is fine as long as nothing panics, but a full-length success
			// would be suspicious.
			continue
		}
	}
	// Bad offset: handcrafted token demanding a match before the start.
	bad := []byte{0x10, 'a', 0xFF, 0xFF, 0x00}
	if _, err := Decompress(dst, bad); err == nil {
		t.Error("invalid offset not detected")
	}
}

// TestCompressorReuse: what a Compressor compressed before — including a
// base offset about to wrap — leaves no trace in the next block's bytes.
func TestCompressorReuse(t *testing.T) {
	var c Compressor
	for round := 0; round < 3; round++ {
		if round == 2 {
			c.base = math.MaxUint32 - 5000
		}
		for name, raw := range pinCorpus() {
			if got, want := c.Compress(nil, raw), Compress(nil, raw); !bytes.Equal(got, want) {
				t.Fatalf("round %d, %s: reused compressor wrote %d bytes, a fresh one %d (or differs in content)", round, name, len(got), len(want))
			}
		}
	}
}
