// Package mem implements Photon's three-tier memory management (§4.5, §5.3):
//
//   - an MRU buffer pool caching transient column batches so the fixed
//     per-input-batch allocation pattern of a query reuses hot memory;
//   - an append-only arena for variable-length data (string payloads) that
//     is freed wholesale before each new input batch;
//   - a unified memory Manager that separates reservations from allocations
//     and implements Spark's spill policy, so operators (and the baseline
//     engine) share one consistent view of memory and can spill on behalf of
//     one another ("recursive spill").
package mem

// Arena is an append-only variable-length allocator. All memory is released
// at once by Reset, which an operator calls before it takes each new input
// batch. Allocations are tracked so the engine could shrink batch sizes when
// large strings appear (§4.5). The zero Arena is ready to use and grows in
// DefaultArenaChunk steps.
type Arena struct {
	chunks    [][]byte
	cur       []byte
	off       int
	chunkSize int
	used      int64
}

// DefaultArenaChunk is the granularity of arena growth.
const DefaultArenaChunk = 64 << 10

// NewArena returns an arena that grows in chunkSize steps (0 = default).
func NewArena(chunkSize int) *Arena {
	if chunkSize <= 0 {
		chunkSize = DefaultArenaChunk
	}
	return &Arena{chunkSize: chunkSize}
}

// Alloc returns an n-byte slice valid until the next Reset.
func (a *Arena) Alloc(n int) []byte {
	if n == 0 {
		return nil
	}
	if a.off+n > len(a.cur) {
		size := a.chunkSize
		if size == 0 {
			size = DefaultArenaChunk
		}
		if n > size {
			size = n
		}
		a.cur = make([]byte, size)
		a.chunks = append(a.chunks, a.cur)
		a.off = 0
	}
	out := a.cur[a.off : a.off+n : a.off+n]
	a.off += n
	a.used += int64(n)
	return out
}

// Copy allocates and fills a copy of src.
func (a *Arena) Copy(src []byte) []byte {
	dst := a.Alloc(len(src))
	copy(dst, src)
	return dst
}

// Used returns bytes handed out since the last Reset.
func (a *Arena) Used() int64 { return a.used }

// Footprint returns total bytes held by the arena's chunks.
func (a *Arena) Footprint() int64 {
	var n int64
	for _, c := range a.chunks {
		n += int64(len(c))
	}
	return n
}

// Reset releases all allocations at once, retaining the most recent chunk
// for reuse (keeping hot memory in use across batches).
func (a *Arena) Reset() {
	if len(a.chunks) > 0 {
		last := a.chunks[len(a.chunks)-1]
		a.chunks = a.chunks[:1]
		a.chunks[0] = last
		a.cur = last
	}
	a.off = 0
	a.used = 0
}
