// Package ht implements Photon's vectorized hash table (§4.4).
//
// Lookups proceed in three steps: (1) a hashing kernel evaluates hashes for
// a batch of keys (package kernels); (2) the probe loop loads the candidate
// entry of a window of rows — the independent loads sit next to each other in
// the loop body so the hardware overlaps the cache misses (memory-level
// parallelism, the paper's main source of join speedup); (3) each candidate
// is compared against its row's key, one row at a time, and the rows whose
// candidate holds another key advance their slot by quadratic probing on a
// pending list. A key's home slot is taken from its hash's high bits: an
// exchange partitions rows by the hash's residue, so the low bits of every
// hash one table sees may be alike.
//
// Entries are stored as rows (null byte + fixed-width value per key column,
// then an opaque payload region), so a single entry index represents a
// composite key. Variable-length key bytes live in a table-owned heap;
// the row stores (offset, length).
//
// Nothing the table stores per entry is ever reallocated ("avoiding copies
// during hash table resizing", §6.2). Rows, retained hashes and chain links
// live in pages of pageRows entries, the heap in pages of heapPageSize
// bytes; a page is allocated once, entry row sits in page row>>PageShift at
// index row&PageMask for the table's lifetime, and growing the table means
// allocating the next page. Only the first page of each kind starts small
// and grows until it is a full page, so a five-row table costs eight rows.
// Chain links exist only once InsertDup links a duplicate: a grouping table
// or a build of distinct keys has none.
// Row hashes are retained so that growing the bucket directory — the one
// structure that is rebuilt — re-links entries without touching row data.
package ht

import (
	"encoding/binary"
	"math"
	"math/bits"

	"photon/internal/types"
	"photon/internal/vector"
)

const (
	emptyBucket  = int32(-1)
	loadFactor   = 0.7
	initialSlots = 64

	// probeWindow is the prefetch-window width for batched probes (§5): the
	// bucket-directory loads for one window are issued back-to-back so the
	// memory system overlaps their cache misses.
	probeWindow = 256

	// Entry storage is paged by entry count, so one shift and mask address an
	// entry's row, hash and chain link alike. 256 entries keep a page of
	// typical rows (17–105 bytes) inside Go's small-object size classes: it
	// comes from the allocating P's cache without the heap lock, a table
	// over-allocates at most one page (a few KB), and the only entries ever
	// copied are the fewer than 256 of a first page still growing.
	PageShift = 8
	pageRows  = 1 << PageShift
	PageMask  = pageRows - 1
	// The first entry page starts at firstPageRows entries and grows ×4 a
	// step (8, 32, 128, 256), so few entries are copied on the way.
	firstPageRows = 8

	// The var-len heap is paged by bytes. A value never straddles pages (at
	// 4 KB that strands well under 2% behind 50-byte values) and one longer
	// than a page gets a page of its own length.
	heapShift     = 12
	heapPageSize  = 1 << heapShift
	heapMask      = heapPageSize - 1
	firstHeapPage = 64

	sliceHeaderBytes = 24
)

// Table is a vectorized open-addressing hash table with quadratic probing.
type Table struct {
	keyTypes []types.DataType
	colOff   []int // byte offset of each key column within a row
	keyWidth int
	rowWidth int // keyWidth + payload width

	buckets []int32
	mask    uint64
	shift   uint // a hash's home slot is hash >> shift

	rows     [][]byte   // entry pages, rowWidth bytes per entry
	rowHash  [][]uint64 // retained hash per entry
	next     [][]int32  // duplicate chain per entry, -1 terminated; nil until a duplicate is linked
	numRows  int
	capRows  int // entries the allocated pages hold
	numHeads int // chain-head entries, i.e. distinct keys

	heap [][]byte // variable-length key/payload bytes; len = bytes used

	pageBytes int64 // bytes allocated in entry and heap pages

	// Probe scratch of one window, reused across calls.
	cand []int32    // candidate entry loaded per row (phase 1)
	pend []probeRow // rows whose candidate held another key
}

// keySlotWidth returns the per-row byte width of one key column
// (1 null byte + value bytes; strings store 4-byte offset + 4-byte length).
func keySlotWidth(t types.DataType) int {
	if t.ID == types.String {
		return 1 + 8
	}
	return 1 + t.FixedWidth()
}

// New creates a table for the given key column types with payloadWidth
// opaque bytes per entry.
func New(keyTypes []types.DataType, payloadWidth int) *Table {
	t := &Table{keyTypes: keyTypes}
	off := 0
	for _, kt := range keyTypes {
		t.colOff = append(t.colOff, off)
		off += keySlotWidth(kt)
	}
	t.keyWidth = off
	t.rowWidth = off + payloadWidth
	t.grow(initialSlots)
	return t
}

// Len returns the number of distinct keys (chain heads). A table filled only
// through FindOrInsert has no duplicates: its entries are 0..Len()-1, in
// insertion order.
func (t *Table) Len() int { return t.numHeads }

// NumRows returns the total number of stored entries including duplicates.
func (t *Table) NumRows() int { return t.numRows }

// RowHash returns the retained key hash of an entry (used by operators to
// partition spilled state consistently across spill epochs).
func (t *Table) RowHash(row int32) uint64 { return t.rowHash[row>>PageShift][row&PageMask] }

// MemoryUsage is the bytes the table has allocated and still holds: entry,
// hash, chain and heap pages at their capacity, the page lists, the bucket
// directory and the probe scratch. Growing the directory briefly holds the
// old one beside the new; nothing else is ever held twice.
func (t *Table) MemoryUsage() int64 {
	lists := cap(t.rows) + cap(t.rowHash) + cap(t.next) + cap(t.heap)
	scratch := cap(t.cand) + cap(t.pend)*3 // a probeRow is three int32s
	return t.pageBytes + int64(lists)*sliceHeaderBytes + int64(len(t.buckets)+scratch)*4
}

// PayloadBytes returns the payload region of an entry row for in-place
// reads/writes by operators (aggregation states, join build columns). The
// slice stays valid while the table lives, except that entries of a table
// still smaller than one page move when that first page doubles.
func (t *Table) PayloadBytes(row int32) []byte {
	base := int(row&PageMask)*t.rowWidth + t.keyWidth
	return t.rows[row>>PageShift][base : base+t.rowWidth-t.keyWidth]
}

// PayloadPages exposes the entry pages for batched in-place payload updates:
// entry r's payload starts at pages[r>>PageShift][int(r&PageMask)*stride+keyOff].
// The page list is a snapshot, to be taken after the batch's inserts: an
// insert may add a page or replace a first page that is still doubling.
func (t *Table) PayloadPages() (pages [][]byte, keyOff, stride int) {
	return t.rows, t.keyWidth, t.rowWidth
}

// HeapBytes resolves a (offset, length) reference into the var-len heap.
func (t *Table) HeapBytes(off, ln uint32) []byte {
	o := off & heapMask
	return t.heap[off>>heapShift][o : o+ln]
}

// AppendHeap copies b into the table heap, returning its (offset, length).
// A value never straddles pages, and a full page takes nothing more, not even
// an empty value: its end offset would read as the start of the next page.
func (t *Table) AppendHeap(b []byte) (uint32, uint32) {
	last := len(t.heap) - 1
	if last < 0 || len(t.heap[last])+len(b) >= cap(t.heap[last]) {
		last = t.growHeap(len(b))
	}
	p := t.heap[last]
	off := uint32(last)<<heapShift | uint32(len(p))
	t.heap[last] = append(p, b...)
	return off, uint32(len(b))
}

// growHeap makes the last heap page one with room for need more bytes and
// returns its index.
func (t *Table) growHeap(need int) int {
	last := len(t.heap) - 1
	if last == 0 && cap(t.heap[0]) < heapPageSize && len(t.heap[0])+need <= heapPageSize {
		old := t.heap[0]
		p := make([]byte, len(old), min(heapPageSize, max(2*cap(old), len(old)+need)))
		copy(p, old)
		t.pageBytes += int64(cap(p) - cap(old))
		t.heap[0] = p
		return 0
	}
	size := heapPageSize
	if last < 0 {
		size = firstHeapPage
	}
	size = max(size, need) // a longer value gets a page of its own
	if last+1 >= 1<<(32-heapShift) {
		panic("ht: var-len heap outgrew its 32-bit references")
	}
	t.heap = append(t.heap, make([]byte, 0, size))
	t.pageBytes += int64(size)
	return last + 1
}

// grow rebuilds the bucket directory at newSize slots, a power of two.
func (t *Table) grow(newSize uint64) {
	buckets := make([]int32, newSize)
	for i := range buckets {
		buckets[i] = emptyBucket
	}
	mask, shift := newSize-1, uint(64-bits.TrailingZeros64(newSize))
	// Re-link every chain head into the new directory using retained hashes.
	relink := func(row int32) {
		slot := t.RowHash(row) >> shift
		step := uint64(1)
		for buckets[slot] != emptyBucket {
			slot = (slot + step) & mask
			step++
		}
		buckets[slot] = row
	}
	if t.numHeads == t.numRows {
		// No duplicates: every entry is a head, walked in storage order.
		for row := int32(0); row < int32(t.numRows); row++ {
			relink(row)
		}
	} else {
		for _, row := range t.buckets {
			if row != emptyBucket {
				relink(row)
			}
		}
	}
	t.buckets, t.mask, t.shift = buckets, mask, shift
}

// appendRow reserves a new entry row, storing its hash, and returns its id.
func (t *Table) appendRow(h uint64) int32 {
	if t.numRows == t.capRows {
		t.growRows()
	}
	row := int32(t.numRows)
	t.numRows++
	t.rowHash[row>>PageShift][row&PageMask] = h
	return row
}

// growRows adds entry capacity: the next full page or, while the first page
// is smaller than one, a first page four times the size — the only time
// stored entries are copied.
func (t *Table) growRows() {
	n, first := pageRows, t.capRows < pageRows
	if first {
		n = min(pageRows, max(firstPageRows, 4*t.capRows))
	}
	rows, hashes := make([]byte, n*t.rowWidth), make([]uint64, n)
	if first && t.capRows > 0 {
		copy(rows, t.rows[0])
		copy(hashes, t.rowHash[0])
		t.rows[0], t.rowHash[0] = rows, hashes
		n -= t.capRows
	} else {
		t.rows, t.rowHash = append(t.rows, rows), append(t.rowHash, hashes)
	}
	t.capRows += n
	t.pageBytes += int64(n) * int64(t.rowWidth+8)
	if t.next != nil {
		t.growLinks()
	}
}

// growLinks gives every entry page its chain links, -1 terminated: each page
// the table has when the first duplicate is linked, then each new page. Only
// the last page that has links can be short of its entry page: the first
// page, grown since.
func (t *Table) growLinks() {
	for p := max(len(t.next)-1, 0); p < len(t.rowHash); p++ {
		n := len(t.rowHash[p])
		if p < len(t.next) && len(t.next[p]) == n {
			continue
		}
		next := make([]int32, n)
		for i := range next {
			next[i] = emptyBucket
		}
		if p < len(t.next) {
			copy(next, t.next[p])
			t.pageBytes -= int64(len(t.next[p])) * 4
			t.next[p] = next
		} else {
			t.next = append(t.next, next)
		}
		t.pageBytes += int64(n) * 4
	}
}

// Slots and values. A slot is a null byte followed by a value; a value is
// the fixed-width value little-endian or, for a string, an (offset, length)
// reference into the table heap. Key columns are slots, and operators lay
// their payloads out with the same two routines (join build columns are
// slots, min/max states are values).

// PutValue writes the non-NULL v[i] at dst, copying a string into the heap.
func (t *Table) PutValue(dst []byte, v *vector.Vector, i int) {
	switch v.Type.ID {
	case types.Bool:
		dst[0] = v.Bool[i]
	case types.Int32, types.Date:
		binary.LittleEndian.PutUint32(dst, uint32(v.I32[i]))
	case types.Int64, types.Timestamp:
		binary.LittleEndian.PutUint64(dst, uint64(v.I64[i]))
	case types.Float64:
		binary.LittleEndian.PutUint64(dst, math.Float64bits(v.F64[i]))
	case types.Decimal:
		binary.LittleEndian.PutUint64(dst, v.Dec[i].Lo)
		binary.LittleEndian.PutUint64(dst[8:], uint64(v.Dec[i].Hi))
	case types.String:
		o, l := t.AppendHeap(v.Str[i])
		binary.LittleEndian.PutUint32(dst, o)
		binary.LittleEndian.PutUint32(dst[4:], l)
	}
}

// GetValue reads the value at src into v[i] and marks it non-NULL. A string
// aliases the heap, which keeps it for as long as the table lives.
func (t *Table) GetValue(src []byte, v *vector.Vector, i int) {
	v.Nulls[i] = 0
	switch v.Type.ID {
	case types.Bool:
		v.Bool[i] = src[0]
	case types.Int32, types.Date:
		v.I32[i] = int32(binary.LittleEndian.Uint32(src))
	case types.Int64, types.Timestamp:
		v.I64[i] = int64(binary.LittleEndian.Uint64(src))
	case types.Float64:
		v.F64[i] = math.Float64frombits(binary.LittleEndian.Uint64(src))
	case types.Decimal:
		v.Dec[i] = types.Decimal128{
			Lo: binary.LittleEndian.Uint64(src),
			Hi: int64(binary.LittleEndian.Uint64(src[8:])),
		}
	case types.String:
		v.Str[i] = t.HeapBytes(binary.LittleEndian.Uint32(src), binary.LittleEndian.Uint32(src[4:]))
	}
}

// PutSlot writes v[i], NULL or not, into slot.
func (t *Table) PutSlot(slot []byte, v *vector.Vector, i int) {
	if v.Nulls[i] != 0 {
		slot[0] = 1
		return
	}
	slot[0] = 0
	t.PutValue(slot[1:], v, i)
}

// GetSlot reads slot into v[i].
func (t *Table) GetSlot(slot []byte, v *vector.Vector, i int) {
	if slot[0] != 0 {
		v.SetNull(i)
		return
	}
	t.GetValue(slot[1:], v, i)
}

// storeKey serializes the key columns of physical row i of the batch into
// entry row `row`.
func (t *Table) storeKey(row int32, keys []*vector.Vector, i int) {
	slots := t.rows[row>>PageShift][int(row&PageMask)*t.rowWidth:]
	for c, off := range t.colOff {
		t.PutSlot(slots[off:], keys[c], i)
	}
}

// keyEqual compares entry row `row` against physical batch row i, column by
// column. NULL keys compare equal to NULL (GROUP BY semantics; join
// operators filter NULL keys before probing).
func (t *Table) keyEqual(row int32, keys []*vector.Vector, i int) bool {
	page := t.rows[row>>PageShift]
	base := int(row&PageMask) * t.rowWidth
	for c, kt := range t.keyTypes {
		off := base + t.colOff[c]
		v := keys[c]
		entryNull := page[off] != 0
		batchNull := v.Nulls[i] != 0
		if entryNull != batchNull {
			return false
		}
		if entryNull {
			continue
		}
		src := page[off+1:]
		switch kt.ID {
		case types.Bool:
			if src[0] != v.Bool[i] {
				return false
			}
		case types.Int32, types.Date:
			if int32(binary.LittleEndian.Uint32(src)) != v.I32[i] {
				return false
			}
		case types.Int64, types.Timestamp:
			if int64(binary.LittleEndian.Uint64(src)) != v.I64[i] {
				return false
			}
		case types.Float64:
			if binary.LittleEndian.Uint64(src) != math.Float64bits(v.F64[i]) {
				return false
			}
		case types.Decimal:
			if binary.LittleEndian.Uint64(src) != v.Dec[i].Lo ||
				int64(binary.LittleEndian.Uint64(src[8:])) != v.Dec[i].Hi {
				return false
			}
		case types.String:
			o := binary.LittleEndian.Uint32(src)
			l := binary.LittleEndian.Uint32(src[4:])
			if string(t.HeapBytes(o, l)) != string(v.Str[i]) {
				return false
			}
		}
	}
	return true
}

// ReadKey decodes key column c of an entry row into vector v at position i
// (used to emit grouping keys and build-side columns).
func (t *Table) ReadKey(row int32, c int, v *vector.Vector, i int) {
	t.GetSlot(t.rows[row>>PageShift][int(row&PageMask)*t.rowWidth+t.colOff[c]:], v, i)
}

// KeyBytes returns key column c of an entry as stored: the fixed-width
// value little-endian, or a string's bytes. The column must not be NULL there.
func (t *Table) KeyBytes(row int32, c int) []byte {
	src := t.rows[row>>PageShift][int(row&PageMask)*t.rowWidth+t.colOff[c]+1:]
	if kt := t.keyTypes[c]; kt.ID != types.String {
		return src[:kt.FixedWidth()]
	}
	return t.HeapBytes(binary.LittleEndian.Uint32(src), binary.LittleEndian.Uint32(src[4:]))
}
