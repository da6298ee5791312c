package ht

import (
	"photon/internal/vector"
)

// The probe loop works a window of rows at a time. Phase 1 issues the
// window's directory loads back to back, so the hardware overlaps their cache
// misses (memory-level parallelism, §4.4/§5). Phase 2 settles each row whose
// candidate is its key's entry or empty: a hit, an absent key, or an insert.
// A row whose candidate holds another key goes to a pending list of (row,
// slot, step) and probes on quadratically; the list drains before the next
// window starts. A call runs over one batch from start to end: the operators
// above check cancellation between batches, and a batch is never larger than
// its task's batch size.

// probeRow is a row still probing: the entry at slot is its next candidate,
// step slots past the one before.
type probeRow struct{ i, slot, step int32 }

// FindOrInsert locates or creates an entry for every active row.
// rowIDs[i] (physical indexing) receives the entry id; inserted[i] is set
// when this call created the entry. Used by hash aggregation: newly inserted
// entries need their aggregation state initialized. The error is always nil.
func (t *Table) FindOrInsert(keys []*vector.Vector, hashes []uint64, sel []int32, n int, rowIDs []int32, inserted []bool) error {
	t.maybeGrowFor(n)
	t.probe(keys, hashes, sel, n, rowIDs, inserted, probeWindow)
	return nil
}

// Find locates entries for every active row without inserting; rowIDs[i]
// receives the chain-head entry id or -1 when the key is absent. This is the
// join probe path. The error is always nil.
func (t *Table) Find(keys []*vector.Vector, hashes []uint64, sel []int32, n int, rowIDs []int32) error {
	t.probe(keys, hashes, sel, n, rowIDs, nil, probeWindow)
	return nil
}

// FindScalar is the scalar-at-a-time probe used by the vectorized-vs-scalar
// ablation bench: the probe loop with a window of one row, so each row's
// probe sequence ends before the next row's load is issued and cache misses
// serialize.
func (t *Table) FindScalar(keys []*vector.Vector, hashes []uint64, sel []int32, n int, rowIDs []int32) {
	t.probe(keys, hashes, sel, n, rowIDs, nil, 1)
}

// probe resolves every active row in windows of width rows. With inserted
// nil it only finds, and an absent key gets -1; otherwise it inserts absent
// keys and reports in inserted[i] whether it did.
func (t *Table) probe(keys []*vector.Vector, hashes []uint64, sel []int32, n int, rowIDs []int32, inserted []bool, width int) {
	if sel != nil {
		n = len(sel)
	}
	if w := min(n, width); cap(t.cand) < w {
		t.cand = make([]int32, w)
	}
	buckets, shift, mask := t.buckets, t.shift, t.mask
	pend := t.pend[:0]
	for lo := 0; lo < n; lo += width {
		cand := t.cand[:min(n-lo, width)]
		loadWindow(cand, buckets, hashes, sel, lo, shift)
		rowHash := t.rowHash // an insert may add a page; reloaded after one
		for k, c := range cand {
			i := lo + k
			if sel != nil {
				i = int(sel[i])
			}
			h := hashes[i]
			if c == emptyBucket && inserted != nil {
				c = buckets[h>>shift] // an insert earlier in the window may have filled it
			}
			switch {
			case c != emptyBucket && rowHash[c>>PageShift][c&PageMask] == h && t.keyEqual(c, keys, i):
				rowIDs[i] = c
				if inserted != nil {
					inserted[i] = false
				}
			case c != emptyBucket:
				pend = append(pend, probeRow{int32(i), int32((h>>shift + 1) & mask), 1})
			case inserted == nil:
				rowIDs[i] = emptyBucket
			default:
				rowIDs[i], inserted[i] = t.insert(int32(h>>shift), keys, h, i), true
				rowHash = t.rowHash
			}
		}
		for len(pend) > 0 {
			keep := pend[:0]
			for _, p := range pend {
				i, h := int(p.i), hashes[p.i]
				switch c := buckets[p.slot]; {
				case c == emptyBucket && inserted == nil:
					rowIDs[i] = emptyBucket
				case c == emptyBucket:
					rowIDs[i], inserted[i] = t.insert(p.slot, keys, h, i), true
				case t.RowHash(c) == h && t.keyEqual(c, keys, i):
					rowIDs[i] = c
					if inserted != nil {
						inserted[i] = false
					}
				default:
					p.step++
					p.slot = int32((uint64(p.slot) + uint64(p.step)) & mask)
					keep = append(keep, p)
				}
			}
			pend = keep
		}
	}
	t.pend = pend
}

// loadWindow is phase 1: cand[k] receives the entry in the home slot of the
// window's k-th active row, counting from active row lo. A loop of its own,
// specialized to a dense batch, keeps these loads back to back.
func loadWindow(cand, buckets []int32, hashes []uint64, sel []int32, lo int, shift uint) {
	if sel == nil {
		for k, h := range hashes[lo : lo+len(cand)] {
			cand[k] = buckets[h>>shift]
		}
		return
	}
	for k, i := range sel[lo : lo+len(cand)] {
		cand[k] = buckets[hashes[i]>>shift]
	}
}

// insert makes batch row i's key a new chain head in directory slot s.
func (t *Table) insert(s int32, keys []*vector.Vector, h uint64, i int) int32 {
	row := t.appendRow(h)
	t.storeKey(row, keys, i)
	t.buckets[s] = row
	t.numHeads++
	return row
}

// InsertDup inserts every active row, chaining duplicate keys (join build
// side). Use Find + Next to iterate matches. The error is always nil.
func (t *Table) InsertDup(keys []*vector.Vector, hashes []uint64, sel []int32, n int, rowIDs []int32, inserted []bool) error {
	// First resolve chain heads (insert when absent)...
	if err := t.FindOrInsert(keys, hashes, sel, n, rowIDs, inserted); err != nil {
		return err
	}
	// ...then rows that mapped to an existing head become chain links.
	link := func(i int32) {
		if inserted[i] {
			return
		}
		if t.next == nil {
			t.next = make([][]int32, 0, len(t.rowHash))
			t.growLinks()
		}
		head := rowIDs[i]
		row := t.appendRow(hashes[i])
		t.storeKey(row, keys, int(i))
		// Push-front keeps linking O(1); match order is not defined for
		// hash joins.
		link := &t.next[head>>PageShift][head&PageMask]
		t.next[row>>PageShift][row&PageMask] = *link
		*link = row
		rowIDs[i] = row
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			link(int32(i))
		}
	} else {
		for _, i := range sel {
			link(i)
		}
	}
	return nil
}

// Next returns the next entry in row's duplicate chain, or -1. A table
// whose keys are all distinct answers without loading the link.
func (t *Table) Next(row int32) int32 {
	if t.numHeads == t.numRows {
		return -1
	}
	return t.next[row>>PageShift][row&PageMask]
}

// maybeGrowFor grows the bucket directory, in one step, if inserting up to n
// new keys could exceed the load factor.
func (t *Table) maybeGrowFor(n int) {
	size := uint64(len(t.buckets))
	for float64(t.numHeads+n) > loadFactor*float64(size) {
		size *= 2
	}
	if size > uint64(len(t.buckets)) {
		t.grow(size)
	}
}
