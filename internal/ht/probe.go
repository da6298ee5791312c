package ht

import (
	"photon/internal/vector"
)

// The batched probe loop. The first pass runs in prefetch windows of
// probeWindow rows: phase 1 computes bucket slots and issues the directory
// loads for the whole window back-to-back, so the hardware overlaps their
// cache misses (memory-level parallelism, §4.4/§5); phase 2 compares the
// candidate entries against the lookup keys. Rows whose candidate fails the
// key comparison advance their bucket index by quadratic probing and move to
// a pending list that loops until empty. A call runs over one batch from
// start to end: the operators above check cancellation between batches, and
// a batch is never larger than its task's batch size.

// FindOrInsert locates or creates an entry for every active row.
// rowIDs[i] (physical indexing) receives the entry id; inserted[i] is set
// when this call created the entry. Used by hash aggregation: newly inserted
// entries need their aggregation state initialized. The error is always nil.
func (t *Table) FindOrInsert(keys []*vector.Vector, hashes []uint64, sel []int32, n int, rowIDs []int32, inserted []bool) error {
	t.maybeGrowFor(n)
	t.ensureScratch(n)

	pending := t.pending[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			pending = append(pending, int32(i))
		}
	} else {
		pending = append(pending, sel...)
	}
	mask := t.mask
	for _, i := range pending {
		t.step[i] = 0
		inserted[i] = false
		t.slots[i] = int32(hashes[i] & mask)
	}

	// First pass in prefetch windows. Unlike Find, inserts mutate the bucket
	// directory mid-window, so the phase-1 loads only warm the cache and
	// phase 2 re-reads the authoritative bucket — a duplicate key later in
	// the window must observe the entry its twin just inserted.
	next := t.scratch[:0]
	for lo := 0; lo < len(pending); lo += probeWindow {
		hi := min(lo+probeWindow, len(pending))
		win := pending[lo:hi]
		for _, i := range win {
			t.cand[i] = t.buckets[t.slots[i]]
		}
		for _, i := range win {
			s := t.slots[i]
			cand := t.buckets[s]
			if cand == emptyBucket {
				row := t.appendRow(hashes[i])
				t.storeKey(row, keys, int(i))
				t.buckets[s] = row
				t.numHeads++
				rowIDs[i] = row
				inserted[i] = true
				continue
			}
			// Column-by-column key comparison.
			if t.RowHash(cand) == hashes[i] && t.keyEqual(cand, keys, int(i)) {
				rowIDs[i] = cand
				continue
			}
			// Mismatch: advance by quadratic probing, stay pending.
			t.step[i] = 1
			t.slots[i] = int32((uint64(s) + 1) & mask)
			next = append(next, i)
		}
	}
	pending, t.scratch = next, pending

	for len(pending) > 0 {
		next := t.scratch[:0]
		for _, i := range pending {
			s := t.slots[i]
			cand := t.buckets[s]
			if cand == emptyBucket {
				row := t.appendRow(hashes[i])
				t.storeKey(row, keys, int(i))
				t.buckets[s] = row
				t.numHeads++
				rowIDs[i] = row
				inserted[i] = true
				continue
			}
			if t.RowHash(cand) == hashes[i] && t.keyEqual(cand, keys, int(i)) {
				rowIDs[i] = cand
				continue
			}
			t.step[i]++
			t.slots[i] = int32((uint64(s) + uint64(t.step[i])) & mask)
			next = append(next, i)
		}
		pending, t.scratch = next, pending
	}
	t.pending = pending[:0]
	return nil
}

// Find locates entries for every active row without inserting; rowIDs[i]
// receives the chain-head entry id or -1 when the key is absent. This is the
// join probe path.
//
// The first pass runs in two-phase prefetch windows — compute slots and load
// every candidate back-to-back, then compare and resolve — with only
// mismatches falling into the pending-list machinery. With a healthy load
// factor, nearly every row resolves in that first pass. Find never mutates
// the directory, so the phase-1 loads are authoritative. The error is always
// nil.
func (t *Table) Find(keys []*vector.Vector, hashes []uint64, sel []int32, n int, rowIDs []int32) error {
	t.ensureScratch(n)
	slots, cand, step := t.slots, t.cand, t.step
	pending := t.pending[:0]
	buckets, rowHash, mask := t.buckets, t.rowHash, t.mask
	if sel == nil {
		for lo := 0; lo < n; lo += probeWindow {
			hi := min(lo+probeWindow, n)
			for i := lo; i < hi; i++ {
				s := int32(hashes[i] & mask)
				slots[i] = s
				cand[i] = buckets[s]
			}
			for i := lo; i < hi; i++ {
				c := cand[i]
				if c == emptyBucket {
					rowIDs[i] = emptyBucket
					continue
				}
				if rowHash[c>>PageShift][c&PageMask] == hashes[i] && t.keyEqual(c, keys, i) {
					rowIDs[i] = c
					continue
				}
				step[i] = 1
				slots[i] = int32((uint64(slots[i]) + 1) & mask)
				pending = append(pending, int32(i))
			}
		}
	} else {
		for lo := 0; lo < len(sel); lo += probeWindow {
			hi := min(lo+probeWindow, len(sel))
			win := sel[lo:hi]
			for _, i := range win {
				s := int32(hashes[i] & mask)
				slots[i] = s
				cand[i] = buckets[s]
			}
			for _, i := range win {
				c := cand[i]
				if c == emptyBucket {
					rowIDs[i] = emptyBucket
					continue
				}
				if rowHash[c>>PageShift][c&PageMask] == hashes[i] && t.keyEqual(c, keys, int(i)) {
					rowIDs[i] = c
					continue
				}
				step[i] = 1
				slots[i] = int32((uint64(slots[i]) + 1) & mask)
				pending = append(pending, i)
			}
		}
	}
	for len(pending) > 0 {
		next := t.scratch[:0]
		for _, i := range pending {
			c := t.buckets[slots[i]]
			if c == emptyBucket {
				rowIDs[i] = emptyBucket
				continue
			}
			if t.RowHash(c) == hashes[i] && t.keyEqual(c, keys, int(i)) {
				rowIDs[i] = c
				continue
			}
			step[i]++
			slots[i] = int32((uint64(slots[i]) + uint64(step[i])) & t.mask)
			next = append(next, i)
		}
		pending, t.scratch = next, pending
	}
	t.pending = pending[:0]
	return nil
}

// FindScalar is the scalar-at-a-time probe used by the vectorized-vs-scalar
// ablation bench: one full probe sequence per row before moving to the next
// row, so cache misses serialize.
func (t *Table) FindScalar(keys []*vector.Vector, hashes []uint64, sel []int32, n int, rowIDs []int32) {
	body := func(i int32) {
		slot := hashes[i] & t.mask
		step := uint64(0)
		for {
			cand := t.buckets[slot]
			if cand == emptyBucket {
				rowIDs[i] = emptyBucket
				return
			}
			if t.RowHash(cand) == hashes[i] && t.keyEqual(cand, keys, int(i)) {
				rowIDs[i] = cand
				return
			}
			step++
			slot = (slot + step) & t.mask
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			body(int32(i))
		}
	} else {
		for _, i := range sel {
			body(i)
		}
	}
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
