package rf

import (
	"math"

	"photon/internal/kernels"
	"photon/internal/types"
	"photon/internal/vector"
)

// ColFilter is the runtime filter for one join-key column: an exact-ish
// value-range envelope plus a Bloom filter over single-column key hashes.
// The hash function is HashVec on both the build and probe side, so a probe
// key equal to some build key always hashes identically (no false
// negatives by construction).
type ColFilter struct {
	Type types.DataType
	// N counts the non-NULL build keys folded in. N == 0 means the build
	// side produced no joinable rows: the probe side matches nothing.
	N     int64
	Bloom *Bloom

	// Range envelope for orderable fixed-width keys (ints, dates,
	// timestamps, floats). hasRange is false until the first key arrives
	// and permanently false for unordered types (strings, bools) and for
	// float columns that observed a NaN.
	hasRange   bool
	rangeDead  bool
	minI, maxI int64
	minF, maxF float64
}

// Supported reports whether runtime filters can be built over keys of t.
func Supported(t types.DataType) bool {
	switch t.ID {
	case types.Bool, types.Int32, types.Int64, types.Date, types.Timestamp,
		types.Float64, types.String:
		return true
	}
	return false // Decimal et al.: the column passes everything
}

// ranged reports whether t keeps a min/max envelope.
func ranged(t types.DataType) bool {
	switch t.ID {
	case types.Int32, types.Int64, types.Date, types.Timestamp, types.Float64:
		return true
	}
	return false
}

// NewColFilter builds an empty column filter sized for expectedKeys, or nil
// when the key type is unsupported (the column then passes everything).
func NewColFilter(t types.DataType, expectedKeys int64) *ColFilter {
	if !Supported(t) {
		return nil
	}
	return &ColFilter{Type: t, Bloom: NewBloom(expectedKeys)}
}

// HashScratch holds the per-operator scratch buffers of the hashing and
// probing loops (a task-local object, never shared).
type HashScratch struct {
	key    [1]*vector.Vector
	hashes []uint64
	lanes  []uint64
}

// hash hashes one key column's active rows into the scratch hash array
// (indexed by physical row) with the join's key hash, so a key hashes here
// as it does in the join's table.
func (s *HashScratch) hash(v *vector.Vector, sel []int32, n int) []uint64 {
	if len(s.hashes) < n {
		s.hashes = make([]uint64, n)
	}
	s.key[0] = v
	s.lanes = kernels.HashKeys(s.key[:], sel, n, s.hashes, s.lanes)
	return s.hashes
}

// apply visits the active rows.
func apply(sel []int32, n int, f func(int32)) {
	if sel == nil {
		for i := 0; i < n; i++ {
			f(int32(i))
		}
		return
	}
	for _, i := range sel {
		f(i)
	}
}

// AddVec folds one batch's key column into the filter. NULL keys are
// skipped: an equi-join can never match them, so the probe side is free to
// drop its own NULL keys. sel/n follow the batch position-list convention.
func (c *ColFilter) AddVec(v *vector.Vector, sel []int32, n int, s *HashScratch) {
	hashes := s.hash(v, sel, n)
	nulls := v.HasNulls()
	add := func(i int32) {
		if nulls && v.Nulls[i] != 0 {
			return
		}
		c.Bloom.Add(hashes[i])
		c.N++
		c.observeRange(v, i)
	}
	apply(sel, n, add)
}

// observeRange widens the envelope with row i's value.
func (c *ColFilter) observeRange(v *vector.Vector, i int32) {
	if c.rangeDead {
		return
	}
	if !ranged(c.Type) {
		c.rangeDead = true
		return
	}
	switch c.Type.ID {
	case types.Int32, types.Date:
		c.observeI(int64(v.I32[i]))
	case types.Int64, types.Timestamp:
		c.observeI(v.I64[i])
	case types.Float64:
		f := v.F64[i]
		if math.IsNaN(f) {
			// NaN breaks ordering; give up on the range, keep the Bloom.
			c.hasRange = false
			c.rangeDead = true
			return
		}
		if !c.hasRange || f < c.minF {
			c.minF = f
		}
		if !c.hasRange || f > c.maxF {
			c.maxF = f
		}
		c.hasRange = true
	}
}

func (c *ColFilter) observeI(x int64) {
	if !c.hasRange || x < c.minI {
		c.minI = x
	}
	if !c.hasRange || x > c.maxI {
		c.maxI = x
	}
	c.hasRange = true
}

// ProbeVec appends to out the active rows of v that may match some build
// key: non-NULL, inside the range envelope, and present in the Bloom
// filter. out is reset; the returned slice aliases it.
func (c *ColFilter) ProbeVec(v *vector.Vector, sel []int32, n int, s *HashScratch, out []int32) []int32 {
	out = out[:0]
	if c.N == 0 {
		return out // empty build side: nothing can join
	}
	hashes := s.hash(v, sel, n)
	nulls := v.HasNulls()
	switch {
	case c.hasRange && (c.Type.ID == types.Int32 || c.Type.ID == types.Date):
		lo, hi := int32(c.minI), int32(c.maxI)
		apply(sel, n, func(i int32) {
			if nulls && v.Nulls[i] != 0 {
				return
			}
			x := v.I32[i]
			if x < lo || x > hi || !c.Bloom.MayContain(hashes[i]) {
				return
			}
			out = append(out, i)
		})
	case c.hasRange && (c.Type.ID == types.Int64 || c.Type.ID == types.Timestamp):
		lo, hi := c.minI, c.maxI
		apply(sel, n, func(i int32) {
			if nulls && v.Nulls[i] != 0 {
				return
			}
			x := v.I64[i]
			if x < lo || x > hi || !c.Bloom.MayContain(hashes[i]) {
				return
			}
			out = append(out, i)
		})
	case c.hasRange && c.Type.ID == types.Float64:
		lo, hi := c.minF, c.maxF
		apply(sel, n, func(i int32) {
			if nulls && v.Nulls[i] != 0 {
				return
			}
			x := v.F64[i]
			if x < lo || x > hi || !c.Bloom.MayContain(hashes[i]) {
				return
			}
			out = append(out, i)
		})
	default:
		apply(sel, n, func(i int32) {
			if nulls && v.Nulls[i] != 0 {
				return
			}
			if !c.Bloom.MayContain(hashes[i]) {
				return
			}
			out = append(out, i)
		})
	}
	return out
}

// Merge widens c with another task's partial filter over the same column.
func (c *ColFilter) Merge(o *ColFilter) {
	if o == nil {
		return
	}
	if !c.Bloom.Union(o.Bloom) {
		// Size mismatch (should not happen: tasks size from one estimate).
		// Degrade to pass-everything by saturating the filter.
		for i := range c.Bloom.words {
			c.Bloom.words[i] = ^uint32(0)
		}
	}
	c.N += o.N
	if o.rangeDead {
		c.rangeDead = true
		c.hasRange = false
	}
	if c.rangeDead || !o.hasRange {
		return
	}
	if !c.hasRange {
		c.minI, c.maxI, c.minF, c.maxF = o.minI, o.maxI, o.minF, o.maxF
		c.hasRange = true
		return
	}
	c.minI = min(c.minI, o.minI)
	c.maxI = max(c.maxI, o.maxI)
	c.minF = math.Min(c.minF, o.minF)
	c.maxF = math.Max(c.maxF, o.maxF)
}

// Filter is the runtime filter of one join: one ColFilter per key column
// (nil entries pass everything — unsupported key types).
type Filter struct {
	Cols []*ColFilter
}

// NewFilter sizes an empty filter for the given key types and expected
// build rows. Every producer task must use the same expectedRows so the
// per-task Blooms union cleanly.
func NewFilter(keyTypes []types.DataType, expectedRows int64) *Filter {
	f := &Filter{Cols: make([]*ColFilter, len(keyTypes))}
	for i, t := range keyTypes {
		f.Cols[i] = NewColFilter(t, expectedRows)
	}
	return f
}

// Usable reports whether the filter can reject anything.
func (f *Filter) Usable() bool {
	if f == nil {
		return false
	}
	for _, c := range f.Cols {
		if c != nil {
			return true
		}
	}
	return false
}

// Keys reports the most non-NULL build keys any column folded in, and how
// many the column Blooms were sized for; more keys than that and the filter
// passes rows it was built to reject.
func (f *Filter) Keys() (keys, sizedFor int64) {
	for _, c := range f.Cols {
		if c != nil {
			keys, sizedFor = max(keys, c.N), c.Bloom.NumBits()/BitsPerKey
		}
	}
	return keys, sizedFor
}

// Add folds the key columns of b's rows (sel/n window) into the filter.
func (f *Filter) Add(b *vector.Batch, keyCols []int, sel []int32, n int, s *HashScratch) {
	for k, col := range keyCols {
		if c := f.Cols[k]; c != nil {
			c.AddVec(b.Vecs[col], sel, n, s)
		}
	}
}

// Merge folds another task's partial filter into f.
func (f *Filter) Merge(o *Filter) {
	if o == nil {
		return
	}
	for i, c := range f.Cols {
		if c == nil || i >= len(o.Cols) {
			continue
		}
		if o.Cols[i] == nil {
			// The other task could not track this column; drop ours too.
			f.Cols[i] = nil
			continue
		}
		c.Merge(o.Cols[i])
	}
}
