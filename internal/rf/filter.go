package rf

import (
	"math"
	"math/bits"

	"photon/internal/kernels"
	"photon/internal/types"
	"photon/internal/vector"
)

// ColFilter is the runtime filter for one join-key column. Integer keys
// (Int32, Date, Int64, Timestamp) start as an exact set: a bitset over the
// 64-key words that cover [min, max]. A probe is then a range check and one
// bit test, with no hash and no false positives. When the keys span more
// bits than the Bloom filter the column is sized for, the set turns into that
// Bloom, so it never takes more memory than the Bloom would. Every other key
// type is a Bloom from the start. A Bloom filter hashes single-column keys
// with kernels.HashKeys on both the build and the probe side, so a probe key
// equal to some build key always hashes identically (no false negatives by
// construction); orderable keys add a min/max envelope in front of it.
type ColFilter struct {
	Type types.DataType
	// N counts the non-NULL build keys folded in. N == 0 means the build
	// side produced no joinable rows: the probe side matches nothing.
	N int64

	// bloom is nil while the filter is an exact set. bloomBits is its size
	// when there is one, and an exact set's limit.
	bloom     *Bloom
	bloomBits int64

	// Exact set: key x is in it iff bit x&63 of set[x>>6-w0] is on. The set
	// covers at least the words of [minI, maxI].
	w0  int64
	set []uint64

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

// narrow reports whether an integer key type is stored in 32 bits.
func narrow(t types.DataType) bool { return t.ID == types.Int32 || t.ID == types.Date }

// NewColFilter builds an empty column filter sized for expectedKeys, or nil
// when the key type is unsupported (the column then passes everything).
func NewColFilter(t types.DataType, expectedKeys int64) *ColFilter {
	if !Supported(t) {
		return nil
	}
	c := &ColFilter{Type: t, bloomBits: bloomBits(expectedKeys)}
	switch t.ID {
	case types.Int32, types.Date, types.Int64, types.Timestamp:
	default:
		c.bloom = newBloom(c.bloomBits)
	}
	return c
}

// exact reports whether the filter is an exact set: it passes only the keys
// it was given.
func (c *ColFilter) exact() bool { return c.bloom == nil }

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
	if c.bloom == nil {
		var added bool
		if narrow(c.Type) {
			added = addExact(c, v.I32, v, sel, n)
		} else {
			added = addExact(c, v.I64, v, sel, n)
		}
		if added {
			return
		}
		c.toBloom()
	}
	hashes := s.hash(v, sel, n)
	nulls := v.HasNulls()
	add := func(i int32) {
		if nulls && v.Nulls[i] != 0 {
			return
		}
		c.bloom.Add(hashes[i])
		c.N++
		c.observeRange(v, i)
	}
	apply(sel, n, add)
}

// addExact sets the bits of one batch's keys, or reports false, having added
// nothing, when the set would then take more bits than the Bloom.
func addExact[T int32 | int64](c *ColFilter, xs []T, v *vector.Vector, sel []int32, n int) bool {
	nulls := v.HasNulls()
	lo, hi, keys := int64(math.MaxInt64), int64(math.MinInt64), int64(0)
	apply(sel, n, func(i int32) {
		if nulls && v.Nulls[i] != 0 {
			return
		}
		x := int64(xs[i])
		lo, hi, keys = min(lo, x), max(hi, x), keys+1
	})
	if keys == 0 {
		return true
	}
	if c.hasRange {
		lo, hi = min(lo, c.minI), max(hi, c.maxI)
	}
	if !c.cover(lo, hi) {
		return false
	}
	w0, set := c.w0, c.set
	apply(sel, n, func(i int32) {
		if nulls && v.Nulls[i] != 0 {
			return
		}
		x := int64(xs[i])
		set[x>>6-w0] |= 1 << (x & 63)
	})
	c.N += keys
	c.minI, c.maxI, c.hasRange = lo, hi, true
	return true
}

// cover re-bases and grows the exact set so that it covers the keys lo..hi
// (which include every key it holds), or reports false when that takes more
// bits than the Bloom. A set that grows at least doubles, up to that limit,
// and leaves its new room on the side it grew towards.
func (c *ColFilter) cover(lo, hi int64) bool {
	lw, hw := lo>>6, hi>>6
	span, limit := hw-lw+1, c.bloomBits/64
	if span > limit {
		return false
	}
	size := int64(len(c.set))
	if size > 0 && lw >= c.w0 && hw < c.w0+size {
		return true
	}
	size = max(span, min(2*size, limit))
	w0 := lw
	if len(c.set) > 0 && lw < c.w0 {
		w0 = max(hw-size+1, math.MinInt64>>6)
	}
	set := make([]uint64, size)
	if len(c.set) > 0 {
		copy(set[c.minI>>6-w0:], c.set[c.minI>>6-c.w0:c.maxI>>6-c.w0+1])
	}
	c.w0, c.set = w0, set
	return true
}

// toBloom turns the exact set into the Bloom filter.
func (c *ColFilter) toBloom() { c.bloom, c.set = c.setBloom(), nil }

// setBloom returns a Bloom filter holding the exact set's keys, each hashed
// as the probe side hashes a key of the column's type.
func (c *ColFilter) setBloom() *Bloom {
	b := newBloom(c.bloomBits)
	var s HashScratch
	keys, k := vector.New(c.Type, 1024), 0
	flush := func() {
		for _, h := range s.hash(keys, nil, k)[:k] {
			b.Add(h)
		}
		k = 0
	}
	for i, w := range c.set {
		for ; w != 0; w &= w - 1 {
			x := (c.w0+int64(i))<<6 | int64(bits.TrailingZeros64(w))
			if narrow(c.Type) {
				keys.I32[k] = int32(x)
			} else {
				keys.I64[k] = x
			}
			if k++; k == len(keys.Nulls) {
				flush()
			}
		}
	}
	flush()
	return b
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
// key: non-NULL and in the exact set, or inside the range envelope and
// present in the Bloom filter. out is reset; the returned slice aliases it.
func (c *ColFilter) ProbeVec(v *vector.Vector, sel []int32, n int, s *HashScratch, out []int32) []int32 {
	out = out[:0]
	if c.N == 0 {
		return out // empty build side: nothing can join
	}
	if c.bloom == nil {
		if narrow(c.Type) {
			return probeExact(c, v.I32, v, sel, n, out)
		}
		return probeExact(c, v.I64, v, sel, n, out)
	}
	hashes := s.hash(v, sel, n)
	switch {
	case !c.hasRange:
		return probeBloom[int64](c, v, nil, 0, 0, hashes, sel, n, out)
	case narrow(c.Type):
		return probeBloom(c, v, v.I32, int32(c.minI), int32(c.maxI), hashes, sel, n, out)
	case c.Type.ID == types.Float64:
		return probeBloom(c, v, v.F64, c.minF, c.maxF, hashes, sel, n, out)
	}
	return probeBloom(c, v, v.I64, c.minI, c.maxI, hashes, sel, n, out)
}

// probeBloom appends the active non-NULL rows whose value is in [lo, hi]
// (every row when xs is nil) and whose hash the Bloom filter may hold.
func probeBloom[T int32 | int64 | float64](c *ColFilter, v *vector.Vector, xs []T, lo, hi T, hashes []uint64, sel []int32, n int, out []int32) []int32 {
	nulls := v.HasNulls()
	apply(sel, n, func(i int32) {
		if nulls && v.Nulls[i] != 0 || xs != nil && (xs[i] < lo || xs[i] > hi) || !c.bloom.MayContain(hashes[i]) {
			return
		}
		out = append(out, i)
	})
	return out
}

// probeExact appends the active rows whose key is in the exact set. One
// unsigned compare keeps a key inside [set base, maxI], where its bit can be
// loaded.
func probeExact[T int32 | int64](c *ColFilter, xs []T, v *vector.Vector, sel []int32, n int, out []int32) []int32 {
	base, set, nulls := uint64(c.w0<<6), c.set, v.HasNulls()
	limit := uint64(c.maxI) - base
	hit := func(i int32) bool {
		off := uint64(int64(xs[i])) - base
		return off <= limit && set[off>>6]&(1<<(off&63)) != 0 && !(nulls && v.Nulls[i] != 0)
	}
	if sel == nil {
		for i := int32(0); i < int32(n); i++ {
			if hit(i) {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range sel {
		if hit(i) {
			out = append(out, i)
		}
	}
	return out
}

// Merge widens c with another task's partial filter over the same column.
// Two exact sets whose union fits stay one; any other pair is unioned as
// Bloom filters. o is not changed.
func (c *ColFilter) Merge(o *ColFilter) {
	if o == nil {
		return
	}
	if c.bloom == nil && o.bloom == nil {
		if o.N == 0 {
			return
		}
		lo, hi := o.minI, o.maxI
		if c.hasRange {
			lo, hi = min(lo, c.minI), max(hi, c.maxI)
		}
		if c.cover(lo, hi) {
			dst := c.set[o.minI>>6-c.w0:]
			for i, w := range o.set[o.minI>>6-o.w0 : o.maxI>>6-o.w0+1] {
				dst[i] |= w
			}
			c.N += o.N
			c.minI, c.maxI, c.hasRange = lo, hi, true
			return
		}
	}
	if c.bloom == nil {
		c.toBloom()
	}
	ob := o.bloom
	if ob == nil {
		ob = o.setBloom()
	}
	if !c.bloom.Union(ob) {
		// Size mismatch (should not happen: tasks size from one estimate).
		// Degrade to pass-everything by saturating the filter.
		for i := range c.bloom.words {
			c.bloom.words[i] = ^uint32(0)
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

// Keys reports the most non-NULL build keys any column folded in, how many
// the column Blooms were sized for (more keys than that and a Bloom passes
// rows it was built to reject), and whether every column is an exact set.
func (f *Filter) Keys() (keys, sizedFor int64, exact bool) {
	exact = true
	for _, c := range f.Cols {
		if c != nil {
			keys, sizedFor = max(keys, c.N), c.bloomBits/BitsPerKey
			exact = exact && c.exact()
		}
	}
	return keys, sizedFor, exact
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
