package expr

import (
	"photon/internal/kernels"
	"photon/internal/vector"
)

// Narrow-decimal (int64) qualification. Decimal arithmetic has one evaluator,
// the 128-bit kernels of Arith.evalDecimal; what reads a decimal vector's low
// limbs only — the narrow compare and cast kernels here, HashAgg's
// pre-aggregation scratch in package exec — first asks whether every value
// fits an int64. Physical representation stays []Decimal128 everywhere.

// dec64Qualified reports whether v can feed a narrow kernel: statically
// when the declared precision guarantees int64 (≤ 18 digits fit), adaptively
// via batch metadata or the check kernel otherwise.
func (c *Ctx) dec64Qualified(v *vector.Vector, sel []int32, n int) bool {
	if p := v.Type.Precision; p > 0 && p <= 18 {
		return true
	}
	return c.decFits64(v, sel, n)
}

// Dec64Qualified is the exported form of dec64Qualified for operator fast
// paths outside this package (HashAgg's int64 pre-aggregation scratch).
func (c *Ctx) Dec64Qualified(v *vector.Vector, sel []int32, n int) bool {
	return c.dec64Qualified(v, sel, n)
}

// decFits64 is the check-and-cache step of the adaptive tier: trust cached
// Dec64 metadata when present, otherwise run the check kernel and cache the
// verdict on the vector — unless it is shared across tasks, in which case
// the verdict is computed per call (same contract as the ASCII cache).
func (c *Ctx) decFits64(v *vector.Vector, sel []int32, n int) bool {
	switch v.Dec64 {
	case vector.Dec64All:
		return true
	case vector.Dec64Wide:
		return false
	}
	fits := kernels.Dec64CheckV(v.Dec, v.Nulls, v.HasNulls(), sel, n)
	// Cache the verdict only when the check covered every row: a selective
	// check (e.g. under a CASE branch's subset) says nothing about the rows
	// a later consumer with a wider selection will read.
	if !c.SharedVectors && sel == nil {
		if fits {
			v.Dec64 = vector.Dec64All
		} else {
			v.Dec64 = vector.Dec64Wide
		}
	}
	return fits
}
