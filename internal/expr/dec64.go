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

// Dec64Qualified reports whether every active non-NULL value of v fits an
// int64, so a kernel may read low limbs only. It is a property of the values,
// never of the declared precision, which nothing checks them against. Cached
// Dec64 metadata (seeded by the Parquet reader from chunk statistics and by
// the catalog for memory tables) answers for free; otherwise the check kernel
// runs and its verdict is cached on the vector — unless it is shared across
// tasks, in which case the verdict is computed per call (same contract as the
// ASCII cache).
func (c *Ctx) Dec64Qualified(v *vector.Vector, sel []int32, n int) bool {
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
