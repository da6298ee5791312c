// Package kernels contains Photon's vectorized execution kernels (§4.2):
// tight loops over one or more vectors of data, specialized on two
// batch-level properties — whether the batch contains NULLs and whether all
// rows are active (Listing 2). In the paper these are C++ template
// parameters whose branches compile away; here each (nulls × activity)
// combination is a separate tight Go loop selected by one dispatch per
// batch, which is the same costs-amortized-once structure.
//
// Conventions:
//   - sel == nil means all rows [0, n) are active (dense);
//   - nulls slices hold one byte per row, 1 = NULL; hasNulls gates all NULL
//     branching;
//   - "VV" kernels combine two vectors, "VS" a vector and a scalar;
//   - selection kernels append surviving row indices to an out position
//     list and return it — filters only ever shrink position lists;
//   - a comparison's op is a mask, not a branch: one loop per (nulls ×
//     activity) shape serves all six ops, writes every candidate row at its
//     output cursor and advances the cursor by the op's answer, branch-free
//     (compare.go);
//   - kernels never write to inactive rows (their data may still be live).
package kernels

// Numeric is the set of fixed-width arithmetic element types.
type Numeric interface {
	~int32 | ~int64 | ~float64
}

// Ordered is the set of element types comparison kernels order: the
// numeric types and BOOLEAN's bytes (FALSE < TRUE).
type Ordered interface {
	~int32 | ~int64 | ~float64 | ~uint8
}

// orNulls merges two null byte vectors over the active rows into out.
// Returns whether any active output row is NULL.
func orNulls(nulls1, nulls2, out []byte, sel []int32, n int) bool {
	any := byte(0)
	if sel == nil {
		a, b, o := nulls1[:n], nulls2[:n], out[:n]
		for i := range o {
			o[i] = a[i] | b[i]
			any |= o[i]
		}
	} else {
		for _, i := range sel {
			out[i] = nulls1[i] | nulls2[i]
			any |= out[i]
		}
	}
	return any != 0
}

// copyNulls copies a null byte vector over the active rows into out.
func copyNulls(nulls, out []byte, sel []int32, n int) bool {
	any := byte(0)
	if sel == nil {
		a, o := nulls[:n], out[:n]
		for i := range o {
			o[i] = a[i]
			any |= o[i]
		}
	} else {
		for _, i := range sel {
			out[i] = nulls[i]
			any |= out[i]
		}
	}
	return any != 0
}

// CopyNulls is the exported form used by expression wrappers.
func CopyNulls(nulls, out []byte, sel []int32, n int) bool {
	return copyNulls(nulls, out, sel, n)
}

// OrNulls is the exported form used by expression wrappers.
func OrNulls(nulls1, nulls2, out []byte, sel []int32, n int) bool {
	return orNulls(nulls1, nulls2, out, sel, n)
}
