// Package expr implements Photon's vectorized expression evaluation.
//
// Expressions evaluate over column batches at vector granularity: each node
// invokes one or more execution kernels (package kernels) over the batch's
// active rows and produces a result vector. Filtering expressions instead
// produce a shrunken position list (§4.3). Every node adapts per batch to
// the two standard variables of §4.6 — NULL presence and row activity — by
// selecting a specialized kernel, and string expressions additionally adapt
// to per-vector ASCII metadata.
package expr

import (
	"fmt"

	"photon/internal/mem"
	"photon/internal/types"
	"photon/internal/vector"
)

// Expr is a vectorized expression producing a value vector.
type Expr interface {
	Type() types.DataType
	String() string
	// Eval computes the expression over b's active rows. The result vector
	// comes from ctx's vector pool; the caller returns it via ctx.Put (or
	// hands it off in an output batch). Values at inactive rows are
	// unspecified but NULL bytes at inactive rows are zeroed.
	Eval(ctx *Ctx, b *vector.Batch) (*vector.Vector, error)
}

// Filter is a filtering expression: it takes the batch and returns the
// subset of active rows for which it evaluates to TRUE, as a position list
// appended to out. Comparison and boolean nodes implement both Expr and
// Filter; operators prefer the Filter form, which avoids materializing
// boolean vectors.
type Filter interface {
	String() string
	EvalSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error)
}

// Ctx carries per-task evaluation state: the variable-length arena (§4.5),
// a transient vector pool, and adaptivity switches for the ablation benches.
// Arena is where string results go: an operator that evaluates points it at
// an arena of its own, which it resets before it takes its next input batch,
// so the strings of a batch it hands on outlive anything evaluated above it.
type Ctx struct {
	Arena     *mem.Arena
	BatchSize int

	// Adaptive enables batch-level adaptivity (ASCII fast paths, NULL-free
	// metadata propagation). Disabled only by ablation benchmarks.
	Adaptive bool

	// SharedVectors marks input vectors as shared across concurrent tasks:
	// per-vector metadata caches (ASCII-ness, decimal narrowness) are then
	// computed per call instead of written back.
	SharedVectors bool

	// Narrow-decimal dispatch tallies: one per (raw decimal sum/avg
	// aggregate or decimal-to-decimal cast, batch) — it ran narrow, it ran
	// 128-bit, or it started narrow and escaped. Arithmetic and comparisons
	// count nowhere. Folded per task by the driver into
	// photon_decimal_fastpath_batches_total and the EXPLAIN ANALYZE
	// dec64[batches= escapes=] stage line.
	Dec64Batches  int64
	Dec128Batches int64
	Dec64Escapes  int64

	free    map[types.DataType][]*vector.Vector
	selPool [][]int32
}

// NewCtx returns an evaluation context with the given batch row capacity.
func NewCtx(batchSize int) *Ctx {
	if batchSize <= 0 {
		batchSize = vector.DefaultBatchSize
	}
	return &Ctx{
		Arena:     mem.NewArena(0),
		BatchSize: batchSize,
		Adaptive:  true,
		free:      make(map[types.DataType][]*vector.Vector),
	}
}

// Get returns a reset vector of type t with the context's batch capacity.
func (c *Ctx) Get(t types.DataType) *vector.Vector {
	if s := c.free[t]; len(s) > 0 {
		v := s[len(s)-1]
		c.free[t] = s[:len(s)-1]
		v.Reset()
		return v
	}
	return vector.New(t, c.BatchSize)
}

// Put recycles a vector obtained from Get.
func (c *Ctx) Put(v *vector.Vector) {
	if v == nil {
		return
	}
	c.free[v.Type] = append(c.free[v.Type], v)
}

// GetSel returns an empty position-list buffer.
func (c *Ctx) GetSel() []int32 {
	if n := len(c.selPool); n > 0 {
		s := c.selPool[n-1]
		c.selPool = c.selPool[:n-1]
		return s[:0]
	}
	return make([]int32, 0, c.BatchSize)
}

// PutSel recycles a position-list buffer.
func (c *Ctx) PutSel(s []int32) {
	if s != nil {
		c.selPool = append(c.selPool, s)
	}
}

// errType builds a consistent type-mismatch error.
func errType(op string, ts ...types.DataType) error {
	return fmt.Errorf("expr: %s unsupported for types %v", op, ts)
}
