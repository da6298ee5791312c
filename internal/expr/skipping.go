package expr

import (
	"bytes"
	"cmp"
	"strings"

	"photon/internal/kernels"
	"photon/internal/types"
	"photon/internal/vector"
)

// Data skipping (§2.1, §2.3): a stored unit of a table — a Delta file, an
// in-memory batch — is never read when its envelopes rule out every row of
// the filter. One evaluator serves both kinds of unit.

// Envelope is what a stored unit records of one column.
type Envelope struct {
	// Min and Max bound the non-NULL values other than NaN, boxed as a
	// Literal of the column's type holds them; nil is unknown.
	Min, Max any
	// Nulls of Rows rows are NULL. Rows = 0 means nothing is known.
	Nulls, Rows int64
}

// EnvelopeOf folds v's first n rows: the count of NULLs and the least and
// greatest other value, nil when there is none. NaN is never a bound, as it
// passes no comparison skipping rules on. It is the one fold of column
// statistics, for in-memory batches and Parquet chunks alike.
func EnvelopeOf(v *vector.Vector, n int) Envelope {
	var lo, hi int
	var nulls int64
	switch v.Type.ID {
	case types.Bool:
		lo, hi, nulls = bounds(v, v.Bool, n)
	case types.Int32, types.Date:
		lo, hi, nulls = bounds(v, v.I32, n)
	case types.Int64, types.Timestamp:
		lo, hi, nulls = bounds(v, v.I64, n)
	case types.Float64:
		lo, hi, nulls = bounds(v, v.F64, n)
	case types.Decimal:
		lo, hi, nulls = boundsFunc(v, v.Dec, n, types.Decimal128.Cmp)
	case types.String:
		lo, hi, nulls = boundsFunc(v, v.Str, n, bytes.Compare)
	default:
		return Envelope{}
	}
	e := Envelope{Nulls: nulls, Rows: int64(n)}
	if lo >= 0 {
		e.Min, e.Max = v.Get(lo), v.Get(hi)
	}
	return e
}

// bounds returns the rows of the first least and first greatest non-NULL,
// non-NaN values of v's first n rows (-1 for none) and the count of NULLs.
// Each instantiation compiles its own comparisons.
func bounds[T cmp.Ordered](v *vector.Vector, vals []T, n int) (lo, hi int, nulls int64) {
	lo, hi = -1, -1
	hn := v.HasNulls()
	var mn, mx T
	for i, x := range vals[:n] {
		switch {
		case hn && v.Nulls[i] != 0:
			nulls++
		case x != x: // NaN
		case lo < 0:
			lo, hi, mn, mx = i, i, x, x
		case x < mn:
			lo, mn = i, x
		case x > mx:
			hi, mx = i, x
		}
	}
	return lo, hi, nulls
}

// boundsFunc is bounds for the types that order by a function.
func boundsFunc[T any](v *vector.Vector, vals []T, n int, cmp func(a, b T) int) (lo, hi int, nulls int64) {
	lo, hi = -1, -1
	hn := v.HasNulls()
	for i := range n {
		switch {
		case hn && v.Nulls[i] != 0:
			nulls++
		case lo < 0:
			lo, hi = i, i
		case cmp(vals[i], vals[lo]) < 0:
			lo = i
		case cmp(vals[i], vals[hi]) > 0:
			hi = i
		}
	}
	return lo, hi, nulls
}

// Merge returns the envelope of e's and o's rows together, for a column of
// type t whose envelopes leave a bound nil only where no value sets it, as
// EnvelopeOf's do. Of equal bounds it keeps e's, so a fold split into
// pieces records the bytes of the same value (−0.0 or +0.0) as one pass.
func (e Envelope) Merge(o Envelope, t types.TypeID) Envelope {
	e.Nulls += o.Nulls
	e.Rows += o.Rows
	if o.Min != nil && (e.Min == nil || CompareBoxed(o.Min, e.Min, t) < 0) {
		e.Min = o.Min
	}
	if o.Max != nil && (e.Max == nil || CompareBoxed(o.Max, e.Max, t) > 0) {
		e.Max = o.Max
	}
	return e
}

// StatsFilter is a filter resolved against column envelopes: each literal
// at its column's type, each column at the slot its caller gave it. It is a
// tree of AND and OR over comparisons and NULL tests; an OR of nothing (a
// comparison with NULL) holds nowhere.
type StatsFilter struct {
	kind skipKind
	op   kernels.CmpOp
	t    types.TypeID
	slot int
	kids []StatsFilter
	val  any
}

type skipKind uint8

const (
	skipAnd skipKind = iota
	skipOr
	skipCmp
	skipIsNull
	skipNotNull
)

// NewStatsFilter resolves f once for many units; it understands Cmp against
// a literal, BETWEEN, IN, IS [NOT] NULL, AND and OR, and keeps every unit
// for any other shape. slot numbers a column for MightMatch's lookup, or
// returns -1 when units have no envelope for it. ok = false: f holds
// nothing to skip by.
func NewStatsFilter(f Filter, slot func(*ColRef) int) (sf StatsFilter, ok bool) {
	switch n := f.(type) {
	case *And:
		sf.kids = make([]StatsFilter, 0, len(n.Filters))
		for _, sub := range n.Filters {
			if k, ok := NewStatsFilter(sub, slot); ok {
				sf.kids = append(sf.kids, k)
			}
		}
		if len(sf.kids) == 1 {
			return sf.kids[0], true
		}
		return sf, len(sf.kids) > 0
	case *Or:
		l, lok := NewStatsFilter(n.Left, slot)
		r, rok := NewStatsFilter(n.Right, slot)
		return StatsFilter{kind: skipOr, kids: []StatsFilter{l, r}}, lok && rok
	case *Cmp:
		if col, ok := n.Left.(*ColRef); ok {
			if lit, ok := n.Right.(*Literal); ok {
				return cmpFilter(col, n.Op, lit, slot)
			}
		}
		if col, ok := n.Right.(*ColRef); ok {
			if lit, ok := n.Left.(*Literal); ok {
				return cmpFilter(col, swapOp(n.Op), lit, slot)
			}
		}
	case *Between:
		if col, ok := n.Inner.(*ColRef); ok {
			lo, lok := cmpFilter(col, kernels.CmpGe, n.Lo, slot)
			hi, hok := cmpFilter(col, kernels.CmpLe, n.Hi, slot)
			return StatsFilter{kids: []StatsFilter{lo, hi}}, lok && hok
		}
	case *In:
		if col, ok := n.Inner.(*ColRef); ok {
			sf = StatsFilter{kind: skipOr, kids: make([]StatsFilter, 0, len(n.Vals))}
			for _, lit := range n.Vals {
				k, ok := cmpFilter(col, kernels.CmpEq, lit, slot)
				if !ok {
					return sf, false
				}
				sf.kids = append(sf.kids, k)
			}
			return sf, true
		}
	case *IsNull:
		if col, ok := n.Inner.(*ColRef); ok {
			sf = StatsFilter{kind: skipIsNull, slot: slot(col)}
			if n.Negate {
				sf.kind = skipNotNull
			}
			return sf, sf.slot >= 0
		}
	}
	return sf, false
}

// cmpFilter resolves col op lit. Under IEEE order a NaN row passes <>
// against anything, so <> on DOUBLE keeps every unit.
func cmpFilter(col *ColRef, op kernels.CmpOp, lit *Literal, slot func(*ColRef) int) (StatsFilter, bool) {
	t := col.Type()
	switch {
	case lit.IsNullLit():
		return StatsFilter{kind: skipOr}, true
	case lit.T.ID != t.ID || op == kernels.CmpNe && t.ID == types.Float64:
		return StatsFilter{}, false
	}
	sf := StatsFilter{kind: skipCmp, slot: slot(col), t: t.ID, op: op, val: lit.Val}
	if t.ID == types.Decimal {
		var ok bool
		sf.op, sf.val, ok = DecAtScale(op, lit, t.Scale)
		switch {
		case ok:
		case op == kernels.CmpEq:
			return StatsFilter{kind: skipOr}, true // matches no row
		default:
			sf.kind = skipNotNull // <> matches every non-NULL row
		}
	}
	return sf, sf.slot >= 0
}

// MightMatch reports whether a unit whose envelope for each slot env returns
// may hold a row that passes the filter.
func (sf *StatsFilter) MightMatch(env func(slot int) Envelope) bool {
	switch sf.kind {
	case skipAnd:
		for i := range sf.kids {
			if !sf.kids[i].MightMatch(env) {
				return false
			}
		}
		return true
	case skipOr:
		for i := range sf.kids {
			if sf.kids[i].MightMatch(env) {
				return true
			}
		}
		return false
	}
	e := env(sf.slot)
	switch {
	case sf.kind == skipIsNull:
		return e.Rows == 0 || e.Nulls > 0
	case e.Rows > 0 && e.Nulls >= e.Rows:
		return false // all NULL; a missing bound alone never means this
	case sf.kind == skipNotNull:
		return true
	}
	lo, hi := e.Min, e.Max
	switch sf.op {
	case kernels.CmpEq:
		return (lo == nil || CompareBoxed(lo, sf.val, sf.t) <= 0) && (hi == nil || CompareBoxed(hi, sf.val, sf.t) >= 0)
	case kernels.CmpNe:
		// Prunable only when every non-NULL value equals the literal.
		return lo == nil || hi == nil || CompareBoxed(lo, sf.val, sf.t) != 0 || CompareBoxed(hi, sf.val, sf.t) != 0
	case kernels.CmpLt:
		return lo == nil || CompareBoxed(lo, sf.val, sf.t) < 0
	case kernels.CmpLe:
		return lo == nil || CompareBoxed(lo, sf.val, sf.t) <= 0
	case kernels.CmpGt:
		return hi == nil || CompareBoxed(hi, sf.val, sf.t) > 0
	case kernels.CmpGe:
		return hi == nil || CompareBoxed(hi, sf.val, sf.t) >= 0
	}
	return true
}

// CompareBoxed orders two non-NULL values of type t, boxed as a Literal
// holds them.
func CompareBoxed(a, b any, t types.TypeID) int {
	switch t {
	case types.Int32, types.Date:
		return cmp.Compare(a.(int32), b.(int32))
	case types.Int64, types.Timestamp:
		return cmp.Compare(a.(int64), b.(int64))
	case types.Float64:
		return cmp.Compare(a.(float64), b.(float64))
	case types.String:
		return strings.Compare(a.(string), b.(string))
	case types.Decimal:
		return a.(types.Decimal128).Cmp(b.(types.Decimal128))
	case types.Bool:
		x, y := a.(bool), b.(bool)
		switch {
		case x == y:
			return 0
		case y:
			return -1
		}
		return 1
	}
	return 0
}
