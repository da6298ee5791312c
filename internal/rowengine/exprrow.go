package rowengine

import (
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"

	"photon/internal/expr"
	"photon/internal/kernels"
	"photon/internal/types"
)

// RowExpr evaluates an expression against one boxed row.
type RowExpr func(row []any) (any, error)

// RowPred evaluates a predicate against one boxed row (NULL counts as no
// match, SQL semantics).
type RowPred func(row []any) (bool, error)

// tri is a three-valued boolean.
type tri uint8

const (
	triFalse tri = iota
	triTrue
	triNull
)

// triPred evaluates to three-valued logic (needed for NOT).
type triPred func(row []any) (tri, error)

// ----- big-decimal helpers (the BigDecimal analogue) -----

// bigOfDec converts the fixed-point value through math/big — the per-row
// conversion cost is intentional (§6.2).
func bigOfDec(d types.Decimal128) *big.Int { return d.Big() }

func decOfBig(b *big.Int) (types.Decimal128, error) {
	d, ok := types.DecimalFromBig(b)
	if !ok {
		return types.Decimal128{}, fmt.Errorf("rowengine: decimal overflow")
	}
	return d, nil
}

var bigTen = big.NewInt(10)

// quoHalfAway divides b by d > 0 rounding half away from zero, as Photon's
// narrowing cast and Spark's HALF_UP do.
func quoHalfAway(b, d *big.Int) *big.Int {
	q, r := new(big.Int).QuoRem(b, d, new(big.Int))
	if r.Abs(r).Lsh(r, 1).Cmp(d) >= 0 {
		q.Add(q, big.NewInt(int64(b.Sign())))
	}
	return q
}

func bigPow10(n int) *big.Int {
	return new(big.Int).Exp(bigTen, big.NewInt(int64(n)), nil)
}

func triToAny(t tri) any {
	switch t {
	case triTrue:
		return true
	case triFalse:
		return false
	}
	return nil
}

// cmpTri evaluates a comparison over its lowered sides.
func cmpTri(n *expr.Cmp, left, right RowExpr, row []any) (tri, error) {
	l, err := left(row)
	if err != nil {
		return triNull, err
	}
	r, err := right(row)
	if err != nil {
		return triNull, err
	}
	if l == nil || r == nil {
		return triNull, nil
	}
	if isNaN(l) || isNaN(r) { // unordered: only <> holds
		if n.Op == kernels.CmpNe {
			return triTrue, nil
		}
		return triFalse, nil
	}
	// Decimal comparisons align scales through big.Int.
	t := n.Left.Type()
	if t.ID == types.Decimal {
		lb := bigOfDec(l.(types.Decimal128))
		rb := bigOfDec(r.(types.Decimal128))
		ls, rs := n.Left.Type().Scale, n.Right.Type().Scale
		if ls < rs {
			lb.Mul(lb, bigPow10(rs-ls))
		} else if rs < ls {
			rb.Mul(rb, bigPow10(ls-rs))
		}
		return cmpResultToTri(n.Op, lb.Cmp(rb)), nil
	}
	c, err := compareAny(l, r, t)
	if err != nil {
		return triNull, err
	}
	return cmpResultToTri(n.Op, c), nil
}

func cmpResultToTri(op kernels.CmpOp, c int) tri {
	var ok bool
	switch op {
	case kernels.CmpEq:
		ok = c == 0
	case kernels.CmpNe:
		ok = c != 0
	case kernels.CmpLt:
		ok = c < 0
	case kernels.CmpLe:
		ok = c <= 0
	case kernels.CmpGt:
		ok = c > 0
	case kernels.CmpGe:
		ok = c >= 0
	}
	if ok {
		return triTrue
	}
	return triFalse
}

// normLit extracts a literal's Go value for a comparison op with a value of
// type t: a DECIMAL at t's scale, by expr.DecAtScale. False means no value
// at that scale equals the literal (op is = then).
func normLit(l *expr.Literal, t types.DataType, op kernels.CmpOp) (any, bool) {
	if l.IsNullLit() {
		return nil, true
	}
	if t.ID == types.Decimal {
		_, d, ok := expr.DecAtScale(op, l, t.Scale)
		return d, ok
	}
	return l.Val, true
}

// isNaN reports whether v is a DOUBLE NaN. Predicates treat NaN as IEEE
// and Photon's kernels do: it fails =, <, <=, >, >=, BETWEEN and IN and
// passes <>. compareAny's order, which calls NaN equal to everything, is
// left to sort, min/max and join keys.
func isNaN(v any) bool {
	f, ok := v.(float64)
	return ok && f != f
}

// compareAny compares two boxed values of the same type.
func compareAny(a, b any, t types.DataType) (int, error) {
	switch t.ID {
	case types.Bool:
		av, bv := a.(bool), b.(bool)
		switch {
		case av == bv:
			return 0, nil
		case bv:
			return -1, nil
		default:
			return 1, nil
		}
	case types.Int32, types.Date:
		av, bv := a.(int32), b.(int32)
		switch {
		case av < bv:
			return -1, nil
		case av > bv:
			return 1, nil
		}
		return 0, nil
	case types.Int64, types.Timestamp:
		av, bv := a.(int64), b.(int64)
		switch {
		case av < bv:
			return -1, nil
		case av > bv:
			return 1, nil
		}
		return 0, nil
	case types.Float64:
		av, bv := a.(float64), b.(float64)
		switch {
		case av < bv:
			return -1, nil
		case av > bv:
			return 1, nil
		}
		return 0, nil
	case types.String:
		return strings.Compare(a.(string), b.(string)), nil
	case types.Decimal:
		return bigOfDec(a.(types.Decimal128)).Cmp(bigOfDec(b.(types.Decimal128))), nil
	}
	return 0, fmt.Errorf("rowengine: cannot compare %v", t)
}

// applyArith performs boxed arithmetic; decimals go through math/big.
func applyArith(n *expr.Arith, l, r any) (any, error) {
	if l == nil || r == nil {
		return nil, nil
	}
	t := n.Type()
	switch t.ID {
	case types.Int32:
		a, b := l.(int32), r.(int32)
		return arithInt(n.Op, int64(a), int64(b), func(v int64) any { return int32(v) })
	case types.Int64:
		return arithInt(n.Op, l.(int64), r.(int64), func(v int64) any { return v })
	case types.Float64:
		a, b := l.(float64), r.(float64)
		switch n.Op {
		case expr.OpAdd:
			return a + b, nil
		case expr.OpSub:
			return a - b, nil
		case expr.OpMul:
			return a * b, nil
		case expr.OpDiv:
			if b == 0 {
				return nil, nil
			}
			return a / b, nil
		}
	case types.Decimal:
		// BigDecimal-analogue path: every operand converts to big.Int,
		// scales align, and the result converts back.
		lt, rt := n.Left.Type(), n.Right.Type()
		lb := bigOfDec(l.(types.Decimal128))
		rb := bigOfDec(r.(types.Decimal128))
		switch n.Op {
		case expr.OpAdd, expr.OpSub:
			s := max(lt.Scale, rt.Scale)
			if lt.Scale < s {
				lb.Mul(lb, bigPow10(s-lt.Scale))
			}
			if rt.Scale < s {
				rb.Mul(rb, bigPow10(s-rt.Scale))
			}
			var out big.Int
			if n.Op == expr.OpAdd {
				out.Add(lb, rb)
			} else {
				out.Sub(lb, rb)
			}
			return decOfBig(&out)
		case expr.OpMul:
			var out big.Int
			out.Mul(lb, rb)
			return decOfBig(&out)
		case expr.OpDiv:
			if rb.Sign() == 0 {
				return nil, nil
			}
			// result scale per decimalResultType: shift then divide.
			shift := t.Scale - lt.Scale + rt.Scale
			lb.Mul(lb, bigPow10(shift))
			var out big.Int
			out.Quo(lb, rb)
			return decOfBig(&out)
		}
	}
	return nil, fmt.Errorf("rowengine: unsupported arithmetic %v over %v", n.Op, t)
}

func arithInt(op expr.ArithOp, a, b int64, wrap func(int64) any) (any, error) {
	switch op {
	case expr.OpAdd:
		return wrap(a + b), nil
	case expr.OpSub:
		return wrap(a - b), nil
	case expr.OpMul:
		return wrap(a * b), nil
	case expr.OpDiv:
		if b == 0 {
			return nil, nil
		}
		return wrap(a / b), nil
	case expr.OpMod:
		if b == 0 {
			return nil, nil
		}
		return wrap(a % b), nil
	}
	return nil, fmt.Errorf("rowengine: bad arith op")
}

// applyUnary evaluates neg/sqrt/abs on a boxed value.
func applyUnary(n *expr.Unary, v any) (any, error) {
	if v == nil {
		return nil, nil
	}
	switch n.Op {
	case expr.OpSqrt:
		return math.Sqrt(v.(float64)), nil
	case expr.OpNeg:
		switch x := v.(type) {
		case int32:
			return -x, nil
		case int64:
			return -x, nil
		case float64:
			return -x, nil
		case types.Decimal128:
			return x.Neg(), nil
		}
	case expr.OpAbs:
		switch x := v.(type) {
		case int32:
			if x < 0 {
				return -x, nil
			}
			return x, nil
		case int64:
			if x < 0 {
				return -x, nil
			}
			return x, nil
		case float64:
			return math.Abs(x), nil
		case types.Decimal128:
			return x.Abs(), nil
		}
	}
	return nil, fmt.Errorf("rowengine: unsupported unary")
}

// applyExtract evaluates year/month/day.
func applyExtract(n *expr.Extract, v any, from types.DataType) (any, error) {
	if v == nil {
		return nil, nil
	}
	var days int32
	if from.ID == types.Timestamp {
		days = int32(v.(int64) / types.MicrosPerSecond / types.SecondsPerDay)
	} else {
		days = v.(int32)
	}
	switch n.Field {
	case expr.FieldYear:
		return types.DateYear(days), nil
	case expr.FieldMonth:
		return types.DateMonth(days), nil
	default:
		return types.DateDay(days), nil
	}
}

// evalStrFunc evaluates string functions per row. Like Java, every call
// allocates a fresh string.
func evalStrFunc(n *expr.StrFunc, inner, arg RowExpr, row []any) (any, error) {
	v, err := inner(row)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, nil
	}
	s := v.(string)
	switch n.Kind {
	case expr.StrUpper:
		// Like DBR, special-case ASCII per row; general path uses the
		// Unicode tables (the ICU analogue).
		if kernels.IsASCII([]byte(s)) {
			b := make([]byte, len(s))
			kernels.UpperASCIIInto(b, []byte(s))
			return string(b), nil
		}
		return strings.ToUpper(s), nil
	case expr.StrLower:
		if kernels.IsASCII([]byte(s)) {
			b := make([]byte, len(s))
			kernels.LowerASCIIInto(b, []byte(s))
			return string(b), nil
		}
		return strings.ToLower(s), nil
	case expr.StrLength:
		return int32(len([]rune(s))), nil
	case expr.StrTrim:
		return strings.Trim(s, " "), nil
	case expr.StrSubstr:
		r := []rune(s)
		start := n.SubstrStart
		from := start - 1
		if start <= 0 {
			if start == 0 {
				from = 0
			} else {
				from = len(r) + start
				if from < 0 {
					from = 0
				}
			}
		}
		if from >= len(r) || n.SubstrLen <= 0 {
			return "", nil
		}
		to := min(from+n.SubstrLen, len(r))
		return string(r[from:to]), nil
	case expr.StrConcat:
		w, err := arg(row)
		if err != nil {
			return nil, err
		}
		if w == nil {
			return nil, nil
		}
		return s + w.(string), nil
	}
	return nil, fmt.Errorf("rowengine: unsupported string function")
}

// applyCast converts a boxed value.
func applyCast(v any, from, to types.DataType) (any, error) {
	if v == nil {
		return nil, nil
	}
	if from.Equal(to) {
		return v, nil
	}
	switch from.ID {
	case types.Int32, types.Date:
		x := v.(int32)
		switch to.ID {
		case types.Int64:
			return int64(x), nil
		case types.Float64:
			return float64(x), nil
		case types.Decimal:
			d := new(big.Int).Mul(big.NewInt(int64(x)), bigPow10(to.Scale))
			return decOfBig(d)
		case types.String:
			if from.ID == types.Date {
				return types.FormatDate(x), nil
			}
			return strconv.FormatInt(int64(x), 10), nil
		}
	case types.Int64, types.Timestamp:
		x := v.(int64)
		switch to.ID {
		case types.Int32:
			return int32(x), nil
		case types.Float64:
			return float64(x), nil
		case types.Decimal:
			d := new(big.Int).Mul(big.NewInt(x), bigPow10(to.Scale))
			return decOfBig(d)
		case types.String:
			if from.ID == types.Timestamp {
				return types.FormatTimestamp(x), nil
			}
			return strconv.FormatInt(x, 10), nil
		case types.Date:
			return int32(x / types.MicrosPerSecond / types.SecondsPerDay), nil
		}
	case types.Float64:
		x := v.(float64)
		switch to.ID {
		case types.Int32:
			return int32(x), nil
		case types.Int64:
			return int64(x), nil
		case types.String:
			return strconv.FormatFloat(x, 'g', -1, 64), nil
		case types.Decimal:
			scaled := x * math.Pow(10, float64(to.Scale))
			return types.DecimalFromInt64(int64(math.Round(scaled))), nil
		}
	case types.Decimal:
		x := v.(types.Decimal128)
		switch to.ID {
		case types.Decimal:
			b := bigOfDec(x)
			if to.Scale >= from.Scale {
				b.Mul(b, bigPow10(to.Scale-from.Scale))
			} else {
				b = quoHalfAway(b, bigPow10(from.Scale-to.Scale))
			}
			return decOfBig(b)
		case types.Float64:
			f, _ := new(big.Float).SetInt(bigOfDec(x)).Float64()
			return f / math.Pow(10, float64(from.Scale)), nil
		case types.Int64:
			q := new(big.Int).Quo(bigOfDec(x), bigPow10(from.Scale))
			return q.Int64(), nil
		case types.String:
			return types.FormatDecimal(x, from.Scale), nil
		}
	case types.String:
		s := v.(string)
		switch to.ID {
		case types.Int32:
			x, err := strconv.ParseInt(s, 10, 32)
			if err != nil {
				return nil, nil
			}
			return int32(x), nil
		case types.Int64:
			x, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, nil
			}
			return x, nil
		case types.Float64:
			x, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, nil
			}
			return x, nil
		case types.Date:
			x, err := types.ParseDate(s)
			if err != nil {
				return nil, nil
			}
			return x, nil
		case types.Timestamp:
			x, err := types.ParseTimestamp(s)
			if err != nil {
				return nil, nil
			}
			return x, nil
		case types.Decimal:
			x, err := types.ParseDecimal(s, to.Scale)
			if err != nil {
				return nil, nil
			}
			return x, nil
		}
	case types.Bool:
		x := v.(bool)
		switch to.ID {
		case types.Int32:
			if x {
				return int32(1), nil
			}
			return int32(0), nil
		case types.Int64:
			if x {
				return int64(1), nil
			}
			return int64(0), nil
		case types.String:
			return strconv.FormatBool(x), nil
		}
	}
	return nil, fmt.Errorf("rowengine: unsupported cast %v -> %v", from, to)
}
