package sql

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"photon/internal/expr"
	"photon/internal/kernels"
	"photon/internal/types"
)

// function is one SQL function or operator: the only place the front end
// learns its arity and operand types. The lexer and parser know no function
// names (a call is an identifier followed by "("); the analyzer checks every
// call and operator against its entry before building anything.
type function struct {
	aliases  []string
	min, max int            // arity; max -1 is unbounded
	takes    []types.TypeID // accepted argument types; nil accepts any
	ints     int            // arguments from this position on are integer literals (0: none)
	star     bool           // f(*) allowed
	distinct bool           // f(DISTINCT x) allowed
	agg      expr.AggKind   // the aggregate, when build is nil
	// coerce brings the arguments to one type before takes is checked.
	coerce func([]expr.Expr) ([]expr.Expr, error)
	build  func([]expr.Expr, []int) (expr.Expr, error)
}

var (
	strs     = []types.TypeID{types.String}
	dates    = []types.TypeID{types.Date, types.Timestamp}
	nums     = []types.TypeID{types.Int64, types.Int32, types.Float64, types.Decimal}
	integers = []types.TypeID{types.Int64, types.Int32}
)

// functions holds one entry per function, keyed by name; aliases are added
// as keys of their own at init.
var functions = map[string]*function{
	"UPPER":     {min: 1, max: 1, takes: strs, build: one(expr.Upper)},
	"LOWER":     {min: 1, max: 1, takes: strs, build: one(expr.Lower)},
	"LENGTH":    {min: 1, max: 1, takes: strs, build: one(expr.Length)},
	"TRIM":      {min: 1, max: 1, takes: strs, build: one(expr.Trim)},
	"SUBSTRING": {aliases: []string{"SUBSTR"}, min: 2, max: 3, takes: strs, ints: 1, build: substring},
	"CONCAT":    {min: 1, max: -1, takes: strs, build: concat},
	"YEAR":      {min: 1, max: 1, takes: dates, build: one(expr.Year)},
	"MONTH":     {min: 1, max: 1, takes: dates, build: one(expr.Month)},
	"DAY":       {min: 1, max: 1, takes: dates, build: one(expr.Day)},
	"SQRT":      {min: 1, max: 1, build: sqrt},
	"ABS":       {min: 1, max: 1, takes: nums, build: unary(expr.OpAbs)},
	"COALESCE":  {min: 1, max: -1, coerce: align, build: coalesce},

	"COUNT":        {min: 1, max: 1, star: true, distinct: true, agg: expr.AggCount},
	"SUM":          {min: 1, max: 1, takes: nums, agg: expr.AggSum},
	"AVG":          {min: 1, max: 1, takes: nums, agg: expr.AggAvg},
	"MIN":          {min: 1, max: 1, agg: expr.AggMin},
	"MAX":          {min: 1, max: 1, agg: expr.AggMax},
	"COLLECT_LIST": {min: 1, max: 1, agg: expr.AggCollectList},
}

// operators holds the arithmetic operators, the comparisons, unary minus and
// date ± INTERVAL n DAY (whose day count is its integer argument). No
// identifier spells a key, so no call reaches them.
var operators = map[string]*function{
	"+": arith(expr.OpAdd, nums), "-": arith(expr.OpSub, nums), "*": arith(expr.OpMul, nums),
	"/": arith(expr.OpDiv, nums), "%": arith(expr.OpMod, integers),
	"=": compare(kernels.CmpEq), "<>": compare(kernels.CmpNe), "<": compare(kernels.CmpLt),
	"<=": compare(kernels.CmpLe), ">": compare(kernels.CmpGt), ">=": compare(kernels.CmpGe),
	"unary -":  {min: 1, max: 1, takes: nums, build: unary(expr.OpNeg)},
	"INTERVAL": {min: 2, max: 2, takes: []types.TypeID{types.Date}, ints: 1, build: dateAdd},
}

// casts lists, per target type, the source types every engine's CAST
// converts; a type converts to itself.
var casts = map[types.TypeID][]types.TypeID{
	types.Int32:     {types.Int64, types.Timestamp, types.Float64, types.String, types.Bool},
	types.Int64:     {types.Int32, types.Date, types.Float64, types.Decimal, types.String, types.Bool},
	types.Float64:   {types.Int32, types.Date, types.Int64, types.Timestamp, types.Decimal, types.String},
	types.Decimal:   {types.Int32, types.Date, types.Int64, types.Timestamp, types.Float64, types.String},
	types.String:    {types.Int32, types.Date, types.Int64, types.Timestamp, types.Float64, types.Decimal, types.Bool},
	types.Date:      {types.Timestamp, types.String},
	types.Timestamp: {types.String},
}

func init() {
	for _, f := range slices.Collect(maps.Values(functions)) {
		for _, a := range f.aliases {
			functions[a] = f
		}
	}
}

// FunctionNames lists every name a call may use, aliases included, sorted.
func FunctionNames() []string { return slices.Sorted(maps.Keys(functions)) }

// concatCall is l || r, which is typed and built as CONCAT(l, r).
func concatCall(l, r AstExpr) *FuncCall { return &FuncCall{Name: "CONCAT", Args: []AstExpr{l, r}} }

// aggCall returns e and its entry when e calls an aggregate.
func aggCall(e AstExpr) (*FuncCall, *function) {
	if n, ok := e.(*FuncCall); ok {
		if f := functions[n.Name]; f != nil && f.build == nil {
			return n, f
		}
	}
	return nil, nil
}

// bind checks a call against f and converts its arguments: the converted
// expressions, then the integer-literal arguments' values. A NULL literal
// takes the type coerce gives it from the other arguments, or else the
// first type f takes.
func (f *function) bind(n *FuncCall, c exprConverter) ([]expr.Expr, []int, error) {
	switch {
	case n.Star && !f.star:
		return nil, nil, fmt.Errorf("sql: %s does not take *", n.Name)
	case n.Distinct && !f.distinct:
		return nil, nil, fmt.Errorf("sql: %s does not take DISTINCT", n.Name)
	case !n.Star && (len(n.Args) < f.min || f.max >= 0 && len(n.Args) > f.max):
		return nil, nil, fmt.Errorf("sql: wrong number of arguments to %s: %d", n.Name, len(n.Args))
	}
	args := make([]expr.Expr, 0, len(n.Args))
	var ints []int
	for i, a := range n.Args {
		if f.ints > 0 && i >= f.ints {
			num, _ := a.(*NumberLit)
			if num == nil || !num.IsInt {
				return nil, nil, fmt.Errorf("sql: %s argument %d must be an integer literal", n.Name, i+1)
			}
			v, err := strconv.Atoi(num.Text)
			if err != nil {
				return nil, nil, fmt.Errorf("sql: %s argument %d: %w", n.Name, i+1, err)
			}
			ints = append(ints, v)
			continue
		}
		e, err := c.convertChild(a)
		if err != nil {
			return nil, nil, err
		}
		args = append(args, e)
	}
	if f.coerce != nil {
		var err error
		if args, err = f.coerce(args); err != nil {
			return nil, nil, err
		}
	}
	for i, e := range args {
		if f.takes == nil || slices.Contains(f.takes, e.Type().ID) {
			continue
		}
		if lit, ok := e.(*expr.Literal); ok && lit.IsNullLit() {
			args[i], _ = adaptLiteral(lit, types.DataType{ID: f.takes[0]})
			continue
		}
		return nil, nil, fmt.Errorf("sql: %s does not take %v", n.Name, e.Type())
	}
	return args, ints, nil
}

// call binds n to f and builds it.
func (f *function) call(n *FuncCall, c exprConverter) (expr.Expr, error) {
	args, ints, err := f.bind(n, c)
	if err != nil {
		return nil, err
	}
	return f.build(args, ints)
}

// pair brings an operator's two operands to one type.
func pair(a []expr.Expr) ([]expr.Expr, error) {
	var err error
	a[0], a[1], err = coercePair(a[0], a[1])
	return a, err
}

// align brings CASE values and COALESCE arguments to one type: the first
// non-NULL value's, widened from BIGINT to a later DECIMAL or DOUBLE. A
// literal is rounded to it and any other value cast; a NULL literal never
// chooses the type.
func align(vals []expr.Expr) ([]expr.Expr, error) {
	var to types.DataType
	for _, e := range vals {
		if lit, ok := e.(*expr.Literal); ok && lit.IsNullLit() {
			continue
		}
		if t := e.Type(); to.ID == types.Unknown || to.ID == types.Int64 && (t.ID == types.Decimal || t.ID == types.Float64) {
			to = t
		}
	}
	for i, e := range vals {
		if to.ID == types.Unknown || e.Type().Equal(to) {
			continue
		}
		if lit, ok := e.(*expr.Literal); ok {
			if adapted, ok := roundLiteral(lit, to); ok {
				vals[i] = adapted
				continue
			}
		}
		var err error
		if vals[i], err = castTo(e, to); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// castTo is CAST(e AS to), when casts lists e's type for to. A NULL literal
// casts to any type.
func castTo(e expr.Expr, to types.DataType) (expr.Expr, error) {
	from := e.Type()
	if lit, ok := e.(*expr.Literal); ok && lit.IsNullLit() {
		e, _ = adaptLiteral(lit, to)
	} else if from.ID != to.ID && !slices.Contains(casts[to.ID], from.ID) {
		return nil, fmt.Errorf("sql: cannot cast %v to %v", from, to)
	}
	return expr.NewCast(e, to), nil
}

func one[T expr.Expr](build func(expr.Expr) T) func([]expr.Expr, []int) (expr.Expr, error) {
	return func(a []expr.Expr, _ []int) (expr.Expr, error) { return build(a[0]), nil }
}

func arith(op expr.ArithOp, takes []types.TypeID) *function {
	return &function{min: 2, max: 2, takes: takes, coerce: pair, build: func(a []expr.Expr, _ []int) (expr.Expr, error) {
		return expr.NewArith(op, a[0], a[1])
	}}
}

func compare(op kernels.CmpOp) *function {
	return &function{min: 2, max: 2, coerce: pair, build: func(a []expr.Expr, _ []int) (expr.Expr, error) {
		return expr.NewCmp(op, a[0], a[1])
	}}
}

func unary(op expr.UnaryOp) func([]expr.Expr, []int) (expr.Expr, error) {
	return func(a []expr.Expr, _ []int) (expr.Expr, error) { return &expr.Unary{Op: op, Inner: a[0]}, nil }
}

func dateAdd(a []expr.Expr, n []int) (expr.Expr, error) {
	return &expr.DateAdd{Inner: a[0], Days: int32(n[0])}, nil
}

func sqrt(a []expr.Expr, _ []int) (expr.Expr, error) {
	e := a[0]
	if e.Type().ID != types.Float64 {
		var err error
		if e, err = castTo(e, types.Float64Type); err != nil {
			return nil, err
		}
	}
	return &expr.Unary{Op: expr.OpSqrt, Inner: e}, nil
}

func substring(a []expr.Expr, n []int) (expr.Expr, error) {
	length := 1 << 30
	if len(n) > 1 {
		length = n[1]
	}
	return expr.Substr(a[0], n[0], length), nil
}

func concat(a []expr.Expr, _ []int) (expr.Expr, error) {
	e := a[0]
	for _, r := range a[1:] {
		e = expr.Concat(e, r)
	}
	return e, nil
}

func coalesce(a []expr.Expr, _ []int) (expr.Expr, error) { return expr.NewCoalesce(a...) }
