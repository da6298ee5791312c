package sql

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"photon/internal/expr"
	"photon/internal/types"
)

// function is one SQL function: the only place the front end learns a
// function's names, arity and argument types. The lexer and parser know
// no function names (a call is an identifier followed by "("); the
// analyzer checks every call against its entry before building anything.
type function struct {
	aliases  []string
	min, max int            // arity; max -1 is unbounded
	takes    []types.TypeID // accepted argument types; nil accepts any
	ints     int            // arguments from this position on are integer literals (0: none)
	star     bool           // f(*) allowed
	distinct bool           // f(DISTINCT x) allowed
	agg      expr.AggKind   // the aggregate, when build is nil
	build    func([]expr.Expr, []int) (expr.Expr, error)
}

var (
	strs  = []types.TypeID{types.String}
	dates = []types.TypeID{types.Date, types.Timestamp}
	nums  = []types.TypeID{types.Int32, types.Int64, types.Float64, types.Decimal}
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
	"ABS":       {min: 1, max: 1, takes: nums, build: abs},
	"COALESCE":  {min: 1, max: -1, build: coalesce},

	"COUNT":        {min: 1, max: 1, star: true, distinct: true, agg: expr.AggCount},
	"SUM":          {min: 1, max: 1, takes: nums, agg: expr.AggSum},
	"AVG":          {min: 1, max: 1, takes: nums, agg: expr.AggAvg},
	"MIN":          {min: 1, max: 1, agg: expr.AggMin},
	"MAX":          {min: 1, max: 1, agg: expr.AggMax},
	"COLLECT_LIST": {min: 1, max: 1, agg: expr.AggCollectList},
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
// expressions, then the integer-literal arguments' values.
func (f *function) bind(n *FuncCall, c exprConverter) ([]expr.Expr, []int, error) {
	switch {
	case n.Star && !f.star:
		return nil, nil, fmt.Errorf("sql: %s does not take *", n.Name)
	case n.Distinct && !f.distinct:
		return nil, nil, fmt.Errorf("sql: %s does not take DISTINCT", n.Name)
	case !n.Star && (len(n.Args) < f.min || f.max >= 0 && len(n.Args) > f.max):
		return nil, nil, fmt.Errorf("sql: wrong number of arguments to %s: %d", n.Name, len(n.Args))
	}
	var args []expr.Expr
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
		if f.takes != nil && !slices.Contains(f.takes, e.Type().ID) {
			return nil, nil, fmt.Errorf("sql: %s does not take %v", n.Name, e.Type())
		}
		args = append(args, e)
	}
	return args, ints, nil
}

func one[T expr.Expr](build func(expr.Expr) T) func([]expr.Expr, []int) (expr.Expr, error) {
	return func(a []expr.Expr, _ []int) (expr.Expr, error) { return build(a[0]), nil }
}

func abs(a []expr.Expr, _ []int) (expr.Expr, error) {
	return &expr.Unary{Op: expr.OpAbs, Inner: a[0]}, nil
}

func sqrt(a []expr.Expr, _ []int) (expr.Expr, error) {
	e := a[0]
	if e.Type().ID != types.Float64 {
		e = expr.NewCast(e, types.Float64Type)
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

// coalesce adapts literal arguments to the first non-literal's type.
func coalesce(a []expr.Expr, _ []int) (expr.Expr, error) {
	if i := slices.IndexFunc(a, func(e expr.Expr) bool { _, lit := e.(*expr.Literal); return !lit }); i >= 0 {
		for j, e := range a {
			if lit, ok := e.(*expr.Literal); ok {
				if adapted, ok := roundLiteral(lit, a[i].Type()); ok {
					a[j] = adapted
				}
			}
		}
	}
	return expr.NewCoalesce(a...)
}
