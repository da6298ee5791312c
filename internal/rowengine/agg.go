package rowengine

import (
	"fmt"
	"math/big"
	"strings"

	"photon/internal/expr"
	"photon/internal/types"
)

// HashAgg is the baseline grouping aggregation: a Go map from encoded group
// key to boxed state slices. Decimal sums accumulate in math/big (the
// BigDecimal analogue); collect_list appends to boxed value slices (the
// Scala-collections analogue, Fig. 5). Spark's codegen does not cover
// variable-size aggregation states, so CollectList always runs the
// interpreted update path regardless of Mode — exactly the limitation §6.1
// describes.
type HashAgg struct {
	child    Operator
	keyExprs []RowExpr
	keyTypes []types.DataType
	specs    []expr.AggSpec
	argFns   []RowExpr
	schema   *types.Schema

	groups map[string]*aggGroup
	order  []string // deterministic emit order (insertion)
	pos    int
	out    []any
}

// aggGroup holds one group's boxed key and states.
type aggGroup struct {
	key    []any
	states []aggState
}

type aggState struct {
	count    int64
	sumBig   *big.Int // decimal sums
	sumF     float64
	sumI     int64
	seen     bool
	minmax   any
	list     []any
	distinct map[string]struct{}
}

// NewHashAgg builds the baseline aggregation from the shared logical specs.
func NewHashAgg(child Operator, keys []expr.Expr, keyNames []string, specs []expr.AggSpec, mode Mode) (*HashAgg, error) {
	a := &HashAgg{child: child, specs: specs}
	for _, k := range keys {
		fn, err := CompileExpr(k, mode)
		if err != nil {
			return nil, err
		}
		a.keyExprs = append(a.keyExprs, fn)
		a.keyTypes = append(a.keyTypes, k.Type())
	}
	for _, s := range specs {
		if s.Arg == nil {
			a.argFns = append(a.argFns, nil)
			continue
		}
		// Variable-size aggregation state is incompatible with the codegen
		// framework (§6.1): fall back to interpreted for collect_list, which
		// lowers the argument again for every row (for a bare column, one
		// closure allocation a row that Spark's interpreter does not make).
		m := mode
		if s.Kind == expr.AggCollectList {
			m = Interpreted
		}
		fn, err := CompileExpr(s.Arg, m)
		if err != nil {
			return nil, err
		}
		a.argFns = append(a.argFns, fn)
	}
	fields := make([]types.Field, 0, len(keys)+len(specs))
	for i, k := range keys {
		name := fmt.Sprintf("k%d", i)
		if i < len(keyNames) && keyNames[i] != "" {
			name = keyNames[i]
		}
		fields = append(fields, types.Field{Name: name, Type: k.Type(), Nullable: true})
	}
	for i, s := range specs {
		rt, err := s.ResultType()
		if err != nil {
			return nil, err
		}
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("agg%d", i)
		}
		fields = append(fields, types.Field{Name: name, Type: rt, Nullable: true})
	}
	a.schema = &types.Schema{Fields: fields}
	return a, nil
}

// Schema implements Operator.
func (a *HashAgg) Schema() *types.Schema { return a.schema }

// Open implements Operator.
func (a *HashAgg) Open() error {
	a.groups = make(map[string]*aggGroup)
	a.order = nil
	a.pos = 0
	a.out = make([]any, a.schema.Len())
	if err := a.child.Open(); err != nil {
		return err
	}
	return a.consume()
}

// encodeKey renders a group key for map lookup (boxing + string build per
// row, the Java hash-map analogue).
func encodeKey(vals []any) string {
	var b strings.Builder
	for _, v := range vals {
		if v == nil {
			b.WriteString("\x00N;")
			continue
		}
		fmt.Fprintf(&b, "%v;", v)
	}
	return b.String()
}

func (a *HashAgg) consume() error {
	for {
		row, err := a.child.NextRow()
		if err != nil {
			return err
		}
		if row == nil {
			return nil
		}
		keyVals := make([]any, len(a.keyExprs))
		for i, fn := range a.keyExprs {
			v, err := fn(row)
			if err != nil {
				return err
			}
			keyVals[i] = v
		}
		k := encodeKey(keyVals)
		g, ok := a.groups[k]
		if !ok {
			g = &aggGroup{key: keyVals, states: make([]aggState, len(a.specs))}
			for i, s := range a.specs {
				if s.Distinct {
					g.states[i].distinct = make(map[string]struct{})
				}
				if s.Arg != nil && s.Arg.Type().ID == types.Decimal {
					g.states[i].sumBig = new(big.Int)
				}
			}
			a.groups[k] = g
			a.order = append(a.order, k)
		}
		if err := a.update(g, row); err != nil {
			return err
		}
	}
}

func (a *HashAgg) update(g *aggGroup, row []any) error {
	for i, s := range a.specs {
		st := &g.states[i]
		var v any
		if a.argFns[i] != nil {
			var err error
			v, err = a.argFns[i](row)
			if err != nil {
				return err
			}
		}
		switch {
		case s.Distinct:
			if v != nil {
				st.distinct[fmt.Sprintf("%v", v)] = struct{}{}
			}
		case s.Kind == expr.AggCount:
			if s.Arg == nil || v != nil {
				st.count++
			}
		case s.Kind == expr.AggSum || s.Kind == expr.AggAvg:
			if v == nil {
				continue
			}
			st.count++
			st.seen = true
			switch x := v.(type) {
			case int32:
				st.sumI += int64(x)
				st.sumF += float64(x)
			case int64:
				st.sumI += x
				st.sumF += float64(x)
			case float64:
				st.sumF += x
			case types.Decimal128:
				st.sumBig.Add(st.sumBig, bigOfDec(x)) // BigDecimal add per row
			}
		case s.Kind == expr.AggMin || s.Kind == expr.AggMax:
			if v == nil {
				continue
			}
			if !st.seen {
				st.seen = true
				st.minmax = v
				continue
			}
			c, err := compareAny(st.minmax, v, s.Arg.Type())
			if err != nil {
				return err
			}
			if (s.Kind == expr.AggMin && c > 0) || (s.Kind == expr.AggMax && c < 0) {
				st.minmax = v
			}
		case s.Kind == expr.AggCollectList:
			if v != nil {
				st.list = append(st.list, v) // boxed append per row
			}
		}
	}
	return nil
}

// NextRow implements Operator: emits one group per call.
func (a *HashAgg) NextRow() ([]any, error) {
	if a.pos >= len(a.order) {
		if a.pos == 0 && len(a.keyExprs) == 0 {
			// Global aggregation over empty input still emits one row.
			a.pos++
			g := &aggGroup{states: make([]aggState, len(a.specs))}
			for i, s := range a.specs {
				if s.Arg != nil && s.Arg.Type().ID == types.Decimal {
					g.states[i].sumBig = new(big.Int)
				}
				if s.Distinct {
					g.states[i].distinct = map[string]struct{}{}
				}
			}
			return a.finalize(g)
		}
		return nil, nil
	}
	g := a.groups[a.order[a.pos]]
	a.pos++
	return a.finalize(g)
}

func (a *HashAgg) finalize(g *aggGroup) ([]any, error) {
	copy(a.out, g.key)
	base := len(g.key)
	for i, s := range a.specs {
		st := &g.states[i]
		var v any
		switch {
		case s.Distinct:
			v = int64(len(st.distinct))
		case s.Kind == expr.AggCount:
			v = st.count
		case s.Kind == expr.AggSum:
			if !st.seen {
				v = nil
				break
			}
			switch s.Arg.Type().ID {
			case types.Int32, types.Int64:
				v = st.sumI
			case types.Float64:
				v = st.sumF
			case types.Decimal:
				d, err := decOfBig(st.sumBig)
				if err != nil {
					return nil, err
				}
				v = d
			}
		case s.Kind == expr.AggAvg:
			if st.count == 0 {
				v = nil
				break
			}
			if s.Arg.Type().ID == types.Decimal {
				rt, _ := s.ResultType()
				shift := rt.Scale - s.Arg.Type().Scale
				num := new(big.Int).Mul(st.sumBig, bigPow10(shift+1))
				num.Quo(num, big.NewInt(st.count))
				// Round half away from zero on the extra digit.
				r := new(big.Int).Set(num)
				q, rem := new(big.Int).QuoRem(num, bigTen, r)
				if rem.Int64() >= 5 {
					q.Add(q, big.NewInt(1))
				} else if rem.Int64() <= -5 {
					q.Sub(q, big.NewInt(1))
				}
				d, err := decOfBig(q)
				if err != nil {
					return nil, err
				}
				v = d
			} else {
				v = st.sumF / float64(st.count)
			}
		case s.Kind == expr.AggMin || s.Kind == expr.AggMax:
			if !st.seen {
				v = nil
			} else {
				v = st.minmax
			}
		case s.Kind == expr.AggCollectList:
			var b strings.Builder
			b.WriteByte('[')
			for j, e := range st.list {
				if j > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%v", e)
			}
			b.WriteByte(']')
			v = b.String()
		}
		a.out[base+i] = v
	}
	return a.out, nil
}

// Close implements Operator.
func (a *HashAgg) Close() error {
	a.groups = nil
	return a.child.Close()
}
