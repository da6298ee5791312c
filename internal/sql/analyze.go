package sql

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"photon/internal/catalog"
	"photon/internal/expr"
	"photon/internal/types"
)

// Analyze resolves a parsed statement against the catalog, producing a
// position-resolved logical plan: names become column ordinals, literals
// become typed values, implicit coercions become casts, and aggregates
// split into an Aggregate node plus a post-aggregation projection.
func Analyze(cat *catalog.Catalog, stmt *SelectStmt) (LogicalPlan, error) {
	a := &analyzer{cat: cat}
	return a.analyzeSelect(stmt)
}

type analyzer struct {
	cat *catalog.Catalog
}

// scopeCol is one visible column during name resolution.
type scopeCol struct {
	qual string // table alias (lower-cased), "" for subquery outputs
	name string // column name (lower-cased)
	t    types.DataType
}

type scope struct {
	cols []scopeCol
}

func (s *scope) add(qual string, schema *types.Schema) {
	for _, f := range schema.Fields {
		s.cols = append(s.cols, scopeCol{
			qual: strings.ToLower(qual),
			name: strings.ToLower(f.Name),
			t:    f.Type,
		})
	}
}

// resolve finds a column, enforcing uniqueness for unqualified names.
func (s *scope) resolve(qual, name string) (int, types.DataType, error) {
	qual = strings.ToLower(qual)
	name = strings.ToLower(name)
	found := -1
	var t types.DataType
	for i, c := range s.cols {
		if c.name != name {
			continue
		}
		if qual != "" && c.qual != qual {
			continue
		}
		if found >= 0 {
			return 0, t, fmt.Errorf("sql: ambiguous column %q", name)
		}
		found = i
		t = c.t
	}
	if found < 0 {
		if qual != "" {
			return 0, t, fmt.Errorf("sql: column %s.%s not found", qual, name)
		}
		return 0, t, fmt.Errorf("sql: column %q not found", name)
	}
	return found, t, nil
}

// analyzeSelect builds the plan for one SELECT.
func (a *analyzer) analyzeSelect(stmt *SelectStmt) (LogicalPlan, error) {
	if stmt.From == nil {
		return nil, fmt.Errorf("sql: SELECT without FROM is not supported")
	}
	plan, sc, err := a.analyzeFrom(stmt.From)
	if err != nil {
		return nil, err
	}
	if stmt.Where != nil {
		pred, err := a.toPred(stmt.Where, sc)
		if err != nil {
			return nil, err
		}
		plan = &LFilter{Child: plan, Pred: pred}
	}

	hasAggs := stmt.GroupBy != nil || containsAgg(stmt.Items) || containsAggExpr(stmt.Having)
	if hasAggs {
		return a.analyzeAggregate(stmt, plan, sc)
	}

	// Plain projection.
	exprs, names, err := a.projectItems(stmt.Items, sc)
	if err != nil {
		return nil, err
	}
	visible := len(exprs)

	// ORDER BY may reference input columns that are not projected; such
	// keys ride along as hidden projection columns and drop after the sort.
	var sortKeys []SortKeyPlan
	if len(stmt.OrderBy) > 0 && !stmt.Distinct {
		outSc := &scope{}
		for i, n := range names {
			name := n
			if name == "" {
				name = exprs[i].String()
			}
			outSc.cols = append(outSc.cols, scopeCol{name: strings.ToLower(name), t: exprs[i].Type()})
		}
		for _, oi := range stmt.OrderBy {
			col := -1
			if cn, ok := oi.Expr.(*ColName); ok && cn.Table == "" {
				if idx, _, err := outSc.resolve("", cn.Name); err == nil {
					col = idx
				}
			}
			if col < 0 {
				if num, ok := oi.Expr.(*NumberLit); ok && num.IsInt {
					var v int
					fmt.Sscanf(num.Text, "%d", &v)
					if v >= 1 && v <= visible {
						col = v - 1
					}
				}
			}
			if col < 0 {
				hidden, err := a.toScalar(oi.Expr, sc)
				if err != nil {
					return nil, fmt.Errorf("sql: cannot resolve ORDER BY key: %w", err)
				}
				col = len(exprs)
				exprs = append(exprs, hidden)
				names = append(names, fmt.Sprintf("__sort%d", col))
			}
			sortKeys = append(sortKeys, SortKeyPlan{Col: col, Desc: oi.Desc})
		}
	}

	plan = &LProject{Child: plan, Exprs: exprs, Names: names}
	if stmt.Distinct {
		plan = distinctOf(plan.(*LProject))
		return a.finishSortLimit(stmt, plan)
	}
	if sortKeys != nil {
		plan = &LSort{Child: plan, Keys: sortKeys}
		if len(exprs) > visible {
			// Drop the hidden sort columns.
			sch := plan.Schema()
			keep := make([]expr.Expr, visible)
			keepNames := make([]string, visible)
			for i := 0; i < visible; i++ {
				keep[i] = expr.Col(i, sch.Field(i).Name, sch.Field(i).Type)
				keepNames[i] = names[i]
			}
			plan = &LProject{Child: plan, Exprs: keep, Names: keepNames}
		}
		if stmt.Limit >= 0 {
			plan = &LLimit{Child: plan, N: stmt.Limit}
		}
		return plan, nil
	}
	return a.finishSortLimit(stmt, plan)
}

// distinctOf rewrites DISTINCT as a group-by over all outputs.
func distinctOf(p *LProject) LogicalPlan {
	schema := p.Schema()
	keys := make([]expr.Expr, schema.Len())
	names := make([]string, schema.Len())
	for i, f := range schema.Fields {
		keys[i] = expr.Col(i, f.Name, f.Type)
		names[i] = f.Name
	}
	return &LAggregate{Child: p, Keys: keys, KeyNames: names}
}

// projectItems converts SELECT items (expanding *).
func (a *analyzer) projectItems(items []SelectItem, sc *scope) ([]expr.Expr, []string, error) {
	var exprs []expr.Expr
	var names []string
	for _, it := range items {
		if it.Star {
			for i, c := range sc.cols {
				exprs = append(exprs, expr.Col(i, c.name, c.t))
				names = append(names, c.name)
			}
			continue
		}
		e, err := a.toScalar(it.Expr, sc)
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, e)
		name := it.Alias
		if name == "" {
			if cn, ok := it.Expr.(*ColName); ok {
				name = cn.Name
			}
		}
		names = append(names, name)
	}
	return exprs, names, nil
}

// finishSortLimit attaches ORDER BY / LIMIT over the final projection.
func (a *analyzer) finishSortLimit(stmt *SelectStmt, plan LogicalPlan) (LogicalPlan, error) {
	if len(stmt.OrderBy) > 0 {
		outSc := &scope{}
		outSc.add("", plan.Schema())
		var keys []SortKeyPlan
		for _, oi := range stmt.OrderBy {
			col, err := a.resolveOrderKey(oi.Expr, plan, outSc)
			if err != nil {
				return nil, err
			}
			keys = append(keys, SortKeyPlan{Col: col, Desc: oi.Desc})
		}
		plan = &LSort{Child: plan, Keys: keys}
	}
	if stmt.Limit >= 0 {
		plan = &LLimit{Child: plan, N: stmt.Limit}
	}
	return plan, nil
}

// resolveOrderKey maps an ORDER BY expression to an output ordinal: by
// alias/name, or by 1-based ordinal literal.
func (a *analyzer) resolveOrderKey(e AstExpr, plan LogicalPlan, outSc *scope) (int, error) {
	switch n := e.(type) {
	case *ColName:
		idx, _, err := outSc.resolve(n.Table, n.Name)
		if err != nil {
			return 0, fmt.Errorf("sql: ORDER BY must reference an output column: %w", err)
		}
		return idx, nil
	case *NumberLit:
		if !n.IsInt {
			return 0, fmt.Errorf("sql: bad ORDER BY ordinal %q", n.Text)
		}
		var v int
		fmt.Sscanf(n.Text, "%d", &v)
		if v < 1 || v > plan.Schema().Len() {
			return 0, fmt.Errorf("sql: ORDER BY ordinal %d out of range", v)
		}
		return v - 1, nil
	}
	return 0, fmt.Errorf("sql: ORDER BY supports output columns and ordinals, got %s", renderAst(e))
}

// analyzeFrom resolves a table expression into a plan plus name scope.
func (a *analyzer) analyzeFrom(te TableExpr) (LogicalPlan, *scope, error) {
	switch n := te.(type) {
	case *TableName:
		tbl, err := a.cat.Lookup(n.Name)
		if err != nil {
			return nil, nil, err
		}
		alias := n.Alias
		if alias == "" {
			alias = n.Name
		}
		sc := &scope{}
		sc.add(alias, tbl.Schema())
		return &LScan{Table: tbl, Alias: alias}, sc, nil
	case *Subquery:
		plan, err := a.analyzeSelect(n.Stmt)
		if err != nil {
			return nil, nil, err
		}
		sc := &scope{}
		sc.add(n.Alias, plan.Schema())
		return plan, sc, nil
	case *JoinExpr:
		return a.analyzeJoin(n)
	}
	return nil, nil, fmt.Errorf("sql: unsupported FROM clause")
}

func (a *analyzer) analyzeJoin(n *JoinExpr) (LogicalPlan, *scope, error) {
	left, lsc, err := a.analyzeFrom(n.Left)
	if err != nil {
		return nil, nil, err
	}
	right, rsc, err := a.analyzeFrom(n.Right)
	if err != nil {
		return nil, nil, err
	}
	combined := &scope{}
	combined.cols = append(append([]scopeCol{}, lsc.cols...), rsc.cols...)

	if n.Kind == JoinCross {
		return &LCrossJoin{Left: left, Right: right}, combined, nil
	}

	leftKeys, rightKeys, residual, err := a.splitJoinCondition(n.On, lsc, rsc, combined)
	if err != nil {
		return nil, nil, err
	}
	if len(leftKeys) == 0 {
		return nil, nil, fmt.Errorf("sql: join requires at least one equality condition")
	}
	j := &LJoin{
		Left: left, Right: right, Kind: n.Kind,
		LeftKeys: leftKeys, RightKeys: rightKeys, Residual: residual,
	}
	if residual != nil && n.Kind != JoinInner {
		return nil, nil, fmt.Errorf("sql: non-equi conditions only supported on inner joins")
	}
	outSc := combined
	if n.Kind == JoinLeftSemi || n.Kind == JoinLeftAnti {
		outSc = lsc
	}
	return j, outSc, nil
}

// splitJoinCondition separates ON conjuncts into equi-key pairs and a
// residual filter over the combined schema.
func (a *analyzer) splitJoinCondition(on AstExpr, lsc, rsc, combined *scope) (lk, rk []expr.Expr, residual expr.Filter, err error) {
	var conjuncts []AstExpr
	var flatten func(e AstExpr)
	flatten = func(e AstExpr) {
		if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
			flatten(b.Left)
			flatten(b.Right)
			return
		}
		conjuncts = append(conjuncts, e)
	}
	flatten(on)

	var residuals []expr.Filter
	for _, c := range conjuncts {
		b, ok := c.(*BinaryExpr)
		if ok && b.Op == "=" {
			le, lerr := a.toScalar(b.Left, lsc)
			re, rerr := a.toScalar(b.Right, rsc)
			if lerr == nil && rerr == nil {
				le, re, cerr := coercePair(le, re)
				if cerr != nil {
					return nil, nil, nil, cerr
				}
				lk = append(lk, le)
				rk = append(rk, re)
				continue
			}
			// Try swapped sides: right.col = left.col.
			le2, lerr2 := a.toScalar(b.Right, lsc)
			re2, rerr2 := a.toScalar(b.Left, rsc)
			if lerr2 == nil && rerr2 == nil {
				le2, re2, cerr := coercePair(le2, re2)
				if cerr != nil {
					return nil, nil, nil, cerr
				}
				lk = append(lk, le2)
				rk = append(rk, re2)
				continue
			}
		}
		f, ferr := a.toPred(c, combined)
		if ferr != nil {
			return nil, nil, nil, ferr
		}
		residuals = append(residuals, f)
	}
	if len(residuals) == 1 {
		residual = residuals[0]
	} else if len(residuals) > 1 {
		residual = expr.NewAnd(residuals...)
	}
	return lk, rk, residual, nil
}

// containsAgg reports whether any select item holds an aggregate call.
func containsAgg(items []SelectItem) bool {
	for _, it := range items {
		if containsAggExpr(it.Expr) {
			return true
		}
	}
	return false
}

func containsAggExpr(e AstExpr) bool {
	found := false
	rewriteAst(e, func(n AstExpr) (AstExpr, bool) {
		f, _ := aggCall(n)
		found = found || f != nil
		return n, !found
	})
	return found
}

// analyzeAggregate plans GROUP BY queries: child → Aggregate → [Having
// filter] → Project → Sort/Limit.
func (a *analyzer) analyzeAggregate(stmt *SelectStmt, child LogicalPlan, sc *scope) (LogicalPlan, error) {
	// 1. Group keys.
	var keys []expr.Expr
	var keyNames []string
	for _, g := range stmt.GroupBy {
		k, err := a.toScalar(g, sc)
		if err != nil {
			return nil, err
		}
		keys = append(keys, k)
		name := ""
		if cn, ok := g.(*ColName); ok {
			name = cn.Name
		}
		keyNames = append(keyNames, name)
	}

	// 2. Collect aggregate calls from items, HAVING, ORDER BY.
	collector := &aggCollect{a: a, sc: sc}
	for _, it := range stmt.Items {
		if it.Star {
			return nil, fmt.Errorf("sql: SELECT * is incompatible with GROUP BY")
		}
		if err := collector.scan(it.Expr); err != nil {
			return nil, err
		}
	}
	if err := collector.scan(stmt.Having); err != nil {
		return nil, err
	}

	agg := &LAggregate{Child: child, Keys: keys, KeyNames: keyNames, Aggs: collector.specs}

	// 3. Post-aggregation scope: keys then agg results, referenced by
	//    position.
	post := &postAggScope{
		groupBy: stmt.GroupBy,
		aggSche: agg.Schema(),
		collect: collector,
		nKeys:   len(keys),
		a:       a,
	}

	var plan LogicalPlan = agg
	if stmt.Having != nil {
		pred, err := post.toPred(stmt.Having)
		if err != nil {
			return nil, err
		}
		plan = &LFilter{Child: plan, Pred: pred}
	}

	var exprs []expr.Expr
	var names []string
	for _, it := range stmt.Items {
		e, err := post.toScalar(it.Expr)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		name := it.Alias
		if name == "" {
			switch n := it.Expr.(type) {
			case *ColName:
				name = n.Name
			case *FuncCall:
				arg := "*"
				if !n.Star && len(n.Args) == 1 {
					if cn, ok := n.Args[0].(*ColName); ok {
						arg = cn.Name
					}
				}
				name = strings.ToLower(n.Name) + "(" + arg + ")"
			}
		}
		names = append(names, name)
	}
	plan = &LProject{Child: plan, Exprs: exprs, Names: names}
	if stmt.Distinct {
		plan = distinctOf(plan.(*LProject))
	}
	return a.finishSortLimit(stmt, plan)
}

// aggCollect gathers aggregate calls and assigns output positions.
type aggCollect struct {
	a     *analyzer
	sc    *scope
	specs []expr.AggSpec
	calls []*FuncCall
}

// scan registers every aggregate call under e.
func (c *aggCollect) scan(e AstExpr) error {
	var scanErr error
	rewriteAst(e, func(n AstExpr) (AstExpr, bool) {
		f, fn := aggCall(n)
		if scanErr != nil || f == nil || slices.Contains(c.calls, f) {
			return n, scanErr == nil
		}
		args, _, err := fn.bind(f, &baseConv{a: c.a, sc: c.sc})
		if err != nil {
			scanErr = err
			return n, false
		}
		spec := expr.AggSpec{Kind: fn.agg, Distinct: f.Distinct, Name: fmt.Sprintf("agg%d", len(c.specs))}
		if len(args) > 0 {
			spec.Arg = args[0]
		}
		c.calls = append(c.calls, f)
		c.specs = append(c.specs, spec)
		return n, true
	})
	return scanErr
}

// find returns the aggregate output ordinal for a registered call.
func (c *aggCollect) find(f *FuncCall) (int, bool) {
	i := slices.Index(c.calls, f)
	return i, i >= 0
}

// postAggScope converts expressions over the aggregate's output: group-by
// expressions map to key ordinals, aggregate calls to agg ordinals.
type postAggScope struct {
	groupBy []AstExpr
	aggSche *types.Schema
	collect *aggCollect
	nKeys   int
	a       *analyzer
}

func (p *postAggScope) toScalar(e AstExpr) (expr.Expr, error) {
	// Aggregate call → agg output column.
	if f, ok := e.(*FuncCall); ok {
		if idx, isAgg := p.collect.find(f); isAgg {
			col := p.nKeys + idx
			fld := p.aggSche.Field(col)
			return expr.Col(col, fld.Name, fld.Type), nil
		}
	}
	// Structural match with a GROUP BY expression → key column.
	for ki, g := range p.groupBy {
		if astEqual(e, g) {
			fld := p.aggSche.Field(ki)
			return expr.Col(ki, fld.Name, fld.Type), nil
		}
	}
	// Recurse: expressions over aggregates/keys.
	return p.a.convertScalar(e, p)
}

func (p *postAggScope) toPred(e AstExpr) (expr.Filter, error) {
	return p.a.convertPred(e, p)
}

// resolveCol implements resolver for the post-aggregation scope.
func (p *postAggScope) resolveCol(qual, name string) (expr.Expr, error) {
	// Allow bare references to key columns by name.
	for ki := 0; ki < p.nKeys; ki++ {
		f := p.aggSche.Field(ki)
		if strings.EqualFold(f.Name, name) {
			return expr.Col(ki, f.Name, f.Type), nil
		}
		if cn, ok := p.groupBy[ki].(*ColName); ok && strings.EqualFold(cn.Name, name) &&
			(qual == "" || strings.EqualFold(cn.Table, qual)) {
			return expr.Col(ki, f.Name, f.Type), nil
		}
	}
	return nil, fmt.Errorf("sql: %q must appear in GROUP BY or inside an aggregate", name)
}

// resolveSub handles nested scalar conversion in post-agg context.
func (p *postAggScope) convertChild(e AstExpr) (expr.Expr, error) { return p.toScalar(e) }

// astEqual compares ASTs structurally (case-insensitive identifiers). It
// knows every expression kind; a plan-cache parameter or a placeholder
// equals nothing, since GROUP BY keeps its literals verbatim and a key
// must not match an expression whose literal may differ.
func astEqual(a, b AstExpr) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case *ColName:
		y, ok := b.(*ColName)
		return ok && strings.EqualFold(x.Name, y.Name) &&
			(x.Table == "" || y.Table == "" || strings.EqualFold(x.Table, y.Table))
	case *NumberLit, *StringLit, *BoolLit, *NullLit, *DateLit, *IntervalLit:
		return reflect.DeepEqual(a, b)
	case *BinaryExpr:
		y, ok := b.(*BinaryExpr)
		return ok && x.Op == y.Op && astEqual(x.Left, y.Left) && astEqual(x.Right, y.Right)
	case *UnaryExpr:
		y, ok := b.(*UnaryExpr)
		return ok && x.Op == y.Op && astEqual(x.Inner, y.Inner)
	case *BetweenExpr:
		y, ok := b.(*BetweenExpr)
		return ok && x.Negate == y.Negate && astEqual(x.Inner, y.Inner) &&
			astEqual(x.Lo, y.Lo) && astEqual(x.Hi, y.Hi)
	case *InExpr:
		y, ok := b.(*InExpr)
		return ok && x.Negate == y.Negate && astEqual(x.Inner, y.Inner) && astsEqual(x.List, y.List)
	case *LikeExpr:
		y, ok := b.(*LikeExpr)
		return ok && x.Negate == y.Negate && x.Pattern == y.Pattern && astEqual(x.Inner, y.Inner)
	case *IsNullExpr:
		y, ok := b.(*IsNullExpr)
		return ok && x.Negate == y.Negate && astEqual(x.Inner, y.Inner)
	case *CaseExpr:
		y, ok := b.(*CaseExpr)
		if !ok || len(x.Whens) != len(y.Whens) || !astEqual(x.Else, y.Else) {
			return false
		}
		for i, w := range x.Whens {
			if !astEqual(w.Cond, y.Whens[i].Cond) || !astEqual(w.Then, y.Whens[i].Then) {
				return false
			}
		}
		return true
	case *CastExpr:
		y, ok := b.(*CastExpr)
		return ok && strings.EqualFold(x.TypeName, y.TypeName) && astEqual(x.Inner, y.Inner)
	case *FuncCall:
		y, ok := b.(*FuncCall)
		return ok && x.Name == y.Name && x.Star == y.Star && x.Distinct == y.Distinct && astsEqual(x.Args, y.Args)
	}
	return false
}

func astsEqual(a, b []AstExpr) bool {
	return slices.EqualFunc(a, b, astEqual)
}

// exprConverter abstracts column resolution so the same conversion code
// serves both the base scope and the post-aggregation scope.
type exprConverter interface {
	resolveCol(qual, name string) (expr.Expr, error)
	convertChild(e AstExpr) (expr.Expr, error)
}

// scope implements exprConverter.
func (s *scope) resolveCol(qual, name string) (expr.Expr, error) {
	idx, t, err := s.resolve(qual, name)
	if err != nil {
		return nil, err
	}
	return expr.Col(idx, name, t), nil
}

// toScalar converts in the base scope.
func (a *analyzer) toScalar(e AstExpr, sc *scope) (expr.Expr, error) {
	return a.convertScalar(e, &baseConv{a: a, sc: sc})
}

// toPred converts a predicate in the base scope.
func (a *analyzer) toPred(e AstExpr, sc *scope) (expr.Filter, error) {
	return a.convertPred(e, &baseConv{a: a, sc: sc})
}

// baseConv adapts scope to exprConverter with proper recursion.
type baseConv struct {
	a  *analyzer
	sc *scope
}

func (b *baseConv) resolveCol(qual, name string) (expr.Expr, error) {
	return b.sc.resolveCol(qual, name)
}

func (b *baseConv) convertChild(e AstExpr) (expr.Expr, error) {
	return b.a.convertScalar(e, b)
}
