package catalyst

import (
	"fmt"

	"photon/internal/catalog"
	"photon/internal/expr"
	"photon/internal/kernels"
	"photon/internal/sql"
)

// Optimize applies the logical rule pipeline until fixpoint-ish (each rule
// is applied once in dependency order, which suffices for this rule set).
func Optimize(plan sql.LogicalPlan) (sql.LogicalPlan, error) {
	plan, err := pushDownFilters(plan, nil)
	if err != nil {
		return nil, err
	}
	plan = fuseBetween(plan)
	plan, err = pruneColumns(plan)
	if err != nil {
		return nil, err
	}
	plan = chooseBuildSide(plan)
	return plan, nil
}

// splitConjuncts flattens ANDs into a conjunct list.
func splitConjuncts(f expr.Filter, out []expr.Filter) []expr.Filter {
	if and, ok := f.(*expr.And); ok {
		for _, sub := range and.Filters {
			out = splitConjuncts(sub, out)
		}
		return out
	}
	return append(out, f)
}

// splitDisjuncts flattens ORs into a branch list.
func splitDisjuncts(f expr.Filter, out []expr.Filter) []expr.Filter {
	if or, ok := f.(*expr.Or); ok {
		return splitDisjuncts(or.Right, splitDisjuncts(or.Left, out))
	}
	return append(out, f)
}

func andOf(fs []expr.Filter) expr.Filter {
	switch len(fs) {
	case 0:
		return nil
	case 1:
		return fs[0]
	default:
		return expr.NewAnd(fs...)
	}
}

// pushDownFilters pushes pending conjuncts (expressed over node's output)
// as deep as possible: into scans (enabling Delta data skipping), below
// projections, through join sides, and converts filtered cross joins into
// hash joins.
func pushDownFilters(plan sql.LogicalPlan, pending []expr.Filter) (sql.LogicalPlan, error) {
	switch n := plan.(type) {
	case *sql.LFilter:
		pending = splitConjuncts(n.Pred, pending)
		return pushDownFilters(n.Child, pending)

	case *sql.LScan:
		if len(pending) > 0 {
			all := pending
			if n.Filter != nil {
				all = append([]expr.Filter{n.Filter}, all...)
			}
			n.Filter = andOf(all)
		}
		return n, nil

	case *sql.LProject:
		// A conjunct can move below the projection if every column it
		// references maps to a pass-through column expression.
		var below, above []expr.Filter
		for _, c := range pending {
			if mapped, ok := filterThroughProject(c, n); ok {
				below = append(below, mapped)
			} else {
				above = append(above, c)
			}
		}
		child, err := pushDownFilters(n.Child, below)
		if err != nil {
			return nil, err
		}
		n.Child = child
		if f := andOf(above); f != nil {
			return &sql.LFilter{Child: n, Pred: f}, nil
		}
		return n, nil

	case *sql.LCrossJoin:
		return convertCrossJoin(n, pending)

	case *sql.LJoin:
		return pushIntoJoin(n, pending)

	case *sql.LAggregate:
		// Conjuncts over group keys could push below; conservative: keep
		// above, then recurse with nothing.
		child, err := pushDownFilters(n.Child, nil)
		if err != nil {
			return nil, err
		}
		n.Child = child
		if f := andOf(pending); f != nil {
			return &sql.LFilter{Child: n, Pred: f}, nil
		}
		return n, nil

	case *sql.LSort:
		child, err := pushDownFilters(n.Child, pending)
		if err != nil {
			return nil, err
		}
		n.Child = child
		return n, nil

	case *sql.LLimit:
		// Never push filters below a limit (it would change results).
		child, err := pushDownFilters(n.Child, nil)
		if err != nil {
			return nil, err
		}
		n.Child = child
		if f := andOf(pending); f != nil {
			return &sql.LFilter{Child: n, Pred: f}, nil
		}
		return n, nil
	}
	// Unknown node: stop pushing.
	if f := andOf(pending); f != nil {
		return &sql.LFilter{Child: plan, Pred: f}, nil
	}
	return plan, nil
}

// filterThroughProject remaps a conjunct below a projection when possible.
func filterThroughProject(f expr.Filter, p *sql.LProject) (expr.Filter, bool) {
	used := map[int]bool{}
	UsedColumnsFilter(f, used)
	mapping := make([]int, p.Schema().Len())
	for i := range mapping {
		mapping[i] = -1
	}
	for i := range used {
		if i >= len(p.Exprs) {
			return nil, false
		}
		col, ok := p.Exprs[i].(*expr.ColRef)
		if !ok {
			return nil, false
		}
		mapping[i] = col.Idx
	}
	mapped, err := RemapFilter(f, mapping)
	if err != nil {
		return nil, false
	}
	return mapped, true
}

// convertCrossJoin turns cross joins plus equality conjuncts into hash
// joins; remaining conjuncts route to their side or stay above.
func convertCrossJoin(n *sql.LCrossJoin, pending []expr.Filter) (sql.LogicalPlan, error) {
	leftW := n.Left.Schema().Len()
	total := leftW + n.Right.Schema().Len()

	var leftKeys, rightKeys []expr.Expr
	var leftOnly, rightOnly, residual []expr.Filter
	for _, c := range pending {
		lo, hi := minColRef(c), maxColRef(c)
		switch {
		case hi < leftW && hi >= 0:
			leftOnly = append(leftOnly, c)
		case lo >= leftW && lo < total:
			mapped, err := RemapFilter(c, rightFrame(leftW, total))
			if err != nil {
				return nil, err
			}
			rightOnly = append(rightOnly, mapped)
		default:
			// Spans both sides: an equality becomes a join key.
			if cmp, ok := c.(*expr.Cmp); ok && cmp.Op == kernels.CmpEq {
				if lk, rk, ok := splitEquiKey(cmp, leftW, total); ok {
					leftKeys = append(leftKeys, lk)
					rightKeys = append(rightKeys, rk)
					continue
				}
			}
			l, r, err := impliedByOr(c, leftW, total)
			if err != nil {
				return nil, err
			}
			leftOnly, rightOnly = appendFilter(leftOnly, l), appendFilter(rightOnly, r)
			residual = append(residual, c)
		}
	}

	left, err := pushDownFilters(n.Left, leftOnly)
	if err != nil {
		return nil, err
	}
	right, err := pushDownFilters(n.Right, rightOnly)
	if err != nil {
		return nil, err
	}

	if len(leftKeys) == 0 {
		return nil, fmt.Errorf("catalyst: cross join without equality predicate is not supported (add a join condition)")
	}
	j := &sql.LJoin{
		Left: left, Right: right, Kind: sql.JoinInner,
		LeftKeys: leftKeys, RightKeys: rightKeys, Residual: andOf(residual),
	}
	return j, nil
}

// splitEquiKey splits an equality whose sides reference opposite join
// inputs into per-side key expressions.
func splitEquiKey(cmp *expr.Cmp, leftW, total int) (expr.Expr, expr.Expr, bool) {
	sideOf := func(e expr.Expr) (int, bool) { // 0=left, 1=right
		used := map[int]bool{}
		UsedColumns(e, used)
		if len(used) == 0 {
			return -1, false
		}
		side := -1
		for i := range used {
			s := 0
			if i >= leftW {
				s = 1
			}
			if side == -1 {
				side = s
			} else if side != s {
				return -1, false
			}
		}
		return side, true
	}
	ls, lok := sideOf(cmp.Left)
	rs, rok := sideOf(cmp.Right)
	if !lok || !rok || ls == rs {
		return nil, nil, false
	}
	a, b := cmp.Left, cmp.Right
	if ls == 1 { // normalize to (left, right)
		a, b = b, a
	}
	rb, err := RemapExpr(b, rightFrame(leftW, total))
	if err != nil {
		return nil, nil, false
	}
	return a, rb, true
}

func identityMapping(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// rightFrame maps a join's output ordinals into its right input's; the left
// input's columns are unavailable there.
func rightFrame(leftW, total int) []int {
	m := make([]int, total)
	for i := range m {
		m[i] = i - leftW
	}
	return m
}

// impliedByOr derives, from a conjunct spanning both join inputs that is a
// disjunction B1 OR ... OR Bn, the predicate it implies on each input: the
// OR over the branches of each branch's conjuncts that reference only that
// input, or nil when some branch has none. A row pair passing the
// disjunction passes some Bi, so each of its rows passes its own part of
// Bi; a filter built from those parts removes only rows the disjunction
// would remove above the join. Both are in the input's frame (RemapFilter)
// and may share subtrees with c; a plan-cache rebind reaches their
// Param-tagged literals through the same slots as c's.
func impliedByOr(c expr.Filter, leftW, total int) (left, right expr.Filter, err error) {
	if _, ok := c.(*expr.Or); !ok {
		return nil, nil, nil
	}
	branches := splitDisjuncts(c, nil)
	part := func(mine func(lo, hi int) bool, frame []int) (expr.Filter, error) {
		var out expr.Filter
		for _, b := range branches {
			var own []expr.Filter
			for _, conj := range splitConjuncts(b, nil) {
				if lo, hi := minColRef(conj), maxColRef(conj); hi >= 0 && mine(lo, hi) {
					own = append(own, conj)
				}
			}
			if len(own) == 0 {
				return nil, nil
			}
			if out == nil {
				out = andOf(own)
			} else {
				out = expr.NewOr(out, andOf(own))
			}
		}
		return RemapFilter(out, frame)
	}
	if left, err = part(func(_, hi int) bool { return hi < leftW }, identityMapping(total)); err != nil {
		return nil, nil, err
	}
	right, err = part(func(lo, _ int) bool { return lo >= leftW }, rightFrame(leftW, total))
	return left, right, err
}

func appendFilter(fs []expr.Filter, f expr.Filter) []expr.Filter {
	if f == nil {
		return fs
	}
	return append(fs, f)
}

// pushIntoJoin routes conjuncts over a join's output to its inputs.
func pushIntoJoin(n *sql.LJoin, pending []expr.Filter) (sql.LogicalPlan, error) {
	leftW := n.Left.Schema().Len()
	total := n.Schema().Len()
	var leftOnly, rightOnly, above []expr.Filter
	for _, c := range pending {
		lo, hi := minColRef(c), maxColRef(c)
		switch {
		case hi < leftW:
			leftOnly = append(leftOnly, c)
		case lo >= leftW && n.Kind == sql.JoinInner:
			mapped, err := RemapFilter(c, rightFrame(leftW, total))
			if err != nil {
				return nil, err
			}
			rightOnly = append(rightOnly, mapped)
		default:
			l, r, err := impliedByOr(c, leftW, total)
			if err != nil {
				return nil, err
			}
			leftOnly = appendFilter(leftOnly, l)
			// Never into a left outer join's right input: a right row it
			// removes turns its matches into NULL-padded rows, which a
			// branch such as r.x IS NULL would then keep.
			if n.Kind == sql.JoinInner {
				rightOnly = appendFilter(rightOnly, r)
			}
			above = append(above, c)
		}
	}
	left, err := pushDownFilters(n.Left, leftOnly)
	if err != nil {
		return nil, err
	}
	right, err := pushDownFilters(n.Right, rightOnly)
	if err != nil {
		return nil, err
	}
	n.Left, n.Right = left, right
	if f := andOf(above); f != nil {
		return &sql.LFilter{Child: n, Pred: f}, nil
	}
	return n, nil
}

// fuseBetween rewrites (col >= lo AND col <= hi) conjunct pairs into the
// fused Between kernel (§3.3) inside every filter node and scan filter.
func fuseBetween(plan sql.LogicalPlan) sql.LogicalPlan {
	switch n := plan.(type) {
	case *sql.LScan:
		if n.Filter != nil {
			n.Filter = fuseBetweenFilter(n.Filter)
		}
	case *sql.LFilter:
		n.Pred = fuseBetweenFilter(n.Pred)
		fuseBetween(n.Child)
	default:
		for _, c := range plan.Children() {
			fuseBetween(c)
		}
	}
	return plan
}

func fuseBetweenFilter(f expr.Filter) expr.Filter {
	and, ok := f.(*expr.And)
	if !ok {
		return f
	}
	conj := splitConjuncts(and, nil)
	var out []expr.Filter
	used := make([]bool, len(conj))
	for i, c := range conj {
		if used[i] {
			continue
		}
		ge, ok := asColCmpLit(c, kernels.CmpGe)
		if !ok {
			out = append(out, c)
			continue
		}
		fused := false
		for j := i + 1; j < len(conj); j++ {
			if used[j] {
				continue
			}
			le, ok := asColCmpLit(conj[j], kernels.CmpLe)
			if ok && sameCol(ge.col, le.col) {
				out = append(out, expr.NewBetween(ge.col, ge.lit, le.lit))
				used[j] = true
				fused = true
				break
			}
		}
		if !fused {
			out = append(out, c)
		}
	}
	return andOf(out)
}

type colCmpLit struct {
	col *expr.ColRef
	lit *expr.Literal
}

func asColCmpLit(f expr.Filter, wantOp kernels.CmpOp) (colCmpLit, bool) {
	cmp, ok := f.(*expr.Cmp)
	if !ok || cmp.Op != wantOp {
		return colCmpLit{}, false
	}
	col, ok := cmp.Left.(*expr.ColRef)
	if !ok {
		return colCmpLit{}, false
	}
	lit, ok := cmp.Right.(*expr.Literal)
	if !ok || lit.IsNullLit() { // Between has no NULL bound
		return colCmpLit{}, false
	}
	return colCmpLit{col: col, lit: lit}, true
}

func sameCol(a, b *expr.ColRef) bool { return a.Idx == b.Idx }

// chooseBuildSide swaps inner-join inputs so the (estimated) smaller side
// builds the hash table.
func chooseBuildSide(plan sql.LogicalPlan) sql.LogicalPlan {
	switch n := plan.(type) {
	case *sql.LJoin:
		n.Left = chooseBuildSide(n.Left)
		n.Right = chooseBuildSide(n.Right)
		if n.Kind == sql.JoinInner && n.Residual == nil {
			if estimateRows(n.Right) > 2*estimateRows(n.Left) {
				leftW := n.Left.Schema().Len()
				rightW := n.Right.Schema().Len()
				n.Left, n.Right = n.Right, n.Left
				n.LeftKeys, n.RightKeys = n.RightKeys, n.LeftKeys
				n.InvalidateSchema()
				// Output column order changed: wrap in a project restoring
				// the original (old-left then old-right) order.
				exprs := make([]expr.Expr, 0, leftW+rightW)
				names := make([]string, 0, leftW+rightW)
				sch := n.Schema()
				for i := 0; i < leftW; i++ {
					f := sch.Field(rightW + i)
					exprs = append(exprs, expr.Col(rightW+i, f.Name, f.Type))
					names = append(names, f.Name)
				}
				for i := 0; i < rightW; i++ {
					f := sch.Field(i)
					exprs = append(exprs, expr.Col(i, f.Name, f.Type))
					names = append(names, f.Name)
				}
				return &sql.LProject{Child: n, Exprs: exprs, Names: names}
			}
		}
		return n
	case *sql.LFilter:
		n.Child = chooseBuildSide(n.Child)
		return n
	case *sql.LProject:
		n.Child = chooseBuildSide(n.Child)
		return n
	case *sql.LAggregate:
		n.Child = chooseBuildSide(n.Child)
		return n
	case *sql.LSort:
		n.Child = chooseBuildSide(n.Child)
		return n
	case *sql.LLimit:
		n.Child = chooseBuildSide(n.Child)
		return n
	case *sql.LCrossJoin:
		n.Left = chooseBuildSide(n.Left)
		n.Right = chooseBuildSide(n.Right)
		return n
	}
	return plan
}

// estimateRows derives a coarse cardinality from the catalog.
func estimateRows(plan sql.LogicalPlan) int64 {
	switch n := plan.(type) {
	case *sql.LScan:
		switch t := n.Table.(type) {
		case *catalog.MemTable:
			base := t.NumRows()
			if n.Filter != nil {
				return base / 3 // crude selectivity guess
			}
			return base
		case *catalog.DeltaTable:
			var rows int64
			for _, f := range t.Snap.Files {
				rows += f.NumRecords
			}
			if n.Filter != nil {
				return rows / 3
			}
			return rows
		case *catalog.VirtualTable:
			if t.EstRows != nil {
				base := t.EstRows()
				if n.Filter != nil {
					return base / 3
				}
				return base
			}
		}
		return 1 << 30
	case *sql.LFilter:
		return estimateRows(n.Child) / 3
	case *sql.LAggregate:
		return estimateRows(n.Child) / 10
	case *sql.LLimit:
		return min(n.N, estimateRows(n.Child))
	case *sql.LJoin:
		l, r := estimateRows(n.Left), estimateRows(n.Right)
		if n.Kind == sql.JoinLeftSemi || n.Kind == sql.JoinLeftAnti {
			return l
		}
		return max(l, r)
	}
	var total int64
	for _, c := range plan.Children() {
		total += estimateRows(c)
	}
	if total == 0 {
		return 1 << 30
	}
	return total
}
