// Package catalyst is the rule-based optimizer and physical planner, named
// for Spark SQL's extensible optimizer that Photon plugs into (§5.1). It
// applies logical rules (predicate pushdown into scans for Delta data
// skipping, cross-join elimination, fused-BETWEEN detection, column
// pruning, build-side selection) and then converts the plan to physical
// operators — Photon's vectorized operators by default, with the paper's
// bottom-up conversion rule: unsupported nodes fall back to the row engine
// with an explicit column-to-row transition node (Fig. 3).
package catalyst

import (
	"fmt"

	"photon/internal/expr"
)

// RemapExpr rewrites column ordinals through mapping (old → new); a -1
// mapping entry means the column is unavailable and remapping fails.
func RemapExpr(e expr.Expr, mapping []int) (expr.Expr, error) {
	return expr.MapLeaves(e, remapCol(mapping))
}

// RemapFilter rewrites a filter tree's column ordinals.
func RemapFilter(f expr.Filter, mapping []int) (expr.Filter, error) {
	return expr.MapFilterLeaves(f, remapCol(mapping))
}

// remapCol is the leaf callback behind RemapExpr and RemapFilter. A column
// that keeps its ordinal is returned as is, so an unmoved subtree is shared.
func remapCol(mapping []int) func(expr.Expr) (expr.Expr, error) {
	return func(leaf expr.Expr) (expr.Expr, error) {
		c, ok := leaf.(*expr.ColRef)
		switch {
		case !ok:
			return leaf, nil
		case c.Idx >= len(mapping) || mapping[c.Idx] < 0:
			return nil, fmt.Errorf("catalyst: column %d unavailable after remap", c.Idx)
		case mapping[c.Idx] == c.Idx:
			return c, nil
		}
		return expr.Col(mapping[c.Idx], c.Name, c.T), nil
	}
}

// eachCol adapts visit to a leaf callback that changes nothing.
func eachCol(visit func(*expr.ColRef)) func(expr.Expr) (expr.Expr, error) {
	return func(leaf expr.Expr) (expr.Expr, error) {
		if c, ok := leaf.(*expr.ColRef); ok {
			visit(c)
		}
		return leaf, nil
	}
}

// UsedColumns collects the child ordinals referenced by an expression.
func UsedColumns(e expr.Expr, used map[int]bool) {
	expr.MapLeaves(e, eachCol(func(c *expr.ColRef) { used[c.Idx] = true }))
}

// UsedColumnsFilter collects ordinals referenced by a filter.
func UsedColumnsFilter(f expr.Filter, used map[int]bool) {
	expr.MapFilterLeaves(f, eachCol(func(c *expr.ColRef) { used[c.Idx] = true }))
}

// maxColRef returns the highest ordinal referenced (-1 if none).
func maxColRef(f expr.Filter) int {
	m := -1
	expr.MapFilterLeaves(f, eachCol(func(c *expr.ColRef) { m = max(m, c.Idx) }))
	return m
}

// minColRef returns the lowest ordinal referenced (or 1<<30 if none).
func minColRef(f expr.Filter) int {
	m := 1 << 30
	expr.MapFilterLeaves(f, eachCol(func(c *expr.ColRef) { m = min(m, c.Idx) }))
	return m
}
