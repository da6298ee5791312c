package catalyst

import (
	"fmt"
	"slices"

	"photon/internal/expr"
	"photon/internal/sql"
)

// The stage planner generalizes distributed execution from "top-level
// aggregations only" to every plan shape (§2.2): it walks an optimized
// logical plan and inserts exchange boundaries — hash partitioning for
// grouped aggregation and shuffle joins, broadcast for small join build
// sides, and a gather (with optional k-way merge order) back to the
// driver — so scans, filters, projections, joins, sorts, DISTINCT, and
// aggregations all execute as parallel stages.

// DefaultBroadcastRows is the build-side size ceiling (estimated rows)
// below which a join broadcasts its build side instead of shuffling both
// sides.
const DefaultBroadcastRows = 4 << 20

// StageConfig controls stage planning.
type StageConfig struct {
	// Parallelism is the target task count per partitioned stage (and the
	// hash-exchange partition count).
	Parallelism int
	// BroadcastRows is the build-side row-estimate ceiling for broadcast
	// joins. 0 selects DefaultBroadcastRows; negative disables broadcast
	// for keyed joins (both sides shuffle), which is mainly useful for
	// testing the shuffle-join path.
	BroadcastRows int64
	// RuntimeFilters enables build-side runtime filter production and
	// probe-side consumption for eligible joins (inner and left-semi with
	// plain-column keys). Filters are strictly best-effort: disabling them
	// never changes results, only speed.
	RuntimeFilters bool
}

func (c StageConfig) broadcastRows() int64 {
	if c.BroadcastRows == 0 {
		return DefaultBroadcastRows
	}
	return c.BroadcastRows
}

// PlanStages decomposes an optimized logical plan into a fragment DAG.
// An error means the plan contains a shape the stage planner cannot split
// (for example an unconverted cross join or an interior sort); callers
// fall back to single-task execution.
func PlanStages(plan sql.LogicalPlan, cfg StageConfig) (*Fragment, error) {
	p := &stagePlanner{cfg: cfg}

	// Peel the driver tail: a root LIMIT and/or ORDER BY runs per task
	// inside the final stage (Sort/TopK), then finishes on the driver
	// (k-way merge + truncate) — the two-phase parallel sort.
	tailLimit := int64(-1)
	body := plan
	if l, ok := body.(*sql.LLimit); ok {
		tailLimit = l.N
		body = l.Child
	}
	sortNode, _ := body.(*sql.LSort)
	if sortNode != nil {
		body = sortNode.Child
	}

	rf := &Fragment{}
	staged, err := p.assemble(body, rf)
	if err != nil {
		return nil, err
	}
	root := staged
	if sortNode != nil {
		root = &sql.LSort{Child: root, Keys: sortNode.Keys}
	}
	if tailLimit >= 0 {
		// Per-task limit: each task's top/first N rows are a superset of
		// its contribution to the global result.
		root = &sql.LLimit{Child: root, N: tailLimit}
	}
	p.cut(rf, root, ExchangeGather, nil)
	if sortNode != nil {
		rf.MergeKeys = sortNode.Keys
	}
	rf.TailLimit = tailLimit
	return rf, nil
}

type stagePlanner struct {
	cfg    StageConfig
	nextID int
}

// cut finishes f, the fragment under construction: assemble has filled in
// its inputs, scan and filter roles while building root.
func (p *stagePlanner) cut(f *Fragment, root sql.LogicalPlan, out ExchangeKind, hashCols []int) *Fragment {
	f.ID, f.Root, f.Out, f.HashCols, f.TailLimit = p.nextID, root, out, hashCols, -1
	p.nextID++
	return f
}

// assemble builds node's fragment-local plan inside f, the fragment under
// construction, cutting child fragments at exchange boundaries.
func (p *stagePlanner) assemble(node sql.LogicalPlan, f *Fragment) (sql.LogicalPlan, error) {
	switch n := node.(type) {
	case *sql.LScan:
		// The physical planner partitions the first (probe-lineage) scan of
		// a fragment across tasks; the stage planner guarantees at most one
		// scan per fragment.
		f.PartitionedScan = true
		return n, nil

	case *sql.LFilter:
		c, err := p.assemble(n.Child, f)
		if err != nil {
			return nil, err
		}
		return &sql.LFilter{Child: c, Pred: n.Pred}, nil

	case *sql.LProject:
		c, err := p.assemble(n.Child, f)
		if err != nil {
			return nil, err
		}
		return &sql.LProject{Child: c, Exprs: n.Exprs, Names: n.Names}, nil

	case *sql.LAggregate:
		// Split into partial (map side) and final (reduce side) across a
		// hash exchange on the grouping keys. Keyless aggregations exchange
		// everything to partition 0.
		pf := &Fragment{}
		c, err := p.assemble(n.Child, pf)
		if err != nil {
			return nil, err
		}
		partial, err := newPartialAgg(c, n)
		if err != nil {
			return nil, err
		}
		keyCols := make([]int, len(n.Keys))
		for i := range keyCols {
			keyCols[i] = i // partial schema leads with the grouping keys
		}
		p.cut(pf, partial, ExchangeHash, keyCols)
		f.Inputs = append(f.Inputs, pf)
		f.ReadsHash = true
		return &FinalAggPlan{Child: &ExchangeRead{Frag: pf}, Agg: n}, nil

	case *sql.LJoin:
		return p.assembleJoin(n, f)

	default:
		// Interior sorts/limits, cross joins, and unknown nodes cannot be
		// staged; the caller runs the whole plan single-task.
		return nil, fmt.Errorf("catalyst: cannot stage %T", node)
	}
}

// assembleJoin picks the join's exchange strategy: broadcast the build
// side when it is small (or when the keys are not plain columns), else
// hash-partition both sides on the join keys. For eligible joins the build
// fragment additionally publishes a runtime filter over its key columns,
// which the probe side consumes wherever those columns originate.
func (p *stagePlanner) assembleJoin(n *sql.LJoin, f *Fragment) (sql.LogicalPlan, error) {
	leftCols, rightCols, keyed := joinKeyCols(n)
	// Runtime filters require plain-column keys and a join kind whose probe
	// output is a subset of probe rows that match some build key: inner and
	// left-semi. Outer/anti joins must keep non-matching probe rows, so
	// pre-filtering them would change results.
	rfEligible := p.cfg.RuntimeFilters && keyed &&
		(n.Kind == sql.JoinInner || n.Kind == sql.JoinLeftSemi)
	bcast := p.cfg.broadcastRows()
	broadcast := !keyed || (bcast >= 0 && estimateRows(n.Right) <= bcast)

	// Broadcast join: the probe side stays in this fragment (parallel probe);
	// the build side becomes its own stage whose output is replicated to every
	// probe task. Shuffle join: both sides are cut and hash-partitioned on the
	// join keys, so partition i of the probe side meets partition i of the
	// build side in one task.
	lf := f
	if !broadcast {
		lf = &Fragment{}
	}
	left, err := p.assemble(n.Left, lf)
	if err != nil {
		return nil, err
	}
	bf := &Fragment{}
	right, err := p.assemble(n.Right, bf)
	if err != nil {
		return nil, err
	}
	if broadcast {
		p.cut(bf, right, ExchangeBroadcast, nil)
	} else {
		p.cut(bf, right, ExchangeHash, rightCols)
	}
	if rfEligible {
		// The build stage is a scheduler dependency of every fragment its
		// filter lands in, so the filter is total by the time their batches
		// flow: before the probe (broadcast), before the shuffle (hash), or
		// further down, before exchanges and joins below this one.
		bf.RFKeys = rightCols
		est := estimateRows(n.Right)
		bf.RFExpectRows = max(est, min(rfEstimateSlack*est, rfSlackKeys))
		left = sinkRuntimeFilter(left, lf, bf, leftCols)
	}
	if !broadcast {
		p.cut(lf, left, ExchangeHash, leftCols)
		f.Inputs = append(f.Inputs, lf)
		f.ReadsHash = true
		left = &ExchangeRead{Frag: lf}
	}
	f.Inputs = append(f.Inputs, bf)
	return &sql.LJoin{
		Left:     left,
		Right:    &ExchangeRead{Frag: bf, Broadcast: broadcast},
		Kind:     n.Kind,
		LeftKeys: n.LeftKeys, RightKeys: n.RightKeys,
		Residual: n.Residual,
	}, nil
}

// A build side's Bloom filter is sized for rfEstimateSlack times
// estimateRows' figure where that keeps it within rfSlackKeys keys (64 KiB,
// L2-resident, nothing to zero or merge). The estimate takes a third per
// filter and a tenth per aggregation, which is the right order of magnitude
// and no more (TPC-H Q21's late-by-one-supplier orders: guessed 6.6 k, 33 k
// arrive), and a filter holding four times its design load passes a quarter
// of the rows it should reject. A tiny build side's filter stays tiny, which
// a floor on the size would not let it, and a large one's stays as it was:
// four times a large filter is memory and cache misses, and after sinking
// most large estimates are already too high.
const (
	rfEstimateSlack = 4
	rfSlackKeys     = 32 << 10
)

// sinkRuntimeFilter applies prod's runtime filter to output columns cols of
// plan (aligned with prod.RFKeys) where those columns originate instead of
// where the join that wants it sits: every row it removes there would have
// been carried through the joins, exchanges and aggregations in between and
// then rejected by that join, which still does the exact match. plan belongs
// to fragment own; the result replaces plan.
//
// The filter passes column-forwarding projections, filters, other runtime
// filters, the probe side of any join, and both halves of an aggregation
// grouped by the columns. It crosses an exchange into the already-cut child
// fragment, which then waits for prod. By join-key equivalence it also enters
// the build side of an inner or left-semi join, and follows a column born on
// an inner join's build side there; it never enters the build side of an
// outer or anti join. Where that build side B is the smaller by estimate
// (RFExpectRows grows with it) and its keys are among the columns, B's own
// filter goes the other way instead: every row reaching prod's join carries
// a key of B, so a row of prod without one matches nothing. It sinks into
// prod's plan, which then waits for B, and B does not wait for prod (TPC-H
// Q17's 14 parts prune the lineitem aggregate they join, which would
// otherwise read all of lineitem to prune them). Where a filter stops it
// stays: above a scan (and the filter directly over one, which is cheaper
// and runs first).
func sinkRuntimeFilter(plan sql.LogicalPlan, own, prod *Fragment, cols []int) sql.LogicalPlan {
	switch n := plan.(type) {
	case *RuntimeFilterPlan:
		n.Child = sinkRuntimeFilter(n.Child, own, prod, cols)
		return n
	case *sql.LFilter:
		if _, overScan := n.Child.(*sql.LScan); !overScan {
			n.Child = sinkRuntimeFilter(n.Child, own, prod, cols)
			return n
		}
	case *sql.LProject:
		if below, ok := forwardedCols(n.Exprs, cols); ok {
			n.Child = sinkRuntimeFilter(n.Child, own, prod, below)
			return n
		}
	case *PartialAggPlan:
		if below, ok := forwardedCols(n.Agg.Keys, cols); ok {
			n.Child = sinkRuntimeFilter(n.Child, own, prod, below)
			return n
		}
	case *FinalAggPlan:
		// The exchange below leads with the grouping keys, as the output does.
		if slices.Max(cols) < len(n.Agg.Keys) {
			n.Child = sinkRuntimeFilter(n.Child, own, prod, cols)
			return n
		}
	case *ExchangeRead:
		// A fragment cannot wait for a producer that waits for it.
		if !prod.reaches(n.Frag, map[*Fragment]bool{}) {
			n.Frag.Root = sinkRuntimeFilter(n.Frag.Root, n.Frag, prod, cols)
			return n
		}
	case *sql.LJoin:
		left, right := joinSides(n, cols)
		inLeft, inRight := !slices.Contains(left, -1), !slices.Contains(right, -1)
		if b, ok := n.Right.(*ExchangeRead); ok && b.Frag.RFKeys != nil &&
			b.Frag.RFExpectRows < prod.RFExpectRows && !b.Frag.reaches(prod, map[*Fragment]bool{}) {
			if at, ok := keysAt(b.Frag.RFKeys, right, prod.RFKeys); ok {
				prod.Root = sinkRuntimeFilter(prod.Root, prod, b.Frag, at)
				inRight = false
			}
		}
		if inLeft {
			n.Left = sinkRuntimeFilter(n.Left, own, prod, left)
		}
		if inRight {
			n.Right = sinkRuntimeFilter(n.Right, own, prod, right)
		}
		if inLeft || inRight {
			return n
		}
	}
	if !slices.Contains(own.RFInputs, prod) {
		own.RFInputs = append(own.RFInputs, prod)
	}
	return &RuntimeFilterPlan{Child: plan, Producer: prod, Keys: cols}
}

// forwardedCols maps output ordinals cols of a node computing exprs onto
// its child's ordinals; ok is false unless every one is a plain column.
func forwardedCols(exprs []expr.Expr, cols []int) (below []int, ok bool) {
	for _, c := range cols {
		if c >= len(exprs) {
			return nil, false
		}
		cr, isCol := exprs[c].(*expr.ColRef)
		if !isCol {
			return nil, false
		}
		below = append(below, cr.Idx)
	}
	return below, true
}

// joinSides maps a join's output columns cols onto its inputs: left[i] and
// right[i] are cols[i]'s ordinal on that side, or -1 where that side does
// not carry it. Left columns lead every join kind's output and are carried
// on the left. A column is also carried on the other side when it is a
// plain join key of an inner or left-semi join (the output carries equal
// values in both), and an inner join's right column on the right.
func joinSides(n *sql.LJoin, cols []int) (left, right []int) {
	nl := len(n.Left.Schema().Fields)
	var lk, rk []int
	if n.Kind == sql.JoinInner || n.Kind == sql.JoinLeftSemi {
		lk, rk, _ = joinKeyCols(n)
	}
	for _, c := range cols {
		l, r := -1, -1
		if c < nl {
			l = c
		} else if n.Kind == sql.JoinInner {
			r = c - nl
		}
		for k := range lk {
			if l == lk[k] && r < 0 {
				r = rk[k]
			} else if r == rk[k] && l < 0 && n.Kind == sql.JoinInner {
				l = lk[k]
			}
		}
		left, right = append(left, l), append(right, r)
	}
	return left, right
}

// keysAt maps each of keys to to[i] at the first i where from[i] is that
// key; ok is false when one is not in from.
func keysAt(keys, from, to []int) (at []int, ok bool) {
	for _, k := range keys {
		i := slices.Index(from, k)
		if i < 0 {
			return nil, false
		}
		at = append(at, to[i])
	}
	return at, true
}

// joinKeyCols extracts plain-column join keys; a shuffle join needs raw
// column ordinals to hash-partition both inputs identically.
func joinKeyCols(n *sql.LJoin) (left, right []int, ok bool) {
	for i := range n.LeftKeys {
		lc, lok := n.LeftKeys[i].(*expr.ColRef)
		rc, rok := n.RightKeys[i].(*expr.ColRef)
		if !lok || !rok {
			return nil, nil, false
		}
		left = append(left, lc.Idx)
		right = append(right, rc.Idx)
	}
	return left, right, len(left) > 0
}
