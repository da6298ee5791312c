package catalyst

import (
	"fmt"
	"strings"

	"photon/internal/exec"
	"photon/internal/sql"
	"photon/internal/types"
)

// The exchange-based physical plan: the stage planner (stages.go) cuts an
// optimized logical plan into a DAG of Fragments at exchange boundaries,
// the way Photon's driver decomposes a query into stages whose tasks all
// run on executor task threads (§2.2). Every fragment executes as one
// scheduler stage; its leaves are either partitioned scans or ExchangeRead
// nodes consuming an upstream fragment's shuffle/broadcast output.

// ExchangeKind describes how a fragment's output reaches its consumer.
type ExchangeKind uint8

const (
	// ExchangeGather returns the fragment's output to the driver (root
	// fragments only). With MergeKeys set, per-task outputs are ordered and
	// the driver k-way merges them (two-phase parallel sort).
	ExchangeGather ExchangeKind = iota
	// ExchangeHash hash-partitions output rows on HashCols across the
	// consumer's tasks (shuffle joins, grouped aggregation).
	ExchangeHash
	// ExchangeBroadcast replicates the full output to every consumer task
	// (the build side of a broadcast hash join).
	ExchangeBroadcast
)

func (k ExchangeKind) String() string {
	return [...]string{"gather", "hash", "broadcast"}[k]
}

// Fragment is one stage's plan: a logical fragment whose leaves may be
// ExchangeRead nodes, plus the output exchange that feeds its consumer.
type Fragment struct {
	ID   int
	Root sql.LogicalPlan
	// Out is how the fragment's output is exchanged.
	Out ExchangeKind
	// HashCols are the output-ordinal partition keys for ExchangeHash.
	// Empty means all rows hash to partition 0 (keyless aggregation).
	HashCols []int
	// Inputs are the fragments this one consumes through ExchangeRead
	// leaves (its scheduler stage dependencies).
	Inputs []*Fragment
	// PartitionedScan reports that the fragment's probe lineage ends in a
	// table scan split across tasks; otherwise the fragment is partitioned
	// by its hash-exchange input (or runs as a single task).
	PartitionedScan bool
	// ReadsHash reports that the fragment consumes at least one hash
	// exchange; its task count follows AQE partition coalescing.
	ReadsHash bool

	// Root-fragment driver tail: MergeKeys k-way merges per-task sorted
	// outputs; TailLimit (-1 = none) truncates the gathered result.
	MergeKeys []sql.SortKeyPlan
	TailLimit int64

	// Runtime-filter producer role: RFKeys lists the output ordinals of the
	// join-key columns this (build-side) fragment publishes a runtime filter
	// over; nil means the fragment produces no filter. RFExpectRows is the
	// build-side row estimate every task sizes its Bloom filter from, so the
	// per-task partial filters union word-for-word.
	RFKeys       []int
	RFExpectRows int64

	// Runtime-filter consumer role: RFInputs are producer fragments whose
	// filters this fragment consults, wherever in the plan above it the join
	// they come from sits (scheduler dependencies in addition to Inputs — the
	// driver runs stages sequentially in dependency order, so every filter is
	// complete before a consuming task plans).
	RFInputs []*Fragment
}

// Label is a short human-readable stage name ("FinalAgg->gather",
// "PartialAgg->hash") for query profiles and traces: the first plan node
// that is not a runtime filter — those land on a root long after it was cut —
// and the output exchange.
func (f *Fragment) Label() string {
	root := f.Root
	for r, ok := root.(*RuntimeFilterPlan); ok; r, ok = root.(*RuntimeFilterPlan) {
		root = r.Child
	}
	name := root.String()
	if i := strings.IndexAny(name, "(["); i > 0 {
		name = name[:i]
	}
	return name + "->" + f.Out.String()
}

// reaches reports whether f is target or waits for it, through exchange
// inputs or runtime-filter producers. seen holds the fragments already
// found not to.
func (f *Fragment) reaches(target *Fragment, seen map[*Fragment]bool) bool {
	if f == target {
		return true
	}
	if seen[f] {
		return false
	}
	seen[f] = true
	for _, in := range append(f.Inputs[:len(f.Inputs):len(f.Inputs)], f.RFInputs...) {
		if in.reaches(target, seen) {
			return true
		}
	}
	return false
}

// NumFragments counts the fragments reachable from f (including f).
func (f *Fragment) NumFragments() int {
	seen := map[*Fragment]bool{}
	var walk func(x *Fragment)
	walk = func(x *Fragment) {
		if seen[x] {
			return
		}
		seen[x] = true
		for _, in := range x.Inputs {
			walk(in)
		}
	}
	walk(f)
	return len(seen)
}

// Explain renders the fragment DAG for tests and the SQL shell.
func (f *Fragment) Explain() string {
	var sb strings.Builder
	seen := map[*Fragment]bool{}
	var walk func(x *Fragment)
	walk = func(x *Fragment) {
		if seen[x] {
			return
		}
		seen[x] = true
		for _, in := range x.Inputs {
			walk(in)
		}
		fmt.Fprintf(&sb, "Stage %d (out=%s", x.ID, x.Out)
		if x.Out == ExchangeHash {
			fmt.Fprintf(&sb, " cols=%v", x.HashCols)
		}
		if len(x.MergeKeys) > 0 {
			fmt.Fprintf(&sb, " merge=%v", x.MergeKeys)
		}
		sb.WriteString("):\n")
		for _, line := range strings.Split(strings.TrimRight(sql.ExplainPlan(x.Root), "\n"), "\n") {
			sb.WriteString("  " + line + "\n")
		}
	}
	walk(f)
	return sb.String()
}

// ExchangeRead is the logical leaf standing for an upstream fragment's
// output inside a consuming fragment. The physical planner lowers it to
// exec.ShuffleReadOp / exec.BroadcastReadOp through Config.ExchangeSource.
type ExchangeRead struct {
	Frag *Fragment
	// Broadcast selects the replicated read (all partitions in every task).
	Broadcast bool
}

// Schema implements sql.LogicalPlan: an exchange is schema-preserving.
func (e *ExchangeRead) Schema() *types.Schema { return e.Frag.Root.Schema() }

// Children implements sql.LogicalPlan. Exchange inputs are stage
// boundaries, not in-fragment children.
func (e *ExchangeRead) Children() []sql.LogicalPlan { return nil }

func (e *ExchangeRead) String() string {
	if e.Broadcast {
		return fmt.Sprintf("BroadcastRead(stage=%d)", e.Frag.ID)
	}
	return fmt.Sprintf("ShuffleRead(stage=%d)", e.Frag.ID)
}

// RuntimeFilterPlan applies the runtime filter published by Producer (a
// join build stage) to its child's rows before they are shuffled or probed.
// Keys are child-schema ordinals aligned with Producer.RFKeys. The physical
// planner lowers it to exec.RuntimeFilterOp, resolving the filter through
// Config.RuntimeFilterSource; an unresolvable filter degrades to a
// pass-through (best-effort semantics).
type RuntimeFilterPlan struct {
	Child    sql.LogicalPlan
	Producer *Fragment
	Keys     []int
}

// Schema implements sql.LogicalPlan: filtering is schema-preserving.
func (r *RuntimeFilterPlan) Schema() *types.Schema { return r.Child.Schema() }

// Children implements sql.LogicalPlan.
func (r *RuntimeFilterPlan) Children() []sql.LogicalPlan { return []sql.LogicalPlan{r.Child} }

func (r *RuntimeFilterPlan) String() string {
	return fmt.Sprintf("RuntimeFilter(stage=%d cols=%v)", r.Producer.ID, r.Keys)
}

// PartialAggPlan is the pre-shuffle half of a split aggregation: it
// evaluates Agg's input pipeline and emits partial states keyed by the
// grouping columns (lowered to exec.AggPartial).
type PartialAggPlan struct {
	Child  sql.LogicalPlan // Agg.Child, staged
	Agg    *sql.LAggregate
	schema *types.Schema
}

// Schema implements sql.LogicalPlan: the partial-state schema shared by
// the shuffle files and the final aggregation.
func (p *PartialAggPlan) Schema() *types.Schema { return p.schema }

// Children implements sql.LogicalPlan.
func (p *PartialAggPlan) Children() []sql.LogicalPlan { return []sql.LogicalPlan{p.Child} }

func (p *PartialAggPlan) String() string {
	return "PartialAgg(" + strings.TrimPrefix(p.Agg.String(), "Aggregate(")
}

// FinalAggPlan is the post-shuffle half: it merges partial states read
// from the exchange into final values (lowered to exec.AggFinal).
type FinalAggPlan struct {
	Child sql.LogicalPlan // an ExchangeRead of the partial schema
	Agg   *sql.LAggregate
}

// Schema implements sql.LogicalPlan: same output as the unsplit aggregate.
func (p *FinalAggPlan) Schema() *types.Schema { return p.Agg.Schema() }

// Children implements sql.LogicalPlan.
func (p *FinalAggPlan) Children() []sql.LogicalPlan { return []sql.LogicalPlan{p.Child} }

func (p *FinalAggPlan) String() string {
	return "FinalAgg(" + strings.TrimPrefix(p.Agg.String(), "Aggregate(")
}

// newPartialAgg validates the aggregate's partial schema up front so stage
// planning fails cleanly (falling back to single-task) instead of erroring
// inside a task.
func newPartialAgg(child sql.LogicalPlan, agg *sql.LAggregate) (*PartialAggPlan, error) {
	ps, err := exec.PartialAggSchema(agg.Keys, agg.KeyNames, agg.Aggs)
	if err != nil {
		return nil, err
	}
	return &PartialAggPlan{Child: child, Agg: agg, schema: ps}, nil
}
