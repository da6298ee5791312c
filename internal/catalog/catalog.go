// Package catalog maps table names to data sources: in-memory tables (for
// micro-benchmarks, which read from memory to isolate execution costs,
// §6.1) and Delta tables on disk.
package catalog

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"photon/internal/kernels"
	"photon/internal/storage/delta"
	"photon/internal/types"
	"photon/internal/vector"
)

// Table is a named data source.
type Table interface {
	Name() string
	Schema() *types.Schema
}

// MemTable is an in-memory table of column batches.
type MemTable struct {
	TableName string
	Sch       *types.Schema
	Batches   []*vector.Batch
}

// Name implements Table.
func (t *MemTable) Name() string { return t.TableName }

// Schema implements Table.
func (t *MemTable) Schema() *types.Schema { return t.Sch }

// NumRows counts the table's rows.
func (t *MemTable) NumRows() int64 {
	var n int64
	for _, b := range t.Batches {
		n += int64(b.NumRows)
	}
	return n
}

// seedDec64 records, on every decimal vector not yet judged, whether all its
// values fit an int64 — what the Parquet reader takes from chunk statistics.
// A table's vectors are shared by every task that scans it, and shared
// vectors cache no verdicts, so without this each consumer of a table column
// would run the check kernel on every batch. Inactive rows are checked too:
// the verdict then holds under any position list.
func (t *MemTable) seedDec64() {
	for _, b := range t.Batches {
		for _, v := range b.Vecs {
			if v.Type.ID != types.Decimal || v.Dec64 != vector.Dec64Unknown {
				continue
			}
			if kernels.Dec64CheckV(v.Dec, v.Nulls, v.HasNulls(), nil, b.NumRows) {
				v.Dec64 = vector.Dec64All
			} else {
				v.Dec64 = vector.Dec64Wide
			}
		}
	}
}

// VirtualTable is a table whose contents are produced on demand — the
// mechanism behind SQL-queryable system tables (photon_queries and
// friends). Batches materializes a point-in-time snapshot of the source;
// the session pins that snapshot at bind time (replacing the VirtualTable
// with a MemTable in the bound plan) so every task of one query scans the
// same data even while the source keeps mutating.
type VirtualTable struct {
	TableName string
	Sch       *types.Schema
	Batches   func() []*vector.Batch
	EstRows   func() int64 // optional planner cardinality hint
}

// Name implements Table.
func (t *VirtualTable) Name() string { return t.TableName }

// Schema implements Table.
func (t *VirtualTable) Schema() *types.Schema { return t.Sch }

// Snapshot materializes the current contents as a MemTable.
func (t *VirtualTable) Snapshot() *MemTable {
	return &MemTable{TableName: t.TableName, Sch: t.Sch, Batches: t.Batches()}
}

// DeltaTable is a Delta-backed table pinned to a snapshot.
type DeltaTable struct {
	TableName string
	Tbl       *delta.Table
	Snap      *delta.Snapshot
}

// Name implements Table.
func (t *DeltaTable) Name() string { return t.TableName }

// Schema implements Table.
func (t *DeltaTable) Schema() *types.Schema { return t.Snap.Schema }

// Catalog is a concurrent name → table map.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]Table

	// gen counts catalog mutations. Every table change — including Delta
	// snapshot refreshes, which re-Register the table pinned to the new
	// snapshot — bumps it, so plan caches can key on the generation and
	// drop entries compiled against stale snapshots.
	gen atomic.Int64
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]Table)}
}

// Register adds or replaces a table.
func (c *Catalog) Register(t Table) {
	if mt, ok := t.(*MemTable); ok {
		mt.seedDec64()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[strings.ToLower(t.Name())] = t
	c.gen.Add(1)
}

// Generation returns the catalog mutation counter; it changes whenever
// any table is registered or replaced (e.g. on Delta snapshot refresh).
func (c *Catalog) Generation() int64 { return c.gen.Load() }

// Lookup finds a table by (case-insensitive) name.
func (c *Catalog) Lookup(name string) (Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q not found", name)
	}
	return t, nil
}

// Names lists registered tables.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	return out
}
