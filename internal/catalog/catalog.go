// Package catalog maps table names to data sources: in-memory tables (for
// micro-benchmarks, which read from memory to isolate execution costs,
// §6.1) and Delta tables on disk.
package catalog

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"photon/internal/expr"
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

	// envs holds each column's envelope per stored batch. Registration
	// (prepare) makes it; a column's envelopes are recorded the first time
	// a scan's filter names the column, and never change after.
	envs []columnEnvs
}

type columnEnvs struct {
	once sync.Once
	envs []expr.Envelope
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

// prepare readies the table's batches to be shared by every task that scans
// them. A batch with a position list is replaced by a dense copy of its
// active rows (Batch.Keep): scans read every physical row. Shared vectors
// cache no verdicts, so without the seeding below each consumer of a column
// would run a check kernel on every batch:
//   - a decimal vector not yet judged records whether all its values fit an
//     int64, which the Parquet reader takes from chunk statistics;
//   - a string vector's payloads move into one buffer of their exact size,
//     unless they already sit back to back, so a garbage collection marks
//     one object per batch column instead of one per value; its rows are
//     repointed in place;
//   - a string vector not yet judged records whether all its values are
//     ASCII.
//
// Each batch also gets an envelope per column, by which scans skip it
// (Survivors), recorded on first use: most columns are never filtered on.
func (t *MemTable) prepare() {
	t.Batches = slices.Clone(t.Batches)
	t.envs = make([]columnEnvs, t.Sch.Len())
	for i, b := range t.Batches {
		if b.Sel != nil {
			b = b.Keep()
			t.Batches[i] = b
		}
		for _, v := range b.Vecs {
			switch {
			case v.Type.ID == types.Decimal && v.Dec64 == vector.Dec64Unknown:
				v.Dec64 = vector.Dec64Wide
				if kernels.Dec64CheckV(v.Dec, v.Nulls, v.HasNulls(), nil, b.NumRows) {
					v.Dec64 = vector.Dec64All
				}
			case v.Type.ID == types.String:
				packStrings(v.Str[:b.NumRows])
				if v.Ascii == vector.AsciiUnknown {
					v.Ascii = vector.AsciiMixed
					if kernels.CheckASCII(v.Str, v.Nulls, v.HasNulls(), nil, b.NumRows) {
						v.Ascii = vector.AsciiAll
					}
				}
			}
		}
	}
}

// envelopes returns column c's envelope per stored batch.
func (t *MemTable) envelopes(c int) []expr.Envelope {
	ce := &t.envs[c]
	ce.once.Do(func() {
		ce.envs = make([]expr.Envelope, len(t.Batches))
		for i, b := range t.Batches {
			ce.envs[i] = expr.EnvelopeOf(b.Vecs[c], b.NumRows)
		}
	})
	return ce.envs
}

// Survivors returns the stored batches a scan projected by proj (nil: every
// column) reads under filter: those whose envelopes may hold a row that
// passes it. It returns t.Batches itself when it skips none, and every batch
// of a table never registered.
func (t *MemTable) Survivors(filter expr.Filter, proj []int) (kept []*vector.Batch, skipped int) {
	sf, ok := expr.NewStatsFilter(filter, func(c *expr.ColRef) int {
		if proj == nil {
			return c.Idx
		}
		return proj[c.Idx]
	})
	if !ok || t.envs == nil {
		return t.Batches, 0
	}
	kept = t.Batches
	for i, b := range t.Batches {
		switch {
		case sf.MightMatch(func(c int) expr.Envelope { return t.envelopes(c)[i] }):
			if skipped > 0 {
				kept = append(kept, b)
			}
			continue
		case skipped == 0:
			kept = append(make([]*vector.Batch, 0, len(t.Batches)-1), t.Batches[:i]...)
		}
		skipped++
	}
	return kept, skipped
}

// packStrings copies the payloads into one buffer and repoints strs at the
// copies, unless the non-empty payloads already sit back to back. Addresses
// are compared as integers; no memory is read through them.
func packStrings(strs [][]byte) {
	size, packed := 0, true
	var next uintptr
	for _, s := range strs {
		if len(s) == 0 {
			continue
		}
		at := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
		packed = packed && (next == 0 || at == next)
		next = at + uintptr(len(s))
		size += len(s)
	}
	if packed {
		return
	}
	buf := make([]byte, 0, size)
	for i, s := range strs {
		if len(s) > 0 {
			at := len(buf)
			buf = append(buf, s...)
			strs[i] = buf[at:len(buf):len(buf)]
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

// Register adds or replaces a table. A MemTable's batches pass to the
// catalog: their string rows may be repointed at a packed copy (prepare).
func (c *Catalog) Register(t Table) {
	if mt, ok := t.(*MemTable); ok {
		mt.prepare()
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
