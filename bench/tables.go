package main

import (
	"fmt"
	"math"
	"path/filepath"

	"photon"
	"photon/internal/catalog"
	"photon/internal/storage/delta"
	"photon/internal/tpch"
	"photon/internal/vector"
)

// tableSet is a workload's base tables: in-memory batches, Delta
// directories, or (in a traced lake run, which replays layers on the
// generated batches) both.
type tableSet struct {
	names []string // registration order, fixed so runs repeat
	mem   map[string]*catalog.MemTable
	delta map[string]string // table name → Delta directory
}

// tpchNames is the TPC-H registration and write order.
var tpchNames = []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}

// generateTPCH builds the eight tables in memory. The generator in
// internal/tpch is fixed-seeded: the same scale factor always yields the
// same rows.
func generateTPCH(sf float64) (*tableSet, error) {
	cat := tpch.NewGen(sf).Generate()
	ts := &tableSet{names: tpchNames, mem: map[string]*catalog.MemTable{}}
	for _, name := range tpchNames {
		t, err := cat.Lookup(name)
		if err != nil {
			return nil, err
		}
		ts.mem[name] = t.(*catalog.MemTable)
	}
	return ts, nil
}

// lakeFiles is the number of data files lineitem and orders are written
// as. Each file holds one range of l_shipdate / o_orderdate, the way a
// lakehouse table is clustered by date, so the static date predicates of
// the queries have whole files and row groups to skip.
const lakeFiles = 8

// lakeClusterColumn names the date column a table's files are clustered by.
var lakeClusterColumn = map[string]string{"lineitem": "l_shipdate", "orders": "o_orderdate"}

// clusterByDate splits batches into n groups of selection-vector views by
// equal-width ranges of the date column col; the data vectors are shared.
func clusterByDate(mt *catalog.MemTable, col, n int) [][]*vector.Batch {
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	for _, b := range mt.Batches {
		for _, d := range b.Vecs[col].I32[:b.NumRows] {
			lo, hi = min(lo, d), max(hi, d)
		}
	}
	width := (int64(hi) - int64(lo) + int64(n)) / int64(n)
	groups := make([][]*vector.Batch, n)
	for _, b := range mt.Batches {
		sels := make([][]int32, n)
		for i, d := range b.Vecs[col].I32[:b.NumRows] {
			g := (int64(d) - int64(lo)) / width
			sels[g] = append(sels[g], int32(i))
		}
		for g, sel := range sels {
			if len(sel) > 0 {
				groups[g] = append(groups[g], vector.WrapBatch(mt.Sch, b.Vecs, sel, b.NumRows))
			}
		}
	}
	return groups
}

// writeLake writes every in-memory table as a Delta table (Parquet + LZ4)
// under dir and records the directories. It returns the rows written.
func (ts *tableSet) writeLake(dir string) (rows int64, err error) {
	ts.delta = map[string]string{}
	for _, name := range ts.names {
		mt := ts.mem[name]
		path := filepath.Join(dir, name)
		tbl, err := delta.Create(path, mt.Sch, nil)
		if err != nil {
			return 0, fmt.Errorf("create delta table %s: %w", name, err)
		}
		files := [][]*vector.Batch{mt.Batches}
		if col, ok := lakeClusterColumn[name]; ok {
			files = clusterByDate(mt, mt.Sch.IndexOf(col), lakeFiles)
		}
		for _, batches := range files {
			if len(batches) == 0 {
				continue
			}
			if err := tbl.Append(batches, nil); err != nil {
				return 0, fmt.Errorf("append to %s: %w", name, err)
			}
		}
		ts.delta[name] = path
		rows += mt.NumRows()
	}
	return rows, nil
}

// install registers the tables in sess: Delta tables where they exist on
// disk, in-memory batches otherwise.
func (ts *tableSet) install(sess *photon.Session) error {
	for _, name := range ts.names {
		if path, ok := ts.delta[name]; ok {
			if _, err := sess.OpenDeltaTable(name, path); err != nil {
				return fmt.Errorf("open delta table %s: %w", name, err)
			}
			continue
		}
		mt := ts.mem[name]
		sess.RegisterBatches(name, mt.Sch, mt.Batches)
	}
	return nil
}

// catalog builds a catalog over the same tables, pinned to the Delta
// tables' current snapshots, for the traced run's layer replay (a
// session's own catalog is private).
func (ts *tableSet) catalog() (*catalog.Catalog, error) {
	cat := catalog.New()
	for _, name := range ts.names {
		path, ok := ts.delta[name]
		if !ok {
			cat.Register(ts.mem[name])
			continue
		}
		tbl, err := delta.Open(path)
		if err != nil {
			return nil, err
		}
		snap, err := tbl.Snapshot(-1)
		if err != nil {
			return nil, err
		}
		cat.Register(&catalog.DeltaTable{TableName: name, Tbl: tbl, Snap: snap})
	}
	return cat, nil
}

// storedBytes is the bytes on disk of every Delta table (data files and
// _delta_log).
func (ts *tableSet) storedBytes() (int64, error) {
	var n int64
	for _, path := range ts.delta {
		b, err := dirBytes(path)
		if err != nil {
			return 0, err
		}
		n += b
	}
	return n, nil
}
