package delta

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"photon/internal/expr"
	"photon/internal/storage/parquet"
	"photon/internal/types"
)

// Data skipping (§2.1, §2.3): a file's envelope per column — its partition
// value, else its statistics — prunes it before any data is read, through
// the evaluator that also skips in-memory batches (expr.StatsFilter).

// PruneFiles returns the subset of snapshot files that might satisfy the
// filter. A nil filter keeps everything. Pruning is conservative: any
// filter shape it does not understand keeps the file.
func (s *Snapshot) PruneFiles(filter expr.Filter) []AddFile {
	sf, ok := expr.NewStatsFilter(filter, func(c *expr.ColRef) int { return s.Schema.IndexOf(c.Name) })
	if !ok {
		return s.Files
	}
	out := make([]AddFile, 0, len(s.Files))
	for i := range s.Files {
		f := &s.Files[i]
		if sf.MightMatch(func(c int) expr.Envelope { return f.envelope(s.Schema.Field(c)) }) {
			out = append(out, *f)
		}
	}
	return out
}

// envelope is what the file records of a column. A partition column holds
// one value in every row. Statistics lose bounds JSON cannot carry (NaN,
// ±Inf, bytes that are not UTF-8, which decode as U+FFFD), and a string
// maximum of StatsStringCap bytes may have been cut: not an upper bound.
// It is read for each comparison that names the column: a filter names few.
func (f *AddFile) envelope(field types.Field) expr.Envelope {
	if pv, ok := partitionValueFor(f, field.Name); ok {
		if v := parsePartitionValue(pv, field.Type); v != nil {
			return expr.Envelope{Min: v, Max: v, Rows: f.NumRecords}
		}
	}
	st, ok := statsFor(f, field.Name)
	if !ok {
		return expr.Envelope{}
	}
	e := expr.Envelope{Nulls: st.NullCount, Rows: f.NumRecords}
	e.Min, _ = StatValue(st.Min, field.Type)
	e.Max, _ = StatValue(st.Max, field.Type)
	if s, ok := e.Min.(string); ok && strings.ContainsRune(s, utf8.RuneError) {
		e.Min = nil
	}
	if s, ok := e.Max.(string); ok && (len(s) == parquet.StatsStringCap || strings.ContainsRune(s, utf8.RuneError)) {
		e.Max = nil
	}
	return e
}

// statsFor looks up a column's stats case-insensitively.
func statsFor(f *AddFile, name string) (ColStats, bool) {
	if st, ok := f.Stats[name]; ok {
		return st, true
	}
	for k, st := range f.Stats {
		if strings.EqualFold(k, name) {
			return st, true
		}
	}
	return ColStats{}, false
}

// partitionValueFor returns the file's stored partition value for a column.
func partitionValueFor(f *AddFile, name string) (string, bool) {
	for k, v := range f.PartitionValues {
		if strings.EqualFold(k, name) {
			return v, true
		}
	}
	return "", false
}

// parsePartitionValue converts a textual partition value to the column type.
func parsePartitionValue(s string, t types.DataType) any {
	switch t.ID {
	case types.String:
		return s
	case types.Int32:
		var v int32
		if _, err := fmt.Sscanf(s, "%d", &v); err == nil {
			return v
		}
	case types.Int64:
		var v int64
		if _, err := fmt.Sscanf(s, "%d", &v); err == nil {
			return v
		}
	case types.Date:
		if d, err := types.ParseDate(s); err == nil {
			return d
		}
	}
	return nil
}
