// Package delta implements the transactional table layer standing in for
// Delta Lake (§2.1): a JSON action log (_delta_log) over columnar data
// files, providing ACID appends/overwrites via optimistic concurrency,
// snapshots and time travel, file-level min/max statistics for data
// skipping, and partition pruning. Both data and metadata live in open
// formats on ordinary storage, per the Lakehouse design.
package delta

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"photon/internal/expr"
	"photon/internal/storage/parquet"
	"photon/internal/types"
	"photon/internal/vector"
)

// Action is one log entry; exactly one field is set.
type Action struct {
	MetaData   *MetaData   `json:"metaData,omitempty"`
	Add        *AddFile    `json:"add,omitempty"`
	Remove     *RemoveFile `json:"remove,omitempty"`
	CommitInfo *CommitInfo `json:"commitInfo,omitempty"`
}

// MetaData declares the table schema and partitioning.
type MetaData struct {
	ID               string   `json:"id"`
	SchemaString     string   `json:"schemaString"`
	PartitionColumns []string `json:"partitionColumns"`
}

// ColStats is one column's file-level statistics.
type ColStats struct {
	Min       json.RawMessage `json:"min,omitempty"`
	Max       json.RawMessage `json:"max,omitempty"`
	NullCount int64           `json:"nullCount"`
}

// AddFile records a data file joining the table.
type AddFile struct {
	Path            string              `json:"path"`
	PartitionValues map[string]string   `json:"partitionValues,omitempty"`
	Size            int64               `json:"size"`
	NumRecords      int64               `json:"numRecords"`
	Stats           map[string]ColStats `json:"stats,omitempty"`
	DataChange      bool                `json:"dataChange"`
	ModTime         int64               `json:"modificationTime"`
}

// RemoveFile records a data file leaving the table.
type RemoveFile struct {
	Path              string `json:"path"`
	DeletionTimestamp int64  `json:"deletionTimestamp"`
}

// CommitInfo carries operation metadata (audit log).
type CommitInfo struct {
	Operation string `json:"operation"`
	TimeMs    int64  `json:"timestamp"`
}

// Table is a handle to a Delta table directory.
type Table struct {
	Path    string
	clock   atomic.Int64 // logical clock for deterministic timestamps
	fileSeq atomic.Int64
}

const logDir = "_delta_log"

// schemaJSON is the schemaString payload.
type schemaJSON struct {
	Fields []parquet.FieldMeta `json:"fields"`
}

func encodeSchema(s *types.Schema) string {
	fields := make([]parquet.FieldMeta, s.Len())
	for i, f := range s.Fields {
		fields[i] = parquet.FieldMeta{
			Name:      f.Name,
			TypeID:    uint8(f.Type.ID),
			Precision: f.Type.Precision,
			Scale:     f.Type.Scale,
			Nullable:  f.Nullable,
		}
	}
	b, _ := json.Marshal(schemaJSON{Fields: fields})
	return string(b)
}

func decodeSchema(s string) (*types.Schema, error) {
	var sj schemaJSON
	if err := json.Unmarshal([]byte(s), &sj); err != nil {
		return nil, fmt.Errorf("delta: schemaString: %w", err)
	}
	fields := make([]types.Field, len(sj.Fields))
	for i, f := range sj.Fields {
		fields[i] = types.Field{
			Name:     f.Name,
			Type:     types.DataType{ID: types.TypeID(f.TypeID), Precision: f.Precision, Scale: f.Scale},
			Nullable: f.Nullable,
		}
	}
	return &types.Schema{Fields: fields}, nil
}

// Create initializes a new table with the given schema and partitioning.
func Create(path string, schema *types.Schema, partitionCols []string) (*Table, error) {
	if err := os.MkdirAll(filepath.Join(path, logDir), 0o755); err != nil {
		return nil, err
	}
	t := &Table{Path: path}
	if _, err := t.latestVersion(); err == nil {
		return nil, fmt.Errorf("delta: table already exists at %s", path)
	}
	actions := []Action{
		{MetaData: &MetaData{ID: "tbl-0", SchemaString: encodeSchema(schema), PartitionColumns: partitionCols}},
		{CommitInfo: &CommitInfo{Operation: "CREATE TABLE", TimeMs: t.clock.Add(1)}},
	}
	if err := t.commit(0, actions); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to an existing table.
func Open(path string) (*Table, error) {
	t := &Table{Path: path}
	if _, err := t.latestVersion(); err != nil {
		return nil, fmt.Errorf("delta: no table at %s: %w", path, err)
	}
	return t, nil
}

// logFile formats a version's log file name.
func (t *Table) logFile(version int64) string {
	return filepath.Join(t.Path, logDir, fmt.Sprintf("%020d.json", version))
}

// latestVersion scans the log directory (the fast metadata listing Delta
// provides, §2.3).
func (t *Table) latestVersion() (int64, error) {
	entries, err := os.ReadDir(filepath.Join(t.Path, logDir))
	if err != nil {
		return -1, err
	}
	latest := int64(-1)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSuffix(name, ".json"), 10, 64)
		if err != nil {
			continue
		}
		if v > latest {
			latest = v
		}
	}
	if latest < 0 {
		return -1, errors.New("delta: empty log")
	}
	return latest, nil
}

// commit writes a version file with O_EXCL: concurrent writers conflict on
// the same version and retry (optimistic concurrency control).
func (t *Table) commit(version int64, actions []Action) error {
	f, err := os.OpenFile(t.logFile(version), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return &ConflictError{Version: version}
		}
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, a := range actions {
		if err := enc.Encode(a); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ConflictError reports an optimistic-concurrency collision.
type ConflictError struct{ Version int64 }

func (e *ConflictError) Error() string {
	return fmt.Sprintf("delta: commit conflict at version %d", e.Version)
}

// Snapshot is the reconstructed table state at a version.
type Snapshot struct {
	Version       int64
	Schema        *types.Schema
	PartitionCols []string
	Files         []AddFile
}

// Snapshot reconstructs the table state at a version (-1 = latest),
// starting from the newest checkpoint at or below it (§2.3's fast
// metadata path) and replaying only the remaining log suffix.
func (t *Table) Snapshot(version int64) (*Snapshot, error) {
	latest, err := t.latestVersion()
	if err != nil {
		return nil, err
	}
	if version < 0 || version > latest {
		version = latest
	}
	if cp, ok := t.latestCheckpoint(version); ok {
		return t.snapshotFrom(cp.Version+1, cp, version)
	}
	return t.snapshotFrom(0, nil, version)
}

// statsFromFooter folds a file's chunk statistics into Delta's: each column's
// chunks merged as envelopes, the bounds rendered as JSON once.
func statsFromFooter(meta *parquet.FileMeta, schema *types.Schema) map[string]ColStats {
	out := make(map[string]ColStats, schema.Len())
	if len(meta.RowGroups) == 0 {
		return out
	}
	for c, f := range schema.Fields {
		var env expr.Envelope
		for gi := range meta.RowGroups {
			env = env.Merge(meta.RowGroups[gi].Columns[c].Envelope(f.Type), f.Type.ID)
		}
		out[f.Name] = ColStats{Min: statJSON(env.Min, f.Type), Max: statJSON(env.Max, f.Type), NullCount: env.Nulls}
	}
	return out
}

// statJSON renders a boxed bound as JSON, nil for none and for what JSON
// cannot carry (±Inf).
func statJSON(v any, t types.DataType) json.RawMessage {
	if d, ok := v.(types.Decimal128); ok {
		v = types.FormatDecimal(d, t.Scale)
	}
	if v == nil {
		return nil
	}
	s, _ := json.Marshal(v)
	return s
}

// StatValue parses a JSON stat back to a boxed value of type t.
func StatValue(raw json.RawMessage, t types.DataType) (any, bool) {
	if raw == nil {
		return nil, false
	}
	switch t.ID {
	case types.Bool:
		var v bool
		if json.Unmarshal(raw, &v) != nil {
			return nil, false
		}
		return v, true
	case types.Int32, types.Date:
		var v int32
		if json.Unmarshal(raw, &v) != nil {
			return nil, false
		}
		return v, true
	case types.Int64, types.Timestamp:
		var v int64
		if json.Unmarshal(raw, &v) != nil {
			return nil, false
		}
		return v, true
	case types.Float64:
		var v float64
		if json.Unmarshal(raw, &v) != nil {
			return nil, false
		}
		return v, true
	case types.String:
		var v string
		if json.Unmarshal(raw, &v) != nil {
			return nil, false
		}
		return v, true
	case types.Decimal:
		var s string
		if json.Unmarshal(raw, &s) != nil {
			return nil, false
		}
		d, err := types.ParseDecimal(s, t.Scale)
		if err != nil {
			return nil, false
		}
		return d, true
	}
	return nil, false
}

// writeDataFile persists batches as one data file and returns its AddFile.
func (t *Table) writeDataFile(schema *types.Schema, batches []*vector.Batch, partitionValues map[string]string) (AddFile, error) {
	name := fmt.Sprintf("part-%05d.parquet", t.fileSeq.Add(1))
	full := filepath.Join(t.Path, name)
	f, err := os.Create(full)
	if err != nil {
		return AddFile{}, err
	}
	w, err := parquet.NewWriter(f, schema, parquet.Options{Compression: parquet.CompLZ4})
	if err != nil {
		f.Close()
		return AddFile{}, err
	}
	var rows int64
	for _, b := range batches {
		rows += int64(b.NumActive())
		if err := w.WriteBatch(b); err != nil {
			f.Close()
			return AddFile{}, err
		}
	}
	if err := w.Close(); err != nil {
		f.Close()
		return AddFile{}, err
	}
	if err := f.Close(); err != nil {
		return AddFile{}, err
	}
	info, err := os.Stat(full)
	if err != nil {
		return AddFile{}, err
	}
	return AddFile{
		Path:            name,
		PartitionValues: partitionValues,
		Size:            info.Size(),
		NumRecords:      rows,
		Stats:           statsFromFooter(w.Meta(), schema),
		DataChange:      true,
		ModTime:         t.clock.Add(1),
	}, nil
}

// Append adds batches as new files in one transaction, retrying on
// conflicts.
func (t *Table) Append(batches []*vector.Batch, partitionValues map[string]string) error {
	snap, err := t.Snapshot(-1)
	if err != nil {
		return err
	}
	add, err := t.writeDataFile(snap.Schema, batches, partitionValues)
	if err != nil {
		return err
	}
	actions := []Action{
		{Add: &add},
		{CommitInfo: &CommitInfo{Operation: "WRITE", TimeMs: t.clock.Add(1)}},
	}
	return t.commitRetry(actions)
}

// Overwrite replaces the table contents in one transaction.
func (t *Table) Overwrite(batches []*vector.Batch) error {
	snap, err := t.Snapshot(-1)
	if err != nil {
		return err
	}
	add, err := t.writeDataFile(snap.Schema, batches, nil)
	if err != nil {
		return err
	}
	actions := []Action{{Add: &add}}
	for _, f := range snap.Files {
		rm := f
		actions = append(actions, Action{Remove: &RemoveFile{Path: rm.Path, DeletionTimestamp: t.clock.Add(1)}})
	}
	actions = append(actions, Action{CommitInfo: &CommitInfo{Operation: "OVERWRITE", TimeMs: t.clock.Add(1)}})
	return t.commitRetry(actions)
}

// commitRetry attempts the next version until it wins the race.
func (t *Table) commitRetry(actions []Action) error {
	for attempt := 0; attempt < 64; attempt++ {
		latest, err := t.latestVersion()
		if err != nil {
			return err
		}
		version := latest + 1
		err = t.commit(version, actions)
		var conflict *ConflictError
		if errors.As(err, &conflict) {
			continue
		}
		if err == nil {
			t.maybeCheckpoint(version)
		}
		return err
	}
	return errors.New("delta: too many commit conflicts")
}

// OpenDataFile opens one of the snapshot's files for reading.
func (t *Table) OpenDataFile(f *AddFile) (*parquet.Reader, error) {
	return parquet.OpenFile(filepath.Join(t.Path, f.Path))
}
