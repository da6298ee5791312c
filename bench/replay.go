package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"photon/internal/catalog"
	"photon/internal/exec"
	"photon/internal/ht"
	"photon/internal/kernels"
	"photon/internal/serde"
	"photon/internal/shuffle"
	"photon/internal/sql"
	"photon/internal/sql/catalyst"
	"photon/internal/storage/delta"
	"photon/internal/storage/lz4"
	"photon/internal/storage/parquet"
	"photon/internal/types"
	"photon/internal/vector"
)

// This file is the traced run's third source: single layers replayed in
// isolation on the workload's own inputs, through their public functions.
// Each number is one layer's cost with nothing else running — what an
// optimisation of that layer moves first.

// maxReplayBatches caps the batches a replay touches (128 × 2048 rows), so
// the traced run stays short at SF 0.1.
const maxReplayBatches = 128

// replayReps is how often each timed replay repeats; the median is kept.
const replayReps = 3

// replayInputs is the data the isolated replays run on.
type replayInputs struct {
	schema    *types.Schema
	batches   []*vector.Batch // lineitem or events rows: encoded, shuffled, probed
	keyCol    int             // the join/shuffle key in batches (l_orderkey / id)
	buildKeys []*vector.Batch // build-side rows (orders / events)
	buildCol  int
	lineitem  bool // batches are lineitem: also run Q1's projection and Q6's predicate

	deltaDirs map[string]string // the workload's Delta tables, if any
	scratch   string            // directory for the Parquet writer and commit replays; "" = in-memory workload
	ingest    *ingestWorkload   // ingest_readback: result materialisation on the measured session

	scans []scanSpec // filled by the layer replay
}

func capBatches(b []*vector.Batch) []*vector.Batch { return b[:min(len(b), maxReplayBatches)] }

// lineitemReplay replays on the generated lineitem and orders batches.
// scratch is empty for in-memory workloads, whose storage metrics stay 0.
func lineitemReplay(ts *tableSet, scratch string) *replayInputs {
	li, or := ts.mem["lineitem"], ts.mem["orders"]
	in := &replayInputs{
		schema: li.Sch, batches: capBatches(li.Batches), keyCol: 0,
		buildKeys: capBatches(or.Batches), buildCol: 0, lineitem: true,
		deltaDirs: ts.delta,
	}
	if len(ts.delta) > 0 {
		in.scratch = filepath.Join(scratch, "replay")
	}
	return in
}

// eventsReplay replays on one append's worth of generated events.
func eventsReplay(w *ingestWorkload, scratch string) *replayInputs {
	batches := exec.BuildBatches(eventsSchema, eventRows(w.seed, w.firstID, ingestAppendRows), 0)
	return &replayInputs{
		schema: eventsSchema, batches: batches, keyCol: 0, buildKeys: batches, buildCol: 0,
		deltaDirs: map[string]string{"events": w.dir}, scratch: scratch, ingest: w,
	}
}

// medianOf runs f replayReps times and returns the median duration.
func medianOf(f func() (time.Duration, error)) (time.Duration, error) {
	var ds []float64
	for i := 0; i < replayReps; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

func mbPerS(bytes int64, d time.Duration) float64 {
	return ratio(float64(bytes)/(1<<20), d.Seconds())
}

func (in *replayInputs) rows() (n int64) {
	for _, b := range in.batches {
		n += int64(b.NumActive())
	}
	return n
}

func (in *replayInputs) run(out layerSet) error {
	if in.scratch != "" {
		if err := os.MkdirAll(in.scratch, 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(in.scratch)
	}
	steps := []func(layerSet) error{in.scanReplay, in.deltaReplay, in.writerReplay, in.codecReplay,
		in.shuffleReplay, in.hashTableReplay, in.exprReplay, in.ingestReplay}
	for _, step := range steps {
		if err := step(out); err != nil {
			return err
		}
	}
	return nil
}

// scanReplay decodes every (table, projected columns) scan the classes make:
// delta OpenDataFile → Project → NextBatch to exhaustion.
func (in *replayInputs) scanReplay(out layerSet) error {
	if len(in.scans) == 0 {
		return nil
	}
	// Only the reader's calls are timed; sizing a decoded batch is not.
	var rows, bytes int64
	var took time.Duration
	for _, s := range in.scans {
		for i := range s.files {
			start := time.Now()
			r, err := s.tbl.OpenDataFile(&s.files[i])
			if err == nil && s.columns != nil {
				err = r.Project(s.columns)
			}
			took += time.Since(start)
			if err != nil {
				return err
			}
			for {
				start = time.Now()
				b, err := r.NextBatch(vector.DefaultBatchSize)
				took += time.Since(start)
				if err != nil {
					return err
				}
				if b == nil {
					break
				}
				rows += int64(b.NumRows)
				bytes += batchBytes(b)
			}
		}
	}
	out.set("parquet.decode_ms", float64(took)/1e6)
	out.set("parquet.rows_decoded", float64(rows))
	out.set("parquet.decode_mb_per_s", mbPerS(bytes, took))
	return nil
}

// deltaReplay times log replay (delta.Open → Snapshot) over the workload's
// tables and sizes their logs.
func (in *replayInputs) deltaReplay(out layerSet) error {
	if len(in.deltaDirs) == 0 {
		return nil
	}
	var logBytes int64
	for _, dir := range in.deltaDirs {
		n, err := dirBytes(filepath.Join(dir, "_delta_log"))
		if err != nil {
			return err
		}
		logBytes += n
	}
	took, err := medianOf(func() (time.Duration, error) {
		start := time.Now()
		for _, dir := range in.deltaDirs {
			tbl, err := delta.Open(dir)
			if err != nil {
				return 0, err
			}
			if _, err := tbl.Snapshot(-1); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	out.set("delta.snapshot_ms", float64(took)/1e6)
	out.set("delta.log_bytes", float64(logBytes))
	return nil
}

// writeParquet writes the replay batches as one LZ4 Parquet file, the way
// delta's data-file writer does, and returns the writer's own breakdown.
func (in *replayInputs) writeParquet(path string) (parquet.Metrics, error) {
	f, err := os.Create(path)
	if err != nil {
		return parquet.Metrics{}, err
	}
	defer f.Close()
	w, err := parquet.NewWriter(f, in.schema, parquet.Options{Compression: parquet.CompLZ4})
	if err != nil {
		return parquet.Metrics{}, err
	}
	for _, b := range in.batches {
		if err := w.WriteBatch(b); err != nil {
			return parquet.Metrics{}, err
		}
	}
	if err := w.Close(); err != nil {
		return parquet.Metrics{}, err
	}
	return w.Metrics(), f.Close()
}

// writerReplay reports the Parquet writer's encode/compress/write split
// and, from it, what a Delta append costs beyond writing the file.
func (in *replayInputs) writerReplay(out layerSet) error {
	if in.scratch == "" {
		return nil
	}
	var enc, comp, wr []float64
	for i := 0; i < replayReps; i++ {
		m, err := in.writeParquet(filepath.Join(in.scratch, "replay.parquet"))
		if err != nil {
			return err
		}
		enc = append(enc, float64(m.EncodeTime))
		comp = append(comp, float64(m.CompressTime))
		wr = append(wr, float64(m.WriteTime))
	}
	out.set("parquet.encode_ms", median(enc)/1e6)
	out.set("parquet.compress_ms", median(comp)/1e6)
	out.set("parquet.write_ms", median(wr)/1e6)

	// A Delta append is snapshot + data file + commit, and commit is private
	// to the delta package. Appending a single row makes the data file
	// negligible, so what remains of that append's wall after a snapshot
	// timed right beside it is the commit (log write, rename, checkpoint).
	tbl, err := delta.Create(filepath.Join(in.scratch, "commit"), in.schema, nil)
	if err != nil {
		return err
	}
	one := vector.NewBatch(in.schema, 1)
	one.AppendRow(in.batches[0].Row(0)...)
	var commits []float64
	for i := 0; i < 2*replayReps+1; i++ {
		start := time.Now()
		if err := tbl.Append([]*vector.Batch{one}, nil); err != nil {
			return err
		}
		appended := time.Since(start)
		start = time.Now()
		if _, err := tbl.Snapshot(-1); err != nil {
			return err
		}
		commits = append(commits, float64(appended-time.Since(start)))
	}
	out.set("delta.commit_ms", max(median(commits), 0)/1e6)
	return nil
}

// codecReplay chains serde and LZ4 over the replay batches, one block per
// batch as spill files and shuffle blocks do: serde encode → lz4 compress →
// lz4 decompress → serde decode.
func (in *replayInputs) codecReplay(out layerSet) error {
	var raw [][]byte
	var rawBytes int64
	encode, err := medianOf(func() (time.Duration, error) {
		raw, rawBytes = raw[:0], 0
		start := time.Now()
		for _, b := range in.batches {
			var buf bytes.Buffer
			w := serde.NewWriter(&buf)
			if err := w.WriteBatch(b); err != nil {
				return 0, err
			}
			if err := w.Close(); err != nil {
				return 0, err
			}
			raw = append(raw, buf.Bytes())
			rawBytes += int64(buf.Len())
		}
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	var packed [][]byte
	var packedBytes int64
	compress, _ := medianOf(func() (time.Duration, error) {
		packed, packedBytes = packed[:0], 0
		start := time.Now()
		for _, r := range raw {
			p := lz4.Compress(make([]byte, 0, lz4.CompressBound(len(r))), r)
			packed = append(packed, p)
			packedBytes += int64(len(p))
		}
		return time.Since(start), nil
	})
	decompress, err := medianOf(func() (time.Duration, error) {
		start := time.Now()
		for i, p := range packed {
			dst := make([]byte, len(raw[i]))
			if n, err := lz4.Decompress(dst, p); err != nil || n != len(dst) || !bytes.Equal(dst, raw[i]) {
				return 0, fmt.Errorf("lz4 round trip of block %d: %d of %d bytes, err %v", i, n, len(dst), err)
			}
		}
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	decode, err := medianOf(func() (time.Duration, error) {
		dst := vector.NewBatch(in.schema, vector.DefaultBatchSize)
		start := time.Now()
		for _, r := range raw {
			rd := serde.NewReader(bytes.NewReader(r), in.schema)
			for {
				err := rd.ReadBatch(dst)
				if err == io.EOF {
					break
				}
				if err != nil {
					return 0, err
				}
			}
		}
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	out.set("serde.encode_mb_per_s", mbPerS(rawBytes, encode))
	out.set("serde.decode_mb_per_s", mbPerS(rawBytes, decode))
	out.set("lz4.compress_mb_per_s", mbPerS(rawBytes, compress))
	out.set("lz4.decompress_mb_per_s", mbPerS(rawBytes, decompress))
	out.set("lz4.ratio", ratio(float64(rawBytes), float64(packedBytes)))
	return nil
}

// shuffleReplay hash-partitions the replay batches on the key column into
// eight partitions, commits, and reads every partition back.
func (in *replayInputs) shuffleReplay(out layerSet) error {
	const parts = 8
	dir, err := os.MkdirTemp("", "bench-shuffle-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var written int64
	rep := 0
	write, err := medianOf(func() (time.Duration, error) {
		rep++
		start := time.Now()
		w, err := shuffle.NewWriter(dir, fmt.Sprintf("replay%d", rep), 0, parts, shuffle.EncoderOptions{Adaptive: true})
		if err != nil {
			return 0, err
		}
		split := shuffle.NewPartitioner(parts, []int{in.keyCol})
		for _, b := range in.batches {
			saved := b.Sel
			for p, sel := range split.Split(b) {
				if len(sel) == 0 {
					continue
				}
				b.Sel = sel
				if err := w.WritePartition(p, b); err != nil {
					b.Sel = saved
					w.Abort()
					return 0, err
				}
			}
			b.Sel = saved
		}
		if err := w.Close(); err != nil {
			return 0, err
		}
		if err := w.Commit(); err != nil {
			return 0, err
		}
		written = w.Bytes
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	want := in.rows()
	read, err := medianOf(func() (time.Duration, error) {
		dst := vector.NewBatch(in.schema, vector.DefaultBatchSize)
		var got int64
		start := time.Now()
		for p := 0; p < parts; p++ {
			r := shuffle.NewReader(dir, fmt.Sprintf("replay%d", rep), 1, p, in.schema)
			for {
				ok, err := r.Next(dst)
				if err != nil {
					return 0, err
				}
				if !ok {
					break
				}
				got += int64(dst.NumRows)
			}
		}
		if got != want {
			return 0, fmt.Errorf("shuffle replay read back %d of %d rows", got, want)
		}
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	out.set("shuffle.write_mb_per_s", mbPerS(written, write))
	out.set("shuffle.read_mb_per_s", mbPerS(written, read))
	return nil
}

// hashKeys fills lanes and hashes for one batch's int64 key column.
func hashKeys(b *vector.Batch, col int, lanes, hashes []uint64) {
	for i, k := range b.Vecs[col].I64[:b.NumRows] {
		lanes[i] = uint64(k)
	}
	kernels.HashU64(lanes[:b.NumRows], nil, false, nil, b.NumRows, hashes)
}

// hashTableReplay builds a table on the build side's keys and probes it
// with the replay batches' keys, as a hash join on that key does.
func (in *replayInputs) hashTableReplay(out layerSet) error {
	lanes := make([]uint64, vector.DefaultBatchSize)
	hashes := make([]uint64, vector.DefaultBatchSize)
	rowIDs := make([]int32, vector.DefaultBatchSize)
	inserted := make([]bool, vector.DefaultBatchSize)
	var tbl *ht.Table
	var buildRows int64
	build, err := medianOf(func() (time.Duration, error) {
		buildRows = 0
		start := time.Now()
		tbl = ht.New([]types.DataType{types.Int64Type}, 0)
		for _, b := range in.buildKeys {
			hashKeys(b, in.buildCol, lanes, hashes)
			if err := tbl.FindOrInsert([]*vector.Vector{b.Vecs[in.buildCol]}, hashes, nil, b.NumRows, rowIDs, inserted); err != nil {
				return 0, err
			}
			buildRows += int64(b.NumRows)
		}
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	probe, err := medianOf(func() (time.Duration, error) {
		start := time.Now()
		for _, b := range in.batches {
			hashKeys(b, in.keyCol, lanes, hashes)
			if err := tbl.Find([]*vector.Vector{b.Vecs[in.keyCol]}, hashes, nil, b.NumRows, rowIDs); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	out.set("ht.build_ns_per_row", ratio(float64(build), float64(buildRows)))
	out.set("ht.probe_ns_per_row", ratio(float64(probe), float64(in.rows())))
	return nil
}

// Q1's projection and Q6's predicate, as stand-alone queries over lineitem.
const (
	q1ProjectionSQL = "SELECT l_extendedprice * (1 - l_discount), l_extendedprice * (1 - l_discount) * (1 + l_tax) FROM lineitem"
	q6PredicateSQL  = "SELECT l_orderkey FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"
)

// drain compiles text over cat into a vectorized operator tree and pulls it
// dry on one task, returning the wall time.
func drain(cat *catalog.Catalog, text string) (time.Duration, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return 0, err
	}
	plan, err := sql.Analyze(cat, stmt)
	if err != nil {
		return 0, err
	}
	if plan, err = catalyst.Optimize(plan); err != nil {
		return 0, err
	}
	tc := exec.NewTaskCtx(nil, 0)
	tc.Ctx = context.Background()
	op, err := catalyst.BuildOperator(plan, catalyst.Config{Engine: catalyst.EnginePhoton}, tc)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := op.Open(tc); err != nil {
		return 0, err
	}
	for {
		b, err := op.Next()
		if err != nil {
			op.Close()
			return 0, err
		}
		if b == nil {
			break
		}
	}
	took := time.Since(start)
	return took, op.Close()
}

// exprReplay evaluates Q1's projection and Q6's predicate over the
// in-memory lineitem batches; the scan passes batches through untouched,
// so the time is expression evaluation.
func (in *replayInputs) exprReplay(out layerSet) error {
	if !in.lineitem {
		return nil
	}
	cat := catalog.New()
	cat.Register(&catalog.MemTable{TableName: "lineitem", Sch: in.schema, Batches: in.batches})
	for _, e := range []struct{ metric, text string }{
		{"expr.q1_proj_ns_per_row", q1ProjectionSQL},
		{"expr.q6_pred_ns_per_row", q6PredicateSQL},
	} {
		took, err := medianOf(func() (time.Duration, error) { return drain(cat, e.text) })
		if err != nil {
			return fmt.Errorf("%s: %w", e.metric, err)
		}
		out.set(e.metric, ratio(float64(took), float64(in.rows())))
	}
	return nil
}

// ingestReplay measures what boxing a wide result into [][]any costs: a
// wide_select's wall minus the wall of counting the same rows.
func (in *replayInputs) ingestReplay(out layerSet) error {
	w := in.ingest
	if w == nil {
		return nil
	}
	ctx := context.Background()
	lo, hi := w.firstID, w.firstID+ingestSelectRows-1
	timeQuery := func(text string) (time.Duration, error) {
		return medianOf(func() (time.Duration, error) {
			start := time.Now()
			_, err := w.sess.SQLContext(ctx, text)
			return time.Since(start), err
		})
	}
	wide, err := timeQuery(fmt.Sprintf(wideSelectSQL, lo, hi))
	if err != nil {
		return err
	}
	count, err := timeQuery(fmt.Sprintf("SELECT count(*) FROM events WHERE id BETWEEN %d AND %d", lo, hi))
	if err != nil {
		return err
	}
	out.set("result.materialize_ms", float64(max(wide-count, 0))/1e6)
	return nil
}
