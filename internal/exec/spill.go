package exec

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"photon/internal/fault"
	"photon/internal/ht"
	"photon/internal/kernels"
	"photon/internal/serde"
	"photon/internal/vector"
)

// This file is the one place that knows what a spill file is (§5.3): an
// internal/serde stream of blocks that the task which wrote it reads back.
// HashAgg, the grace join and Sort write, read and remove spilled state only
// through spillRun. A failed spill-file operation fails the task as
// retryable where it can be: its re-run writes the spill files afresh.

// spillParts is the hash fan-out of spilled state: HashAgg and the grace
// join send a key to partition partOf(its hash).
const spillParts = 16

// partOf is the spill partition of a key hash.
func partOf(hash uint64) int { return int(kernels.Mix64(hash) % spillParts) }

// spillRun is one spill file. It is written once as a stream of blocks,
// finished, read back from its start, and then removed.
type spillRun struct {
	tc *TaskCtx
	f  *os.File
	w  *serde.Writer
	rd *serde.Reader // set by the first read
}

// newSpillRun creates a uniquely named spill file in the task's spill
// directory. Its failpoint site is spill-write.
func newSpillRun(tc *TaskCtx, prefix string) (*spillRun, error) {
	if !tc.CanSpill() {
		return nil, fmt.Errorf("exec: spilling disabled (no spill directory configured)")
	}
	if err := fault.Hit(tc.Ctx, fault.SpillWrite); err != nil {
		return nil, err
	}
	dir := tc.SpillDir
	if tc.MakeSpillDir != nil {
		var err error
		if dir, err = tc.MakeSpillDir(); err != nil {
			return nil, fault.ClassifyIO(fault.SpillWrite, err)
		}
	}
	name := fmt.Sprintf("%s-%d.spill", prefix, tc.spillSeq.Add(1))
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, fault.ClassifyIO(fault.SpillWrite, err)
	}
	return &spillRun{tc: tc, f: f, w: serde.NewWriter(f)}, nil
}

// write appends b's active rows to the run as one block.
func (r *spillRun) write(b *vector.Batch) error {
	return fault.ClassifyIO(fault.SpillWrite, r.w.WriteBatch(b))
}

// finish ends the stream and flushes it; the run can then be read.
func (r *spillRun) finish() error {
	return fault.ClassifyIO(fault.SpillWrite, r.w.Close())
}

// read reads the run's next block into dst, which has the run's schema;
// false at the run's end. The first read rewinds the file. Every read fires
// the spill-read failpoint, and a damaged or truncated stream, like a
// transient OS error, fails the task as retryable.
func (r *spillRun) read(dst *vector.Batch) (bool, error) {
	if err := fault.Hit(r.tc.Ctx, fault.SpillRead); err != nil {
		return false, err
	}
	if r.rd == nil {
		if _, err := r.f.Seek(0, io.SeekStart); err != nil {
			return false, fault.ClassifyIO(fault.SpillRead, err)
		}
		r.rd = serde.NewReader(r.f, dst.Schema)
	}
	err := r.rd.ReadBatch(dst)
	switch {
	case err == io.EOF:
		return false, nil
	case errors.Is(err, serde.ErrCorrupt):
		return false, &fault.Error{Site: fault.SpillRead, Transient: true, Err: err}
	}
	return err == nil, fault.ClassifyIO(fault.SpillRead, err)
}

// next returns a function that reads the run's next block into dst and
// returns it, nil at the run's end: the run as drain's input.
func (r *spillRun) next(dst *vector.Batch) func() (*vector.Batch, error) {
	return func() (*vector.Batch, error) {
		if ok, err := r.read(dst); !ok {
			return nil, err
		}
		return dst, nil
	}
}

// remove closes and deletes the file. It is safe to call more than once, and
// on a nil run.
func (r *spillRun) remove() {
	if r == nil || r.f == nil {
		return
	}
	r.f.Close()
	os.Remove(r.f.Name())
	r.f = nil
}

// spillRuns is a set of runs: an operator's hash partitions, or Sort's
// sorted runs.
type spillRuns []*spillRun

// newSpillParts creates one run per hash partition, named prefix-p<i>.
func newSpillParts(tc *TaskCtx, prefix string) (spillRuns, error) {
	runs := make(spillRuns, spillParts)
	for p := range runs {
		r, err := newSpillRun(tc, fmt.Sprintf("%s-p%d", prefix, p))
		if err != nil {
			runs[:p].remove()
			return nil, err
		}
		runs[p] = r
	}
	return runs, nil
}

// finish finishes every run.
func (rs spillRuns) finish() error {
	for _, r := range rs {
		if err := r.finish(); err != nil {
			return err
		}
	}
	return nil
}

// remove removes every run.
func (rs spillRuns) remove() {
	for _, r := range rs {
		r.remove()
	}
}

// spillTable writes every row of tbl to its hash partition's run: rows
// within a partition in table-row order, through batch b, which is cut at
// capacity and at the end of each partition. appendRow appends one table
// row to b.
func (rs spillRuns) spillTable(tbl *ht.Table, b *vector.Batch, appendRow func(b *vector.Batch, row int32)) error {
	byPart := make([][]int32, spillParts)
	for row := int32(0); row < int32(tbl.NumRows()); row++ {
		p := partOf(tbl.RowHash(row))
		byPart[p] = append(byPart[p], row)
	}
	for p, rows := range byPart {
		for k, row := range rows {
			appendRow(b, row)
			if b.NumRows == b.Capacity() || k == len(rows)-1 {
				if err := rs[p].write(b); err != nil {
					return err
				}
				b.Reset()
			}
		}
	}
	return nil
}
