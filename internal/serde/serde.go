// Package serde is the stream form of the exchange block (package shuffle):
// HashAgg, grace-join and Sort spill files are streams of sealed blocks, one
// per WriteBatch call, ended by an empty block. A block is verified against
// its checksum before anything in it is decoded, so a damaged or truncated
// stream is an error wrapping ErrCorrupt, never a wrong row.
//
// Blocks are PLAIN. A spill stream is read back by the task that wrote it;
// PLAIN strings alias only their own block, and each block is read into a
// buffer of its own, so rows taken from one batch keep their strings while
// the reader moves on.
package serde

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"photon/internal/shuffle"
	"photon/internal/types"
	"photon/internal/vector"
)

// ErrCorrupt is wrapped by every error that reports a stream damaged or cut
// short.
var ErrCorrupt = errors.New("serde: corrupt stream")

// Writer writes batches to a stream.
type Writer struct {
	w     *bufio.Writer
	enc   shuffle.BlockEncoder // the zero value: PLAIN
	dense *vector.Batch        // a selective batch's active rows, gathered
	block []byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// WriteBatch writes b's active rows as one block.
func (sw *Writer) WriteBatch(b *vector.Batch) error {
	if b.Sel != nil {
		if sw.dense == nil || sw.dense.Capacity() < b.NumActive() {
			sw.dense = vector.NewBatch(b.Schema, b.NumActive())
		}
		b.GatherInto(sw.dense)
		b = sw.dense
	}
	return sw.write(b)
}

func (sw *Writer) write(b *vector.Batch) error {
	sw.block = sw.enc.AppendBlock(sw.block[:0], b)
	_, err := sw.w.Write(sw.block)
	return err
}

// Close writes the end marker, an empty block, and flushes. It does not
// close the underlying writer.
func (sw *Writer) Close() error {
	if err := sw.write(nil); err != nil {
		return err
	}
	return sw.w.Flush()
}

// Reader reads batches written by Writer.
type Reader struct {
	r     *bufio.Reader
	dec   shuffle.BlockDecoder
	block []byte // the block last read: its batch's strings alias it
}

// NewReader wraps r, a stream of batches of the given schema; ReadBatch
// decodes into its dst, which carries that schema.
func NewReader(r io.Reader, schema *types.Schema) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// ReadBatch reads the next block into dst, which must have the stream's
// schema and room for the rows of one WriteBatch call. It returns io.EOF at
// the end marker.
func (sr *Reader) ReadBatch(dst *vector.Batch) error {
	h, err := sr.r.Peek(shuffle.BlockHeader)
	if err == nil {
		err = sr.readBlock(shuffle.BlockSize(h))
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: it ends without its end marker", ErrCorrupt)
	} else if err != nil {
		return err
	}
	if err = sr.dec.Decode(sr.block, dst); err != nil && err != io.EOF {
		err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return err
}

// readBlock reads the n-byte block at the head of the stream into a new
// buffer. The buffer starts at the bytes already buffered and at most
// doubles as more arrive, so a length that lies costs no more than twice
// what the stream holds.
func (sr *Reader) readBlock(n int) error {
	sr.block = make([]byte, 0, min(n, sr.r.Buffered()))
	for len(sr.block) < n {
		if len(sr.block) == cap(sr.block) {
			sr.block = append(make([]byte, 0, min(n, 2*len(sr.block))), sr.block...)
		}
		m, err := io.ReadFull(sr.r, sr.block[len(sr.block):cap(sr.block)])
		sr.block = sr.block[:len(sr.block)+m]
		if err != nil {
			return err
		}
	}
	return nil
}
