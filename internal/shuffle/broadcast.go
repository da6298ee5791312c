package shuffle

// Broadcast exchange: a stage whose output feeds the build side of a
// broadcast hash join writes its *entire* per-task output as a single
// replicated partition, and every task of the consuming stage reads all of
// it. On a real cluster this is the "small table shipped to every
// executor" path; here it is one partition per map task, which a query's
// Store keeps whole in memory (Store.NewBroadcastWriter / NewBroadcastReader)
// and this file's writer puts in the columnar shuffle format.

// NewBroadcastWriter opens a broadcast writer for one map task: a
// single-partition shuffle file holding the task's full output. Write rows
// through WritePartition(0, batch) (or exec.NewShuffleWrite with a nil
// partitioner); read them back with NewReader's partition 0.
func NewBroadcastWriter(dir, shuffleID string, mapTask int, opts EncoderOptions) (*Writer, error) {
	return NewWriter(dir, shuffleID, mapTask, 1, opts)
}
