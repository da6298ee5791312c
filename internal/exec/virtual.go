package exec

import (
	"photon/internal/types"
	"photon/internal/vector"
)

// VirtualSource adapts a row-producing snapshot function into the batch
// feed a virtual table serves: each call materializes the source's current
// rows into fresh batches. System tables (query history, active queries,
// metrics) use this to route diagnostics through the same MemScan →
// filter → aggregate path as user data.
func VirtualSource(schema *types.Schema, rows func() [][]any) func() []*vector.Batch {
	return func() []*vector.Batch {
		return BuildBatches(schema, rows(), vector.DefaultBatchSize)
	}
}
