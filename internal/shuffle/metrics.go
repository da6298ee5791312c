package shuffle

import "photon/internal/obs"

// Metrics is the shuffle layer's observability bundle: write/read volume
// (Table 1's "Data Size" live, not just in experiments) and the adaptive
// encoding decisions of §4.6 — how many column blocks the encoder emitted
// as plain, UUID-packed, or dictionary-compressed.
type Metrics struct {
	BytesWritten    *obs.Counter
	RawBytesWritten *obs.Counter
	RowsWritten     *obs.Counter
	BlocksWritten   *obs.Counter
	BytesRead       *obs.Counter
	// MemRows and MemBytes count exchange output published to a Store, not
	// to files; HeldBytes is what stores hold reserved right now.
	MemRows   *obs.Counter
	MemBytes  *obs.Counter
	HeldBytes *obs.Gauge
	// BlocksCorrupt counts integrity failures detected on read (bad
	// checksum, truncation, missing file); BlocksRecovered counts
	// successful lineage recoveries (producer map task re-runs).
	BlocksCorrupt   *obs.Counter
	BlocksRecovered *obs.Counter
	// Encodings counts encoded column blocks, indexed by ColEncoding.
	Encodings [3]*obs.Counter
}

// EncodingNames label the ColEncoding values in profiles and metrics.
var EncodingNames = [3]string{"plain", "uuid", "dict"}

// NewMetrics resolves the shuffle metric handles on r (get-or-create, so
// every writer/reader of a process shares the same counters). A nil
// registry returns nil, and all Metrics uses are nil-guarded.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	m := &Metrics{
		BytesWritten: r.Counter("photon_shuffle_write_bytes_total",
			"Bytes written to shuffle/broadcast files, block headers included"),
		RawBytesWritten: r.Counter("photon_shuffle_write_raw_bytes_total",
			"Encoded bytes written to shuffle/broadcast files, without block headers"),
		RowsWritten: r.Counter("photon_shuffle_write_rows_total",
			"Rows written across exchange boundaries, to files or to memory"),
		BlocksWritten: r.Counter("photon_shuffle_write_blocks_total",
			"Encoded blocks written to shuffle/broadcast files"),
		BytesRead: r.Counter("photon_shuffle_read_bytes_total",
			"Bytes read back from shuffle/broadcast files"),
		MemRows: r.Counter("photon_exchange_mem_rows_total",
			"Rows that crossed an exchange in memory, as the batches their writer staged"),
		MemBytes: r.Counter("photon_exchange_mem_bytes_total",
			"Bytes reserved for exchange output kept in memory"),
		HeldBytes: r.Gauge("photon_exchange_held_bytes",
			"Bytes reserved right now for exchange output kept in memory (0 when no query runs)"),
		BlocksCorrupt: r.Counter("photon_shuffle_blocks_corrupt_total",
			"Shuffle/broadcast blocks failing integrity verification on read"),
		BlocksRecovered: r.Counter("photon_shuffle_blocks_recovered_total",
			"Lineage recoveries: producing map tasks re-run after corruption"),
	}
	for i, name := range EncodingNames {
		m.Encodings[i] = r.Counter(
			`photon_shuffle_columns_total{encoding="`+name+`"}`,
			"Column blocks by adaptive encoding decision (§4.6)")
	}
	return m
}
