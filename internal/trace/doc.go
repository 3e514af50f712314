// Package trace is the at-scale ingestion format: a segmented binary
// container for update streams, plus a streaming converter from SNAP-style
// text edge lists. It exists so multi-gigabyte real-graph traces replay
// through the workload.BatchSource interface in O(segment) memory — the
// text format of internal/streamio stays the debug/interchange format.
//
// # File format
//
// A trace file is a sequence of little-endian uint64 words:
//
//	header    FileMagic ("MPCTRCF1"), Version
//	segments  one container per segment (magic SegMagic "MPCTRSG1")
//	footer    one container (magic FooterMagic "MPCTRFT1")
//	trailer   footer byte offset, TrailerMagic ("MPCTREN1")
//
// Segment and footer containers reuse the snapshot container discipline
// (internal/snapshot): magic word, format version, declared payload length,
// mpc.MessageBatch frame-encoded sections, trailing CRC-32C over the whole
// container. A truncated, bit-flipped, or version-skewed container is
// rejected with a diagnostic before a single update is handed out, segment
// by segment — corruption in segment k still lets segments 0..k-1 replay.
//
// Each segment holds up to a fixed number of batches (WriterOptions
// .SegmentBatches, default 1024) and carries:
//
//	tagSegMeta   first batch index, batch count, update count
//	tagSegBatch  one section per batch: count-prefixed (op, u, v, w) words
//
// The footer carries the shape echo (vertex count, batch/update totals,
// weighted flag) and the segment index: one (byte offset, byte length,
// first batch, batch count) entry per segment.
//
// The segment meta and both footer sections are declared once as snapshot
// parts (segMeta, footer; package snapshot, "# Columns"), and the writer and
// the reader run the same declaration: scalars for the footer's shape and
// the segment's update count, a four-word snapshot.Table for the index, and
// echoes for a segment's first batch and batch count, so a segment that
// disagrees with its index entry is rejected by the codec. The reader then
// checks the index as a whole: entries cover [0, batches) contiguously, and
// every extent lies inside the segment area, compared as a length against
// the room left after its offset so that no sum can overflow. Only the
// batch sections keep a loop of their own (snapshot.EncodeUpdates): they sit
// on the replay path.
//
// The trailing two words let a reader locate the footer with one seek from
// the end, so Reader.SeekBatch positions replay at any batch by loading only
// the segment that contains it — which is how a resumed replay (mpcstream
// -trace -resume) continues from a checkpoint without re-reading the prefix.
//
// # Memory guarantees
//
// Writer buffers at most one segment of batches before encoding it;
// Reader holds at most one decoded segment. Neither ever materializes the
// stream, so replay memory is O(segment + batch), independent of trace
// size. The converter also holds its live edges, to skip duplicates: one
// word per live edge in an open-addressing set kept at a load of at most
// 3/4 (11 to 22 bytes an edge). Without a window every edge stays live, so
// that set grows with the distinct edges of the input and is all the
// converter adds. Only with a window (ConvertOptions.Window > 0) does it
// also keep a FIFO of the live edges with their times and weights (24 bytes
// an edge), from which it emits the expirations. Its per-batch edge check
// is a table sized to the largest batch.
//
// # Version policy
//
// Same as internal/snapshot: the version word bumps on any incompatible
// layout change and old traces are rejected, never migrated — regenerate
// with the converter.
package trace
