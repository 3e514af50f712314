package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/graph"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// The container magics, each eight ASCII bytes read as a big-endian word.
const (
	// FileMagic opens a trace file: "MPCTRCF1".
	FileMagic uint64 = 0x4d50435452434631
	// SegMagic brands each segment container: "MPCTRSG1".
	SegMagic uint64 = 0x4d50435452534731
	// FooterMagic brands the footer container: "MPCTRFT1".
	FooterMagic uint64 = 0x4d50435452465431
	// TrailerMagic ends the file: "MPCTREN1".
	TrailerMagic uint64 = 0x4d50435452454e31
)

// Version is the trace format version, carried in the raw file header (the
// segment and footer containers additionally carry the snapshot container
// version). Bump on incompatible layout change; readers reject, never
// migrate.
const Version uint64 = 1

// Section tags of the segment and footer containers.
const (
	tagSegMeta     = 0x60
	tagSegBatch    = 0x61
	tagFooterShape = 0x68
	tagFooterIndex = 0x69
)

// headerBytes is the raw file header size: FileMagic + Version.
const headerBytes = 16

// trailerBytes is the raw trailer size: footer offset + TrailerMagic.
const trailerBytes = 16

// DefaultSegmentBatches is the default number of batches per segment: large
// enough that the per-segment container overhead vanishes, small enough
// that one decoded segment stays a few megabytes for typical batch sizes.
const DefaultSegmentBatches = 1024

// MaxVertices caps the vertex-space size of a trace (2^31). Writer,
// converter, and reader all enforce it, so a stray huge id in an input edge
// list fails at ingestion with a line number instead of sizing a
// multi-gigabyte graph in whatever consumer replays the trace.
const MaxVertices = 1 << 31

// segment is one footer-index entry.
type segment struct {
	// Off and Len are the byte extent of the segment container in the file.
	off, length int64
	// first is the index of the segment's first batch; count its batches.
	first, count int
}

// WriterOptions parameterizes a Writer. The zero value is usable.
type WriterOptions struct {
	// N declares the vertex-space size echoed in the footer; 0 derives it
	// from the largest endpoint observed (max+1).
	N int
	// SegmentBatches caps the batches buffered per segment (default
	// DefaultSegmentBatches).
	SegmentBatches int
}

// Writer streams batches into a trace file. It buffers at most one
// segment's worth of batches before encoding and writing it, so writing a
// trace costs O(segment) memory regardless of stream length. Close writes
// the final segment, the footer index, and the trailer; a trace without a
// valid footer is unreadable, so an interrupted write is rejected by
// readers rather than silently truncated.
type Writer struct {
	w   io.Writer
	off int64
	opt WriterOptions

	seg      []graph.Batch
	segFirst int

	index    []segment
	batches  int
	updates  int
	maxV     int
	weighted bool
	closed   bool
	err      error
}

// NewWriter returns a Writer over w. The raw file header is written
// immediately.
func NewWriter(w io.Writer, opt WriterOptions) (*Writer, error) {
	if opt.SegmentBatches <= 0 {
		opt.SegmentBatches = DefaultSegmentBatches
	}
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint64(hdr[0:], FileMagic)
	binary.LittleEndian.PutUint64(hdr[8:], Version)
	n, err := w.Write(hdr[:])
	if err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	return &Writer{w: w, off: int64(n), opt: opt, maxV: -1}, nil
}

// WriteBatch appends one batch. Empty batches are skipped — the text
// format cannot represent them, and keeping the two formats' batch
// sequences identical is what makes text and trace replays bit-identical.
func (t *Writer) WriteBatch(b graph.Batch) error {
	if t.err != nil {
		return t.err
	}
	if t.closed {
		return fmt.Errorf("trace: WriteBatch after Close")
	}
	if len(b) == 0 {
		return nil
	}
	for _, u := range b {
		if u.Edge.U < 0 {
			return t.fail(fmt.Errorf("trace: negative vertex %d", u.Edge.U))
		}
		if u.Edge.V >= MaxVertices {
			return t.fail(fmt.Errorf("trace: vertex %d exceeds the format limit of %d", u.Edge.V, MaxVertices))
		}
		if u.Weight != 0 {
			t.weighted = true
		}
	}
	if m := b.MaxVertex(); m > t.maxV {
		t.maxV = m
	}
	t.seg = append(t.seg, b)
	t.batches++
	t.updates += len(b)
	if len(t.seg) >= t.opt.SegmentBatches {
		return t.flushSegment()
	}
	return nil
}

// fail latches err and returns it.
func (t *Writer) fail(err error) error {
	if t.err == nil {
		t.err = err
	}
	return t.err
}

// segMeta declares a segment's meta section: the index of its first batch
// and its batch count — echoes of the footer index entry, so a load compares
// them with the entry — and its update count. pkg names the segment in
// diagnostics.
func segMeta(pkg string, first, count int, updates *int) *snapshot.Image {
	return &snapshot.Image{Pkg: pkg, Sections: []snapshot.Section{{Tag: tagSegMeta, Parts: []snapshot.Part{
		snapshot.Echo("first batch", first), snapshot.Echo("batches", count), snapshot.Scalar("updates", updates),
	}}}}
}

// footer declares the footer's sections: the shape echo, then the index —
// one (off, length, first, count) row per segment, to write from index; a
// load reads the rows off the returned table.
func footer(shape *workload.Shape, index []segment) (*snapshot.Image, *snapshot.Table) {
	t := &snapshot.Table{Name: "index", Layout: snapshot.Layout{Width: 4}, Len: len(index), Row: func(r int, row []uint64) {
		s := index[r]
		row[0], row[1], row[2], row[3] = uint64(s.off), uint64(s.length), uint64(s.first), uint64(s.count)
	}}
	return &snapshot.Image{Pkg: "trace footer", Sections: []snapshot.Section{
		{Tag: tagFooterShape, Parts: []snapshot.Part{snapshot.Scalar("N", &shape.N), snapshot.Scalar("batches", &shape.Batches),
			snapshot.Scalar("updates", &shape.Updates), snapshot.Scalar("weighted", &shape.Weighted)}},
		{Tag: tagFooterIndex, Parts: []snapshot.Part{t}},
	}}, t
}

// flushSegment encodes the buffered batches as one segment container.
func (t *Writer) flushSegment() error {
	if len(t.seg) == 0 {
		return nil
	}
	updates := 0
	for _, b := range t.seg {
		updates += len(b)
	}
	e := snapshot.NewEncoder()
	segMeta("", t.segFirst, len(t.seg), &updates).Encode(e)
	for _, b := range t.seg {
		e.Begin(tagSegBatch)
		snapshot.EncodeUpdates(e, b)
	}
	n, _, err := e.WriteContainer(t.w, SegMagic)
	if err != nil {
		return t.fail(fmt.Errorf("trace: write segment %d: %w", len(t.index), err))
	}
	t.index = append(t.index, segment{off: t.off, length: n, first: t.segFirst, count: len(t.seg)})
	t.off += n
	t.segFirst += len(t.seg)
	t.seg = t.seg[:0]
	return nil
}

// Shape returns the shape the footer will echo for the stream so far.
func (t *Writer) Shape() workload.Shape {
	n := t.opt.N
	if n == 0 {
		n = t.maxV + 1
	}
	return workload.Shape{N: n, Batches: t.batches, Updates: t.updates, Weighted: t.weighted}
}

// Close flushes the final segment and writes the footer and trailer. The
// Writer is unusable afterwards.
func (t *Writer) Close() error {
	if t.err != nil {
		return t.err
	}
	if t.closed {
		return nil
	}
	t.closed = true
	if err := t.flushSegment(); err != nil {
		return err
	}
	shape := t.Shape()
	if t.opt.N > 0 && t.maxV >= t.opt.N {
		return t.fail(fmt.Errorf("trace: stream references vertex %d but the declared vertex space is [0,%d)", t.maxV, t.opt.N))
	}
	e := snapshot.NewEncoder()
	img, _ := footer(&shape, t.index)
	img.Encode(e)
	footerOff := t.off
	n, _, err := e.WriteContainer(t.w, FooterMagic)
	if err != nil {
		return t.fail(fmt.Errorf("trace: write footer: %w", err))
	}
	t.off += n
	var tr [trailerBytes]byte
	binary.LittleEndian.PutUint64(tr[0:], uint64(footerOff))
	binary.LittleEndian.PutUint64(tr[8:], TrailerMagic)
	if _, err := t.w.Write(tr[:]); err != nil {
		return t.fail(fmt.Errorf("trace: write trailer: %w", err))
	}
	return nil
}

// Reader replays a trace file as a workload.BatchSource. It reads the
// footer index up front (one seek from the end), then decodes one segment
// at a time on demand; at most one decoded segment is held in memory. The
// index also backs SeekBatch, so a resumed replay loads only the segment
// containing its first needed batch.
type Reader struct {
	rs    io.ReadSeeker
	size  int64
	shape workload.Shape
	index []segment

	// seg is the decoded current segment; pos indexes into it. segIdx is
	// the index entry seg was decoded from (-1 before the first load).
	seg    []graph.Batch
	pos    int
	segIdx int

	// bufferedHigh is the high-water mark of batches buffered at once — the
	// O(segment) memory contract, asserted by tests.
	bufferedHigh int
}

// NewReader opens a trace over rs, verifying the raw header, the trailer,
// and the footer container before returning. Segment containers are
// verified lazily as replay reaches them.
func NewReader(rs io.ReadSeeker) (*Reader, error) {
	size, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if size < headerBytes+trailerBytes {
		return nil, fmt.Errorf("trace: file of %d bytes is too small to be a trace", size)
	}
	hdr, err := readAt(rs, 0, headerBytes)
	if err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if m := binary.LittleEndian.Uint64(hdr[0:]); m != FileMagic {
		return nil, fmt.Errorf("trace: bad magic word %#x: not a trace file", m)
	}
	if v := binary.LittleEndian.Uint64(hdr[8:]); v != Version {
		return nil, fmt.Errorf("trace: format version %d, want %d: regenerate the trace", v, Version)
	}
	tr, err := readAt(rs, size-trailerBytes, trailerBytes)
	if err != nil {
		return nil, fmt.Errorf("trace: read trailer: %w", err)
	}
	if m := binary.LittleEndian.Uint64(tr[8:]); m != TrailerMagic {
		return nil, fmt.Errorf("trace: bad trailer word %#x: trace truncated or not closed", m)
	}
	footerOff := int64(binary.LittleEndian.Uint64(tr[0:]))
	if footerOff < headerBytes || footerOff > size-trailerBytes {
		return nil, fmt.Errorf("trace: footer offset %d outside file of %d bytes", footerOff, size)
	}
	ftr, err := readAt(rs, footerOff, size-trailerBytes-footerOff)
	if err != nil {
		return nil, fmt.Errorf("trace: read footer: %w", err)
	}
	d, _, err := snapshot.NewContainerDecoder(bytes.NewReader(ftr), FooterMagic, "trace footer")
	if err != nil {
		return nil, err
	}
	r := &Reader{rs: rs, size: size, segIdx: -1}
	img, index := footer(&r.shape, nil)
	if err := img.Load(d); err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	for i := range index.Rows() {
		row := index.At(i)
		r.index = append(r.index, segment{off: int64(row[0]), length: int64(row[1]), first: int(int64(row[2])), count: int(int64(row[3]))})
	}
	if r.shape.N < 2 || r.shape.N > MaxVertices {
		return nil, fmt.Errorf("trace: footer declares %d vertices (want 2..%d)", r.shape.N, MaxVertices)
	}
	if r.shape.Batches < 0 || r.shape.Updates < r.shape.Batches {
		return nil, fmt.Errorf("trace: footer declares %d batches but %d updates", r.shape.Batches, r.shape.Updates)
	}
	// Validate the index as a whole: contiguous batch ranges covering
	// [0, Batches) and segment extents inside the file.
	next := 0
	for i, s := range r.index {
		if s.first != next || s.count <= 0 {
			return nil, fmt.Errorf("trace: footer index entry %d covers batches [%d,%d), want first %d", i, s.first, s.first+s.count, next)
		}
		if s.off < headerBytes || s.length <= 0 || s.length > footerOff-s.off {
			return nil, fmt.Errorf("trace: footer index entry %d extent of %d bytes at %d outside segment area [%d,%d)", i, s.length, s.off, headerBytes, footerOff)
		}
		next += s.count
	}
	if next != r.shape.Batches {
		return nil, fmt.Errorf("trace: footer index covers %d batches, shape declares %d", next, r.shape.Batches)
	}
	return r, nil
}

// readAt reads exactly n bytes at offset off.
func readAt(rs io.ReadSeeker, off, n int64) ([]byte, error) {
	if _, err := rs.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(rs, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Shape implements workload.BatchSource: the footer's configuration echo.
func (r *Reader) Shape() workload.Shape { return r.shape }

// Segments returns the number of segments in the trace.
func (r *Reader) Segments() int { return len(r.index) }

// loadSegment decodes index entry i into r.seg.
func (r *Reader) loadSegment(i int) error {
	s := r.index[i]
	raw, err := readAt(r.rs, s.off, s.length)
	if err != nil {
		return fmt.Errorf("trace: read segment %d: %w", i, err)
	}
	d, _, err := snapshot.NewContainerDecoder(bytes.NewReader(raw), SegMagic, "trace segment")
	if err != nil {
		return fmt.Errorf("trace: segment %d: %w", i, err)
	}
	var updates int
	if err := segMeta(fmt.Sprintf("trace: segment %d", i), s.first, s.count, &updates).Load(d); err != nil {
		return err
	}
	r.seg = r.seg[:0]
	got := 0
	for b := 0; b < s.count; b++ {
		d.Begin(tagSegBatch)
		batch, err := decodeBatch(d, r.shape.N)
		if err != nil {
			return fmt.Errorf("trace: segment %d batch %d: %w", i, s.first+b, err)
		}
		if len(batch) == 0 {
			return fmt.Errorf("trace: segment %d batch %d is empty", i, s.first+b)
		}
		got += len(batch)
		r.seg = append(r.seg, batch)
	}
	if err := d.Finish(); err != nil {
		return err
	}
	if got != updates {
		return fmt.Errorf("trace: segment %d carries %d updates, meta declares %d", i, got, updates)
	}
	r.segIdx = i
	if len(r.seg) > r.bufferedHigh {
		r.bufferedHigh = len(r.seg)
	}
	return nil
}

// decodeBatch reads one batch (snapshot.DecodeUpdates: ops, vertex ranges
// and self-loops validated) and checks the generator invariant that a batch
// touches each edge at most once — structural validity only; graph validity
// (duplicate inserts, deletes of absent edges) is the replay mirror's job.
func decodeBatch(d *snapshot.Decoder, n int) (graph.Batch, error) {
	b, err := snapshot.DecodeUpdates(d, n)
	if err != nil {
		return nil, err
	}
	seen := make(map[graph.Edge]struct{}, len(b))
	for _, up := range b {
		if _, dup := seen[up.Edge]; dup {
			return nil, fmt.Errorf("edge %v touched twice in one batch", up.Edge)
		}
		seen[up.Edge] = struct{}{}
	}
	return b, nil
}

// Next implements workload.BatchSource: the next batch, or io.EOF once the
// trace is exhausted. Segments are decoded on demand and replaced in
// place, so at most one segment is buffered.
func (r *Reader) Next() (graph.Batch, error) {
	for r.pos >= len(r.seg) {
		next := r.segIdx + 1
		if next >= len(r.index) {
			return nil, io.EOF
		}
		if err := r.loadSegment(next); err != nil {
			return nil, err
		}
		r.pos = 0
	}
	b := r.seg[r.pos]
	r.pos++
	return b, nil
}

// SeekBatch positions the reader so the next Next call returns batch idx
// (0-based). Seeking to Shape().Batches positions at end of stream. Only
// the segment containing idx is loaded.
func (r *Reader) SeekBatch(idx int) error {
	if idx < 0 || idx > r.shape.Batches {
		return fmt.Errorf("trace: seek to batch %d outside [0,%d]", idx, r.shape.Batches)
	}
	if idx == r.shape.Batches {
		// Mark every segment as consumed so Next reports io.EOF.
		r.seg = r.seg[:0]
		r.pos = 0
		r.segIdx = len(r.index) - 1
		return nil
	}
	i := sort.Search(len(r.index), func(i int) bool {
		return r.index[i].first+r.index[i].count > idx
	})
	if i == len(r.index) {
		return fmt.Errorf("trace: footer index does not cover batch %d", idx)
	}
	if r.segIdx != i || len(r.seg) == 0 {
		if err := r.loadSegment(i); err != nil {
			return err
		}
	}
	r.pos = idx - r.index[i].first
	return nil
}

// BufferedHighWater reports the largest number of decoded batches the
// reader has held at once — the O(segment) replay-memory contract, pinned
// by tests against the configured segment size.
func (r *Reader) BufferedHighWater() int { return r.bufferedHigh }
