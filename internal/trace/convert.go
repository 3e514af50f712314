package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// Sink consumes converted batches. Both trace.Writer and streamio.Writer
// satisfy it, so one conversion pass can target either format.
type Sink interface {
	WriteBatch(b graph.Batch) error
}

// ConvertOptions parameterizes ConvertEdgeList. The zero value converts an
// unwindowed edge list into batches of DefaultConvertBatch updates.
type ConvertOptions struct {
	// Window > 0 expires each inserted edge once the stream time advances
	// past insertTime + Window, emitting a deletion (carrying the insert
	// weight) before the update that advanced time. 0 keeps every edge
	// live forever (insert-only output).
	Window int64
	// BatchSize caps the updates per emitted batch (default
	// DefaultConvertBatch). Batches also cut early whenever an edge would
	// be touched twice, preserving the generator batch invariant.
	BatchSize int
}

// maxLineBytes bounds a single input line (16 MiB, matching streamio).
const maxLineBytes = 16 << 20

// DefaultConvertBatch is the default updates-per-batch of the converter.
const DefaultConvertBatch = 256

// ConvertStats summarizes one conversion.
type ConvertStats struct {
	// Lines is the number of input lines read (including comments/blanks).
	Lines int
	// Edges is the number of well-formed edge lines.
	Edges int
	// Duplicates counts edge lines skipped because the edge was already
	// live; SelfLoops counts u==v lines skipped.
	Duplicates, SelfLoops int
	// Expired counts the deletions emitted by the sliding window.
	Expired int
	// Batches and Updates count what reached the sink.
	Batches, Updates int
	// N is the observed vertex-space size (max endpoint + 1); Weighted
	// reports whether any update carried a nonzero weight.
	N        int
	Weighted bool
}

// liveEdge is one window entry: the edge, its insert time, and its weight
// (re-emitted on expiry so deletions carry the insert weight, matching the
// generator convention).
type liveEdge struct {
	e graph.Edge
	t int64
	w int64
}

// converter is the streaming state of one ConvertEdgeList call.
type converter struct {
	sink  Sink
	opt   ConvertOptions
	stats ConvertStats

	// live maps each live edge to its weight; fifo holds the live edges in
	// insert order (input timestamps are required non-decreasing, so the
	// FIFO is also ordered by time and expiry pops only from the front).
	live map[graph.Edge]int64
	fifo []liveEdge

	// batch accumulates the next output batch; used enforces the
	// at-most-once-per-edge batch invariant.
	batch graph.Batch
	used  map[graph.Edge]bool

	lastT  int64
	anyT   bool
	fields int // field count of the first data line; all lines must match
}

// ConvertEdgeList streams a SNAP-style text edge list from r into sink as
// timestamp-ordered batches, in memory bounded by the live-edge window plus
// one batch. Lines are:
//
//	u v          insertion at line-order time
//	u v t        insertion at time t
//	u v w t      weighted insertion at time t
//
// with '#'- or '%'-prefixed comment lines and blank lines skipped. All data
// lines must use the same field count, and timestamps must be
// non-decreasing — bounded-memory windowing is only possible over sorted
// input, so out-of-order timestamps are an error naming the line.
// Self-loops and duplicates of live edges are skipped and counted.
// Converting an input with no usable edges is an error.
func ConvertEdgeList(r io.Reader, sink Sink, opt ConvertOptions) (ConvertStats, error) {
	if opt.BatchSize <= 0 {
		opt.BatchSize = DefaultConvertBatch
	}
	c := &converter{
		sink: sink,
		opt:  opt,
		live: map[graph.Edge]int64{},
		used: map[graph.Edge]bool{},
	}
	c.stats.N = 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		c.stats.Lines++
		if err := c.line(sc.Text()); err != nil {
			return c.stats, err
		}
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return c.stats, fmt.Errorf("trace: convert: line %d: longer than %d bytes", c.stats.Lines+1, maxLineBytes)
		}
		return c.stats, fmt.Errorf("trace: convert: %w", err)
	}
	if err := c.flush(); err != nil {
		return c.stats, err
	}
	if c.stats.Updates == 0 {
		return c.stats, fmt.Errorf("trace: convert: no usable edges in %d input lines (%d duplicates, %d self-loops)",
			c.stats.Lines, c.stats.Duplicates, c.stats.SelfLoops)
	}
	return c.stats, nil
}

// line processes one input line.
func (c *converter) line(s string) error {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" || trimmed[0] == '#' || trimmed[0] == '%' {
		return nil
	}
	f := strings.Fields(trimmed)
	if c.fields == 0 {
		switch len(f) {
		case 2, 3, 4:
			c.fields = len(f)
		default:
			return fmt.Errorf("trace: convert: line %d: %d fields, want 2 (u v), 3 (u v t), or 4 (u v w t)", c.stats.Lines, len(f))
		}
	}
	if len(f) != c.fields {
		return fmt.Errorf("trace: convert: line %d: %d fields where the first data line had %d", c.stats.Lines, len(f), c.fields)
	}
	u, err := strconv.Atoi(f[0])
	if err != nil {
		return fmt.Errorf("trace: convert: line %d: bad vertex %q", c.stats.Lines, f[0])
	}
	v, err := strconv.Atoi(f[1])
	if err != nil {
		return fmt.Errorf("trace: convert: line %d: bad vertex %q", c.stats.Lines, f[1])
	}
	if u < 0 || v < 0 {
		return fmt.Errorf("trace: convert: line %d: negative vertex in {%d,%d}", c.stats.Lines, u, v)
	}
	if u >= MaxVertices || v >= MaxVertices {
		return fmt.Errorf("trace: convert: line %d: vertex in {%d,%d} exceeds the format limit of %d", c.stats.Lines, u, v, MaxVertices)
	}
	var w int64
	t := int64(c.stats.Edges) // 2-field lines: line order is the clock
	switch c.fields {
	case 3:
		if t, err = strconv.ParseInt(f[2], 10, 64); err != nil {
			return fmt.Errorf("trace: convert: line %d: bad timestamp %q", c.stats.Lines, f[2])
		}
	case 4:
		if w, err = strconv.ParseInt(f[2], 10, 64); err != nil {
			return fmt.Errorf("trace: convert: line %d: bad weight %q", c.stats.Lines, f[2])
		}
		if w < 1 {
			return fmt.Errorf("trace: convert: line %d: weight %d, want >= 1", c.stats.Lines, w)
		}
		if t, err = strconv.ParseInt(f[3], 10, 64); err != nil {
			return fmt.Errorf("trace: convert: line %d: bad timestamp %q", c.stats.Lines, f[3])
		}
	}
	if c.anyT && t < c.lastT {
		return fmt.Errorf("trace: convert: line %d: timestamp %d after %d — input must be sorted by time (bounded-memory windowing needs non-decreasing timestamps)",
			c.stats.Lines, t, c.lastT)
	}
	c.lastT, c.anyT = t, true
	c.stats.Edges++
	if err := c.expire(t); err != nil {
		return err
	}
	if u == v {
		c.stats.SelfLoops++
		return nil
	}
	e := graph.NewEdge(u, v)
	if _, dup := c.live[e]; dup {
		c.stats.Duplicates++
		return nil
	}
	if m := e.V; m >= c.stats.N {
		c.stats.N = m + 1
	}
	if w != 0 {
		c.stats.Weighted = true
	}
	c.live[e] = w
	c.fifo = append(c.fifo, liveEdge{e: e, t: t, w: w})
	return c.emit(graph.Update{Op: graph.Insert, Edge: e, Weight: w})
}

// expire emits deletions for every live edge whose window closed before t.
func (c *converter) expire(t int64) error {
	if c.opt.Window <= 0 {
		return nil
	}
	for len(c.fifo) > 0 && c.fifo[0].t <= t-c.opt.Window {
		le := c.fifo[0]
		c.fifo = c.fifo[1:]
		if _, ok := c.live[le.e]; !ok {
			continue // already expired by an earlier window pass
		}
		delete(c.live, le.e)
		c.stats.Expired++
		if err := c.emit(graph.Update{Op: graph.Delete, Edge: le.e, Weight: le.w}); err != nil {
			return err
		}
	}
	return nil
}

// emit appends one update to the current batch, flushing first when the
// batch is full or would touch the update's edge twice.
func (c *converter) emit(up graph.Update) error {
	if len(c.batch) >= c.opt.BatchSize || c.used[up.Edge] {
		if err := c.flush(); err != nil {
			return err
		}
	}
	c.used[up.Edge] = true
	c.batch = append(c.batch, up)
	return nil
}

// flush hands the accumulated batch to the sink.
func (c *converter) flush() error {
	if len(c.batch) == 0 {
		return nil
	}
	if err := c.sink.WriteBatch(c.batch); err != nil {
		return err
	}
	c.stats.Batches++
	c.stats.Updates += len(c.batch)
	c.batch = nil
	clear(c.used)
	return nil
}
