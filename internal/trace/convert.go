package trace

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/streamio"
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

// liveEdge is one window entry: the edge's key, its insert time, and its
// weight (re-emitted on expiry so deletions carry the insert weight,
// matching the generator convention).
type liveEdge struct {
	key  uint64
	t, w int64
}

// converter is the streaming state of one ConvertEdgeList call.
type converter struct {
	sink  Sink
	opt   ConvertOptions
	stats ConvertStats

	// live holds the key of every live edge. Under a window, fifo holds the
	// live edges in insert order (input timestamps are required
	// non-decreasing, so the FIFO is also ordered by time and expiry pops
	// only from the front); without one nothing ever expires and there is
	// no FIFO.
	live keySet
	fifo []liveEdge

	// batch accumulates the next output batch; used enforces the
	// at-most-once-per-edge batch invariant.
	batch graph.Batch
	used  batchSet

	lastT  int64
	anyT   bool
	fields int // field count of the first data line; all lines must match
}

// ConvertEdgeList streams a SNAP-style text edge list from r into sink as
// timestamp-ordered batches. Lines are:
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
//
// Besides one batch and one line, the converter holds one word per live
// edge in an open-addressing set at a load of at most 3/4, and, only when
// Window > 0, a FIFO of the live edges with their times and weights. A line
// is split in place and costs no allocation.
func ConvertEdgeList(r io.Reader, sink Sink, opt ConvertOptions) (ConvertStats, error) {
	if opt.BatchSize <= 0 {
		opt.BatchSize = DefaultConvertBatch
	}
	c := &converter{sink: sink, opt: opt, live: newKeySet(), used: newBatchSet()}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		c.stats.Lines++
		if err := c.line(sc.Bytes()); err != nil {
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
func (c *converter) line(b []byte) error {
	var f [4][]byte
	n := streamio.Fields(b, f[:])
	if n == 0 || f[0][0] == '#' || f[0][0] == '%' {
		return nil
	}
	if c.fields == 0 {
		switch n {
		case 2, 3, 4:
			c.fields = n
		default:
			return fmt.Errorf("trace: convert: line %d: %d fields, want 2 (u v), 3 (u v t), or 4 (u v w t)", c.stats.Lines, n)
		}
	}
	if n != c.fields {
		return fmt.Errorf("trace: convert: line %d: %d fields where the first data line had %d", c.stats.Lines, n, c.fields)
	}
	u, ok := streamio.ParseInt(f[0])
	if !ok {
		return fmt.Errorf("trace: convert: line %d: bad vertex %q", c.stats.Lines, f[0])
	}
	v, ok := streamio.ParseInt(f[1])
	if !ok {
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
	switch n {
	case 3:
		if t, ok = streamio.ParseInt(f[2]); !ok {
			return fmt.Errorf("trace: convert: line %d: bad timestamp %q", c.stats.Lines, f[2])
		}
	case 4:
		if w, ok = streamio.ParseInt(f[2]); !ok {
			return fmt.Errorf("trace: convert: line %d: bad weight %q", c.stats.Lines, f[2])
		}
		if w < 1 {
			return fmt.Errorf("trace: convert: line %d: weight %d, want >= 1", c.stats.Lines, w)
		}
		if t, ok = streamio.ParseInt(f[3]); !ok {
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
	lo, hi := min(u, v), max(u, v)
	k := edgeKey(lo, hi)
	if !c.live.add(k) {
		c.stats.Duplicates++
		return nil
	}
	if int(hi) >= c.stats.N {
		c.stats.N = int(hi) + 1
	}
	if w != 0 {
		c.stats.Weighted = true
	}
	if c.opt.Window > 0 {
		c.fifo = append(c.fifo, liveEdge{key: k, t: t, w: w})
	}
	return c.emit(graph.Insert, k, w)
}

// expire emits deletions for every live edge whose window closed before t.
func (c *converter) expire(t int64) error {
	for len(c.fifo) > 0 && c.fifo[0].t <= t-c.opt.Window {
		le := c.fifo[0]
		c.fifo = c.fifo[1:]
		c.live.remove(le.key)
		c.stats.Expired++
		if err := c.emit(graph.Delete, le.key, le.w); err != nil {
			return err
		}
	}
	return nil
}

// emit appends one update to the current batch, flushing first when the
// batch is full or would touch the update's edge twice.
func (c *converter) emit(op graph.Op, k uint64, w int64) error {
	if len(c.batch) >= c.opt.BatchSize {
		if err := c.flush(); err != nil {
			return err
		}
	}
	if !c.used.mark(k) {
		if err := c.flush(); err != nil {
			return err
		}
		c.used.mark(k)
	}
	c.batch = append(c.batch, graph.Update{Op: op, Edge: keyEdge(k), Weight: w})
	return nil
}

// flush hands the accumulated batch to the sink, which may keep it, and
// starts the next one.
func (c *converter) flush() error {
	if len(c.batch) == 0 {
		return nil
	}
	if err := c.sink.WriteBatch(c.batch); err != nil {
		return err
	}
	c.stats.Batches++
	c.stats.Updates += len(c.batch)
	c.batch = make(graph.Batch, 0, min(c.opt.BatchSize, maxBatchPresize))
	c.used.next()
	return nil
}

// maxBatchPresize caps the capacity a new batch is allocated with, so a huge
// BatchSize grows its batches by appending instead of reserving them whole.
const maxBatchPresize = 4096

// edgeKey packs edge {u, v}, u < v < MaxVertices = 2^31, into one word.
// u < v rules out key 0, which marks an empty slot.
func edgeKey(u, v int64) uint64 { return uint64(u)<<31 | uint64(v) }

// keyEdge unpacks an edgeKey.
func keyEdge(k uint64) graph.Edge { return graph.Edge{U: int(k >> 31), V: int(k & (1<<31 - 1))} }

// fibHome is the slot of a table of 2^(64-shift) slots that a probe for k
// starts at (Fibonacci hashing, as graph.Graph's edge table).
func fibHome(k uint64, shift uint) int { return int(k * 0x9e3779b97f4a7c15 >> shift) }

// keySet is a set of nonzero keys: one open-addressing table of words with
// linear probing and backward-shift deletion (no tombstones), grown at a
// load of 3/4.
type keySet struct {
	slots []uint64 // a power-of-two length; 0 is an empty slot
	shift uint     // 64 − log2(len(slots))
	n     int
}

func newKeySet() keySet { return keySet{slots: make([]uint64, 8), shift: 61} }

// find returns the slot holding k and true, or the empty slot that ends k's
// probe and false.
func (s *keySet) find(k uint64) (int, bool) {
	mask := len(s.slots) - 1
	for j := fibHome(k, s.shift); ; j = (j + 1) & mask {
		switch s.slots[j] {
		case k:
			return j, true
		case 0:
			return j, false
		}
	}
}

// add inserts k and reports whether it was absent.
func (s *keySet) add(k uint64) bool {
	j, ok := s.find(k)
	if ok {
		return false
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		old := s.slots
		s.slots, s.shift = make([]uint64, 2*len(old)), s.shift-1
		for _, o := range old {
			if o != 0 {
				i, _ := s.find(o)
				s.slots[i] = o
			}
		}
		j, _ = s.find(k)
	}
	s.slots[j] = k
	s.n++
	return true
}

// remove deletes k, which the set holds, shifting back every later entry
// of its probe run that may move into the gap.
func (s *keySet) remove(k uint64) {
	j, _ := s.find(k)
	mask := len(s.slots) - 1
	for i := (j + 1) & mask; s.slots[i] != 0; i = (i + 1) & mask {
		// The entry at i may fill the gap at j when j lies on its probe
		// path, between its home and i.
		if (i-fibHome(s.slots[i], s.shift))&mask >= (i-j)&mask {
			s.slots[j] = s.slots[i]
			j = i
		}
	}
	s.slots[j] = 0
	s.n--
}

// batchSet records the keys the current batch has touched. A slot holds a
// key and the number of the batch that marked it, and a slot an earlier
// batch marked counts as empty, so starting a batch is one increment, not a
// clear. The table grows at a load of 1/2, so it ends sized to the largest
// batch.
type batchSet struct {
	slots []stamped // a power-of-two length
	shift uint      // 64 − log2(len(slots))
	batch uint64    // the current batch's number, from 1
	n     int       // keys the current batch marked
}

type stamped struct{ key, batch uint64 }

func newBatchSet() batchSet { return batchSet{slots: make([]stamped, 8), shift: 61, batch: 1} }

// mark records k for the current batch and reports whether it was not yet
// recorded.
func (s *batchSet) mark(k uint64) bool {
	mask := len(s.slots) - 1
	j := fibHome(k, s.shift)
	for ; s.slots[j].batch == s.batch; j = (j + 1) & mask {
		if s.slots[j].key == k {
			return false
		}
	}
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.slots, s.shift, s.n = make([]stamped, 2*len(old)), s.shift-1, 0
		for _, o := range old {
			if o.batch == s.batch {
				s.mark(o.key)
			}
		}
		return s.mark(k)
	}
	s.slots[j] = stamped{key: k, batch: s.batch}
	s.n++
	return true
}

// next starts a new batch: every key is unmarked.
func (s *batchSet) next() { s.batch, s.n = s.batch+1, 0 }
