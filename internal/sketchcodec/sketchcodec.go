// Package sketchcodec moves sketches over the MPC simulator in batched
// binary form. It is the glue between the flat sketch representation
// (sketch.Arena / sketch.Sketch views, which expose their cells as raw
// words) and the mpc.MessageBatch codec: per-key sketch sums travel as
// [key, cells...] frames, merged frame-wise at the internal nodes of the
// aggregation tree, and decoded in place at the coordinator as views into
// the final batch buffer. A call moves one window of sketch copies,
// [lo, hi): the frames, every sum along the way and the views it returns
// hold hi-lo copies, so a caller that is about to read few copies pays for
// few.
//
// A sum is written into the frame that carries it. A machine first lays out
// its frames (Window.Layout): one batch from its cluster's free list, sized
// for them (mpc.Machine.Batch), the frames in key order with zero cells. Only
// then does it take views of the cells and add every contribution's window
// into its key's frame, with sketch.Sketch.Add or
// sketch.Sketch.AddIncidence. So a sum is written once, where it travels,
// and nothing per sketch or per key lives on the heap; the batches go back
// to the free list.
//
// AggregateByLabel is the whole aggregation for frames that carry only a
// sum. Frames that carry more, which place the cells after words of their
// own, are laid out by the same Layout and combined with Window.Merge.
package sketchcodec

import (
	"repro/internal/mpc"
	"repro/internal/sketch"
)

// Window is the copy range [Lo, Hi) of one space's sketches that a frame
// carries.
type Window struct {
	Space  *sketch.Space
	Lo, Hi int
}

// Words is the size of the window's cells in a frame.
func (w Window) Words() int { return w.Space.WindowWords(w.Lo, w.Hi) }

// View wraps Words() frame words as the window's sketch.
func (w Window) View(cells []uint64) sketch.Sketch { return w.Space.ViewWindow(cells, w.Lo, w.Hi) }

// Merge adds the src cells into the dst cells: the frame combine of a sum.
func (w Window) Merge(dst, src []uint64) { w.View(dst).Add(w.View(src)) }

// Layout lays out one machine's frames of window sums in one batch from its
// cluster's free list, sized for them, and returns the batch and the view
// of every frame's cells to add into. frame(i), for i < n, gives frame i's
// head — the key first, the keys ascending — and whether the window's
// cells, zero, follow it; a nil head lays out no frame. sums[i] is the view
// of frame i's cells, the zero Sketch where none follow; sums reuses the
// backing array of the slice passed in.
//
// The views are taken once the last frame is laid out: a batch whose frames
// outgrow its buffer moves them to a larger one, and a view taken before
// the move would add into the buffer left behind.
func (w Window) Layout(mm *mpc.Machine, n int, frame func(i int) (head []uint64, cells bool), sums []sketch.Sketch) (*mpc.MessageBatch, []sketch.Sketch) {
	words := func(head []uint64, cells bool) int {
		if cells {
			return len(head) + w.Words()
		}
		return len(head)
	}
	size := 0
	for i := range n {
		if head, cells := frame(i); head != nil {
			size += 1 + words(head, cells)
		}
	}
	b := mm.Batch(size)
	for i := range n {
		if head, cells := frame(i); head != nil {
			copy(b.Grow(words(head, cells)), head)
		}
	}
	sums = sums[:0]
	c := b.Cursor()
	for i := range n {
		var sk sketch.Sketch
		if head, cells := frame(i); head != nil {
			f, _ := c.Next()
			if cells {
				sk = w.View(f[len(head):])
			}
		}
		sums = append(sums, sk)
	}
	return b, sums
}

// AggregateByLabel tree-combines the machines' [key, cells...] frames of
// window w to machine `to` and returns the sums decoded, keyed by
// label(key), as views of the window. collect runs on every machine and
// returns its frames, laid out by w.Layout and summed into, or nil; the
// frames of one key are summed (cell-wise, exactly commutative, so the fold
// order never shows in the result). label must give distinct keys distinct
// labels.
//
// Every merge output comes from the cluster's free list sized for its
// operands, so no buffer is larger than its round needs. The returned
// sketches are views into the final batch buffer: they are valid until the
// caller calls release, which hands the buffer back to the cluster's free
// list and must be called exactly once, after the last use of the views.
func AggregateByLabel(
	cl *mpc.Cluster,
	to int,
	w Window,
	collect func(mm *mpc.Machine) *mpc.MessageBatch,
	label func(key uint64) int,
) (sums map[int]sketch.Sketch, release func()) {
	final := cl.AggregateBatches(to, collect, func(a, b *mpc.MessageBatch) *mpc.MessageBatch {
		return mpc.MergeSortedBatches(a, b, func(dst, src []uint64) { w.Merge(dst[1:], src[1:]) })
	})
	if final == nil {
		return map[int]sketch.Sketch{}, func() {}
	}
	sums = make(map[int]sketch.Sketch, final.Len())
	for f := range final.Frames {
		sums[label(f[0])] = w.View(f[1:])
	}
	return sums, final.Release
}
