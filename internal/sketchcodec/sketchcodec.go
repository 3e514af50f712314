// Package sketchcodec moves sketches over the MPC simulator in batched
// binary form. It is the glue between the flat sketch representation
// (sketch.Arena / sketch.Sketch views, which expose their cells as raw
// words) and the mpc.MessageBatch codec: per-label sketch partials are
// encoded as [label, cells...] frames, merged frame-wise at the internal
// nodes of the aggregation tree, and decoded in place at the coordinator as
// views into the final batch buffer — no per-sketch heap objects, no
// interface-wrapped maps, and no allocation beyond the batch buffers, which
// come from the cluster's free list sized for their frames
// (mpc.Machine.Batch) and go back to it. A call moves one window of sketch
// copies, [lo, hi): the frames, every sum along the way and the views it
// returns hold hi-lo copies, so a caller that is about to read few copies
// pays for few.
//
// AggregateByLabel is the whole aggregation. Its three steps — Sums (the
// per-machine accumulation), Sums.Put (the encode) and Window.Merge (the
// frame combine) — are exported for aggregations whose frames carry more
// than a sum, which place the cells after words of their own.
package sketchcodec

import (
	"slices"

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

// Sums accumulates one machine's per-key sums of a window in the space's
// pooled scratch: one Space.Scratch per key, no allocation per sketch added.
type Sums struct {
	w    Window
	keys []uint64
	acc  map[uint64]sketch.Sketch
}

// NewSums starts an empty accumulation of the window.
func (w Window) NewSums() *Sums { return &Sums{w: w, acc: map[uint64]sketch.Sketch{}} }

// Sum returns key's partial, a view of the window to add into: zero on the
// key's first use.
func (s *Sums) Sum(key uint64) sketch.Sketch {
	if cur, ok := s.acc[key]; ok {
		return cur
	}
	cur := s.w.Space.Scratch(s.w.Lo, s.w.Hi)
	s.acc[key] = cur
	s.keys = append(s.keys, key)
	return cur
}

// Add sums the window of sk, a full sketch or any view that holds the window,
// into key's partial.
func (s *Sums) Add(key uint64, sk sketch.Sketch) { s.Sum(key).Add(sk.Window(s.w.Lo, s.w.Hi)) }

// Len returns the number of keys added.
func (s *Sums) Len() int { return len(s.keys) }

// Keys returns the keys added, ascending.
func (s *Sums) Keys() []uint64 {
	slices.Sort(s.keys)
	return s.keys
}

// Put writes key's sum into cells (Words() words, typically the tail of a
// frame) and hands its scratch back to the pool; each key is put once, and
// must have been added.
func (s *Sums) Put(key uint64, cells []uint64) {
	sk := s.acc[key]
	copy(cells, sk.Cells())
	s.w.Space.Release(sk)
}

// AggregateByLabel tree-combines per-label sums of sketch copies [lo, hi) to
// machine `to` and returns them decoded, keyed by label, as views of that
// copy range. collect runs on every machine and adds each label's
// contributions into sums, keyed by the label — Sums.Add of a full sketch or
// any view that holds the range, or anything added into Sums.Sum; the sums of
// one label are summed (cell-wise, exactly commutative, so the fold order
// never shows in the result). Labels must be non-negative.
//
// The per-machine accumulation uses the space's scratch pool. Each machine's
// contribution is a batch from the cluster's free list sized for its frames
// (labels × (2 + window words)), and every merge output one sized for its
// operands, so the steady-state sketch merge path of the recovery queries
// allocates only map headers and no buffer is larger than its round needs.
// The returned sketches are views into the final batch buffer: they are
// valid until the caller calls release, which hands the buffer back to the
// cluster's free list and must be called exactly once, after the last use of
// the views.
func AggregateByLabel(
	cl *mpc.Cluster,
	to int,
	space *sketch.Space,
	lo, hi int,
	collect func(mm *mpc.Machine, sums *Sums),
) (sums map[int]sketch.Sketch, release func()) {
	w := Window{Space: space, Lo: lo, Hi: hi}
	words := w.Words()
	final := cl.AggregateBatches(to,
		func(mm *mpc.Machine) *mpc.MessageBatch {
			acc := w.NewSums()
			collect(mm, acc)
			if len(acc.keys) == 0 {
				return nil
			}
			b := mm.Batch(len(acc.keys) * (2 + words))
			for _, k := range acc.Keys() {
				f := b.Grow(1 + words)
				f[0] = k
				acc.Put(k, f[1:])
			}
			return b
		},
		func(a, b *mpc.MessageBatch) *mpc.MessageBatch {
			return mpc.MergeSortedBatches(a, b, func(dst, src []uint64) { w.Merge(dst[1:], src[1:]) })
		},
	)
	if final == nil {
		return map[int]sketch.Sketch{}, func() {}
	}
	sums = make(map[int]sketch.Sketch, final.Len())
	for f := range final.Frames {
		sums[int(f[0])] = w.View(f[1:])
	}
	return sums, final.Release
}
