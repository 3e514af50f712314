// Package sketchcodec moves sketches over the MPC simulator in batched
// binary form. It is the glue between the flat sketch representation
// (sketch.Arena / sketch.Sketch views, which expose their cells as raw
// words) and the mpc.MessageBatch codec: per-label sketch partials are
// encoded as [label, cells...] frames, merged frame-wise at the internal
// nodes of the aggregation tree, and decoded in place at the coordinator as
// views into the final batch buffer — no per-sketch heap objects, no
// interface-wrapped maps, and no allocation beyond the pooled batch
// buffers. A call moves one window of sketch copies, [lo, hi): the frames,
// every sum along the way and the views it returns hold hi-lo copies, so a
// caller that is about to read few copies pays for few.
package sketchcodec

import (
	"sort"

	"repro/internal/mpc"
	"repro/internal/sketch"
)

// AggregateByLabel tree-combines per-label sums of sketch copies [lo, hi) to
// machine `to` and returns them decoded, keyed by label, as views of that
// copy range. collect runs on every machine and feeds each (label, sketch)
// contribution to add — full sketches, or any view that holds the range;
// contributions to the same label are summed (cell-wise, exactly commutative,
// so the fold order never shows in the result). Labels must be non-negative.
//
// The per-machine accumulation uses the space's scratch pool and the
// in-flight payloads use pooled message batches, so the steady-state sketch
// merge path of the recovery queries allocates only map headers. The
// returned sketches are views into the final batch buffer: they are valid
// until the caller calls release, which hands the buffer back to the pool and
// must be called exactly once, after the last use of the views.
func AggregateByLabel(
	cl *mpc.Cluster,
	to int,
	space *sketch.Space,
	lo, hi int,
	collect func(mm *mpc.Machine, add func(label int, sk sketch.Sketch)),
) (sums map[int]sketch.Sketch, release func()) {
	words := space.WindowWords(lo, hi)
	final := cl.AggregateBatches(to,
		func(mm *mpc.Machine) *mpc.MessageBatch {
			var labels []int
			acc := map[int]sketch.Sketch{}
			collect(mm, func(label int, sk sketch.Sketch) {
				w := sk.Window(lo, hi)
				if cur, ok := acc[label]; ok {
					cur.Add(w)
					return
				}
				acc[label] = space.ScratchCopy(w)
				labels = append(labels, label)
			})
			if len(labels) == 0 {
				return nil
			}
			sort.Ints(labels)
			b := mpc.AcquireMessageBatch()
			for _, l := range labels {
				f := b.Grow(1 + words)
				f[0] = uint64(l)
				copy(f[1:], acc[l].Cells())
				space.Release(acc[l])
			}
			return b
		},
		func(a, b *mpc.MessageBatch) *mpc.MessageBatch {
			return mpc.MergeSortedBatches(a, b, func(dst, src []uint64) {
				space.ViewWindow(dst[1:], lo, hi).Add(space.ViewWindow(src[1:], lo, hi))
			})
		},
	)
	if final == nil {
		return map[int]sketch.Sketch{}, func() {}
	}
	sums = make(map[int]sketch.Sketch, final.Len())
	for f := range final.Frames {
		sums[int(f[0])] = space.ViewWindow(f[1:], lo, hi)
	}
	return sums, final.Release
}
