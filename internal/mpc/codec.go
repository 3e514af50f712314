package mpc

import (
	"fmt"
	"sync"
)

// MessageBatch is the batched binary message codec of the simulator: many
// small word-encoded messages ("frames") packed into one contiguous
// length-prefixed []uint64 buffer. Algorithms that previously emitted one
// tiny struct payload per edge, proposal, or (vertex, fragment) pair to the
// same destination now encode each as a frame and send a single batch per
// (src, dst) machine pair per round — the packed-message discipline of the
// constant-round congested-clique MST algorithms (Jurdziński–Nowicki;
// Nowicki) — so the executor routes one buffer instead of N small
// allocations.
//
// Encoding is append-only (Append or Grow) and decoding is in place: Frames
// yields sub-slices of the buffer, so a receiver reads frames with zero
// copies and zero allocations. Buffers are reusable via Reset and poolable
// via AcquireMessageBatch/Release.
//
// Words (the mpc.Sized accounting) counts the frame contents only: the
// one-word length prefixes are routing bookkeeping — the boundary
// information the model already accounts for as message structure — not
// algorithm payload.
type MessageBatch struct {
	buf    []uint64 // frames, each [len, words...]
	frames int
	words  int // sum of frame lengths, excluding prefixes
}

// batchPool recycles batch buffers across rounds; steady-state encoding
// allocates nothing once buffer capacities have converged.
var batchPool = sync.Pool{New: func() any { return new(MessageBatch) }}

// AcquireMessageBatch returns an empty batch from the package pool.
func AcquireMessageBatch() *MessageBatch {
	b := batchPool.Get().(*MessageBatch)
	b.Reset()
	return b
}

// Release hands the batch back to the pool. The caller must be the last
// holder: frames yielded from the batch alias its buffer and become invalid.
func (b *MessageBatch) Release() { batchPool.Put(b) }

// Reset empties the batch, keeping the buffer capacity for reuse.
func (b *MessageBatch) Reset() {
	b.buf = b.buf[:0]
	b.frames = 0
	b.words = 0
}

// Len returns the number of frames in the batch.
func (b *MessageBatch) Len() int { return b.frames }

// Words implements Sized: the total content words across frames.
func (b *MessageBatch) Words() int { return b.words }

// Append adds one frame holding the given words.
func (b *MessageBatch) Append(words ...uint64) {
	b.buf = append(b.buf, uint64(len(words)))
	b.buf = append(b.buf, words...)
	b.frames++
	b.words += len(words)
}

// Grow reserves a frame of n zeroed words in place and returns the slice to
// fill; the slice is valid until the next Append/Grow/Reset. Encode-once:
// callers write the frame directly into the batch buffer.
func (b *MessageBatch) Grow(n int) []uint64 {
	b.buf = append(b.buf, uint64(n))
	start := len(b.buf)
	if cap(b.buf)-start >= n {
		b.buf = b.buf[: start+n : cap(b.buf)]
		clear(b.buf[start:])
	} else {
		b.buf = append(b.buf, make([]uint64, n)...)
	}
	b.frames++
	b.words += n
	return b.buf[start : start+n : start+n]
}

// Frames iterates the frames in encoding order, yielding each frame's
// content words as a sub-slice of the batch buffer (decode in place; treat
// as read-only unless the receiver owns the batch). It is a range-over-func
// iterator: `for frame := range b.Frames { ... }`.
func (b *MessageBatch) Frames(yield func(frame []uint64) bool) {
	c := b.Cursor()
	for f, ok := c.Next(); ok; f, ok = c.Next() {
		if !yield(f) {
			return
		}
	}
}

// Raw exposes the batch's underlying length-prefixed frame buffer for
// codecs that persist batches verbatim (the snapshot container stores its
// sections as one frame each). The slice is valid until the next
// Append/Grow/Reset and must be treated as read-only.
func (b *MessageBatch) Raw() []uint64 { return b.buf }

// MessageBatchFromRaw wraps a length-prefixed frame buffer (as returned by
// Raw) as a batch, validating the frame structure first: unlike the
// routing hot path — where a corrupt frame is a programming error and
// panics — this entry point is for decoding external input (snapshot
// files), so a malformed prefix is returned as an error.
func MessageBatchFromRaw(buf []uint64) (*MessageBatch, error) {
	frames, words := 0, 0
	for off := 0; off < len(buf); {
		n := buf[off]
		if n > uint64(len(buf)-off-1) {
			return nil, fmt.Errorf("mpc: frame at word %d: length %d overruns buffer of %d words", off, n, len(buf))
		}
		frames++
		words += int(n)
		off += 1 + int(n)
	}
	return &MessageBatch{buf: buf, frames: frames, words: words}, nil
}

// BatchCursor walks a batch's frames one at a time; it supports lock-step
// iteration over several batches (as the sketch merge-join needs).
type BatchCursor struct {
	b   *MessageBatch
	off int
}

// Cursor returns a cursor positioned before the first frame.
func (b *MessageBatch) Cursor() BatchCursor { return BatchCursor{b: b} }

// Next returns the next frame (a sub-slice of the batch buffer) and whether
// one was available.
func (c *BatchCursor) Next() ([]uint64, bool) {
	buf := c.b.buf
	if c.off >= len(buf) {
		return nil, false
	}
	n := int(buf[c.off])
	start := c.off + 1
	if start+n > len(buf) {
		panic(fmt.Sprintf("mpc: corrupt batch frame at word %d: length %d overruns buffer %d", c.off, n, len(buf)))
	}
	c.off = start + n
	return buf[start : start+n : start+n], true
}
