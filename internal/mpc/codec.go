package mpc

import (
	"fmt"
	"math/bits"
	"slices"
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
// copies and zero allocations. A batch comes from its cluster's free list
// (Machine.Batch, sized by a hint) and goes back to it on Release; a batch
// whose frames outgrow its buffer moves to a larger one of the same list
// (see freeList). Reset empties a batch and keeps its buffer.
//
// Words (the mpc.Sized accounting) counts the frame contents only: the
// one-word length prefixes are routing bookkeeping — the boundary
// information the model already accounts for as message structure — not
// algorithm payload.
type MessageBatch struct {
	buf    []uint64 // frames, each [len, words...]
	frames int
	words  int // sum of frame lengths, excluding prefixes
	// list is the free list the buffer came from and goes back to; nil for
	// a batch wrapped around a caller's buffer, which Release drops.
	list *freeList
}

// Capacity classes of a free list: class k holds buffers of exactly 1<<k
// words, the smallest is 1<<minClass.
const (
	minClass   = 4
	numClasses = 64
)

// classOf returns the smallest class whose buffers hold words words.
func classOf(words int) int {
	if words <= 1<<minClass {
		return minClass
	}
	return bits.Len(uint(words - 1))
}

// freeList is a cluster's idle message batches, in power-of-two capacity
// classes. A batch is taken from the class that fits its size hint and goes
// back to the class of its capacity on Release, so a three-word answer never
// takes a buffer a large round grew, and a class holds about as many buffers
// as one round used at once. Each class keeps at most perClass idle batches
// (see newFreeList); a batch released past that is dropped.
//
// The executor's workers share the list — a collect, a merge or a landing
// acquires and releases on the worker that runs it — so a mutex guards it;
// at one worker it is never contended. Only allocation goes through the
// list: what a batch holds, and so every frame, word and round, is the same
// whichever buffer carries it.
type freeList struct {
	mu       sync.Mutex
	classes  [numClasses][]*MessageBatch
	perClass int
	idle     int // words of capacity held by the idle batches
}

// newFreeList returns the free list of a cluster of the given machine
// count. A class keeps at most machines·(machines+1) idle batches: what one
// round can hold at once in one class under the codec's discipline — one
// batch per (src, dst) machine pair of a hand-routed Step, plus one merge
// output per machine of an aggregation tree.
func newFreeList(machines int) *freeList {
	return &freeList{perClass: machines * (machines + 1)}
}

// get returns an empty batch with room for at least words words of frames,
// length prefixes included. A nil list (a machine or merge of no cluster)
// allocates a batch of no list.
func (l *freeList) get(words int) *MessageBatch {
	if l == nil {
		return &MessageBatch{buf: make([]uint64, 0, words)}
	}
	k := classOf(words)
	l.mu.Lock()
	if n := len(l.classes[k]); n > 0 {
		b := l.classes[k][n-1]
		l.classes[k][n-1] = nil
		l.classes[k] = l.classes[k][:n-1]
		l.idle -= cap(b.buf)
		l.mu.Unlock()
		return b
	}
	l.mu.Unlock()
	return &MessageBatch{buf: make([]uint64, 0, 1<<k), list: l}
}

// put empties b and keeps it idle in the class of its capacity, unless the
// class is full.
func (l *freeList) put(b *MessageBatch) {
	b.Reset()
	k := bits.Len(uint(cap(b.buf))) - 1
	l.mu.Lock()
	if len(l.classes[k]) < l.perClass {
		l.classes[k] = append(l.classes[k], b)
		l.idle += cap(b.buf)
	}
	l.mu.Unlock()
}

// idleWords returns the capacity, in words, of the batches held idle.
func (l *freeList) idleWords() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.idle
}

// Batch returns an empty batch from the cluster's free list with room for
// at least words words of frames, each frame's length word included: a
// frame of k words takes k+1. Pass the size when it is known (a batch that
// outgrows its buffer moves to a larger one, copying what it holds) and 0
// when it is not. The batch goes back to the list on Release.
func (m *Machine) Batch(words int) *MessageBatch { return m.buffers.get(words) }

// Release hands the batch back to its cluster's free list. The caller must
// be the last holder: frames yielded from the batch alias its buffer and
// become invalid. A batch of no list (MessageBatchFromRaw) is dropped.
func (b *MessageBatch) Release() {
	if b.list != nil {
		b.list.put(b)
	}
}

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

// reserve makes room for n more words.
func (b *MessageBatch) reserve(n int) {
	if len(b.buf)+n > cap(b.buf) {
		b.move(len(b.buf) + n)
	}
}

// move re-homes the frames in a buffer of at least words words: the next
// class of the batch's free list that fits, which hands the old buffer back
// to the list, or a grown slice for a batch of no list.
func (b *MessageBatch) move(words int) {
	if b.list == nil {
		b.buf = slices.Grow(b.buf, words-len(b.buf))
		return
	}
	o := b.list.get(max(words, 2*cap(b.buf)))
	o.buf = append(o.buf, b.buf...)
	b.buf, o.buf = o.buf, b.buf
	b.list.put(o)
}

// Append adds one frame holding the given words.
func (b *MessageBatch) Append(words ...uint64) {
	b.reserve(1 + len(words))
	b.buf = append(b.buf, uint64(len(words)))
	b.buf = append(b.buf, words...)
	b.frames++
	b.words += len(words)
}

// Grow reserves a frame of n zeroed words in place and returns the slice to
// fill; the slice is valid until the next Append/Grow/Reset. Encode-once:
// callers write the frame directly into the batch buffer.
func (b *MessageBatch) Grow(n int) []uint64 {
	b.reserve(1 + n)
	start := len(b.buf) + 1
	b.buf = b.buf[:start+n]
	b.buf[start-1] = uint64(n)
	clear(b.buf[start:])
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

// MessageBatchFromRaw wraps a length-prefixed frame buffer as a batch,
// validating the frame structure first: unlike the routing hot path — where
// a corrupt frame is a programming error and panics — this entry point is
// for decoding external input (snapshot files), so a malformed prefix is
// returned as an error. The batch belongs to no free list: it aliases buf,
// and Release drops it.
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
