package mpc

import (
	"reflect"
	"testing"
)

// testMachine returns machine 0 of a fresh one-machine cluster, whose free
// list its batches come from.
func testMachine() *Machine { return NewCluster(Config{Machines: 1, LocalMemory: 64}).Machine(0) }

func collectFrames(b *MessageBatch) [][]uint64 {
	var out [][]uint64
	for f := range b.Frames {
		out = append(out, append([]uint64(nil), f...))
	}
	return out
}

func TestMessageBatchRoundTrip(t *testing.T) {
	b := testMachine().Batch(0)
	b.Append(1, 2, 3)
	b.Append() // empty frame is legal
	copy(b.Grow(2), []uint64{7, 9})
	want := [][]uint64{{1, 2, 3}, nil, {7, 9}}
	if got := collectFrames(b); !reflect.DeepEqual(got, want) {
		t.Fatalf("frames = %v, want %v", got, want)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if b.Words() != 5 {
		t.Fatalf("Words = %d, want 5 (content only, prefixes excluded)", b.Words())
	}
}

func TestMessageBatchGrowInPlace(t *testing.T) {
	b := testMachine().Batch(0)
	f := b.Grow(4)
	for i := range f {
		f[i] = uint64(i + 10)
	}
	b.Append(99)
	got := collectFrames(b)
	want := [][]uint64{{10, 11, 12, 13}, {99}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frames = %v, want %v", got, want)
	}
	// Grow must hand out zeroed words even when reusing capacity.
	b.Reset()
	if f := b.Grow(4); f[0]|f[1]|f[2]|f[3] != 0 {
		t.Fatalf("Grow reused dirty words: %v", f)
	}
}

func TestMessageBatchResetReusesCapacity(t *testing.T) {
	b := testMachine().Batch(0)
	for i := 0; i < 16; i++ {
		b.Append(uint64(i), uint64(i))
	}
	b.Reset()
	if b.Len() != 0 || b.Words() != 0 {
		t.Fatalf("Reset left Len=%d Words=%d", b.Len(), b.Words())
	}
	if n := testing.AllocsPerRun(50, func() {
		b.Reset()
		for i := 0; i < 16; i++ {
			b.Append(uint64(i), uint64(i))
		}
		for f := range b.Frames {
			_ = f[0]
		}
	}); n != 0 {
		t.Fatalf("steady-state encode/decode allocates %.1f allocs/op, want 0", n)
	}
}

func TestMessageBatchCursorLockStep(t *testing.T) {
	m := testMachine()
	a, b := m.Batch(0), m.Batch(0)
	a.Append(1)
	a.Append(3)
	b.Append(2)
	ca, cb := a.Cursor(), b.Cursor()
	fa, oka := ca.Next()
	fb, okb := cb.Next()
	if !oka || !okb || fa[0] != 1 || fb[0] != 2 {
		t.Fatalf("first frames (%v,%v) (%v,%v)", fa, oka, fb, okb)
	}
	fa, oka = ca.Next()
	_, okb = cb.Next()
	if !oka || fa[0] != 3 || okb {
		t.Fatalf("second frames diverged: (%v,%v) okb=%v", fa, oka, okb)
	}
	if _, oka = ca.Next(); oka {
		t.Fatal("cursor did not terminate")
	}
}

// TestMessageBatchPool: a released batch goes back to its cluster's free
// list, empty, and the next batch of its class is that one.
func TestMessageBatchPool(t *testing.T) {
	m := testMachine()
	b := m.Batch(0)
	b.Append(5)
	b.Release()
	if got := m.buffers.idleWords(); got != 1<<minClass {
		t.Fatalf("idle words after one release = %d, want %d", got, 1<<minClass)
	}
	c := m.Batch(0)
	if c != b {
		t.Fatal("the class's idle batch was not reused")
	}
	if c.Len() != 0 || c.Words() != 0 {
		t.Fatalf("acquired batch not reset: Len=%d Words=%d", c.Len(), c.Words())
	}
	if got := m.buffers.idleWords(); got != 0 {
		t.Fatalf("idle words with every batch in use = %d, want 0", got)
	}
	c.Release()
}

func TestMessageBatchCorruptFramePanics(t *testing.T) {
	b := testMachine().Batch(0)
	b.Append(1, 2)
	b.buf[0] = 99 // lie about the frame length
	defer func() {
		if recover() == nil {
			t.Fatal("corrupt frame did not panic")
		}
	}()
	for range b.Frames {
	}
}

// idleIn returns the number of idle batches in class k of c's free list.
func idleIn(c *Cluster, k int) int {
	c.buffers.mu.Lock()
	defer c.buffers.mu.Unlock()
	return len(c.buffers.classes[k])
}

// TestFreeListSizesToTheRound: after one large aggregation, small Asks take
// buffers of the small class, never the large ones, and what the list holds
// idle neither grows nor passes a class's bound; a round that releases more
// batches of one class than the bound keeps only the bound.
func TestFreeListSizesToTheRound(t *testing.T) {
	const M, frames = 5, 1 << 10
	c := NewCluster(Config{Machines: M, LocalMemory: 1 << 16})
	// Every machine contributes the same keys, so the sum is frames frames
	// of M(M-1)/2 each; the contributions grow from the smallest class.
	res := c.AggregateBatches(0, func(m *Machine) *MessageBatch {
		b := m.Batch(0)
		for k := 0; k < frames; k++ {
			b.Append(uint64(k), uint64(m.ID))
		}
		return b
	}, SumValues)
	n := 0
	for f := range res.Frames {
		if f[0] != uint64(n) || f[1] != M*(M-1)/2 {
			t.Fatalf("frame %d = %v, want [%d %d]", n, f, n, M*(M-1)/2)
		}
		n++
	}
	if n != frames {
		t.Fatalf("%d frames, want %d", n, frames)
	}
	res.Release()
	large := classOf(3 * frames)
	if idleIn(c, large) == 0 {
		t.Fatalf("no idle batch of class %d after the large aggregation", large)
	}
	largeIdle := 0
	for k := large; k < numClasses; k++ {
		largeIdle += idleIn(c, k)
	}
	var steady int
	for i := 0; i < 64; i++ {
		got := c.Ask(0, U64s{uint64(i)}, func(m *Machine, q Sized) *MessageBatch {
			b := m.Batch(3)
			if cap(b.buf) != 1<<minClass {
				t.Errorf("a 3-word answer got a buffer of %d words", cap(b.buf))
			}
			b.Append(0, q.(U64s)[0])
			return b
		}, SumValues)
		if cap(got.buf) >= 1<<large {
			t.Errorf("a small Ask's result holds a buffer of %d words", cap(got.buf))
		}
		got.Release()
		if i == 0 {
			steady = c.IdleBufferWords()
		} else if idle := c.IdleBufferWords(); idle != steady {
			t.Fatalf("Ask %d: idle words %d, %d after the first Ask", i, idle, steady)
		}
	}
	n = 0
	for k := large; k < numClasses; k++ {
		n += idleIn(c, k)
	}
	if n != largeIdle {
		t.Errorf("idle batches of the large classes %d, %d before the small Asks", n, largeIdle)
	}
	// A hand-routed round that sends three batches of one class per (src,
	// dst) pair releases more than the bound; the class keeps the bound and
	// the idle words count only what it keeps.
	bound := c.buffers.perClass
	c.Step(func(m *Machine, _ []Message) []Message {
		var out []Message
		for range 3 {
			for to := range M {
				b := m.Batch(1 << 8)
				b.Append(uint64(to))
				out = append(out, Message{To: to, Payload: b})
			}
		}
		return out
	})
	before := c.IdleBufferWords() - idleIn(c, 8)<<8
	c.Land(func(_ *Machine, inbox []Message) {
		for _, msg := range inbox {
			msg.Payload.(*MessageBatch).Release()
		}
	})
	if got := idleIn(c, 8); got != bound {
		t.Errorf("class 8 keeps %d idle batches after releasing %d, want the bound %d", got, 3*M*M, bound)
	}
	if got, want := c.IdleBufferWords(), before+bound<<8; got != want {
		t.Errorf("idle words %d, want %d", got, want)
	}
	// A batch of no list is dropped on release.
	raw, err := MessageBatchFromRaw([]uint64{1, 7})
	if err != nil {
		t.Fatal(err)
	}
	idle := c.IdleBufferWords()
	raw.Release()
	if c.IdleBufferWords() != idle {
		t.Error("releasing a batch of no list changed the idle words")
	}
}

// TestMessageBatchMovesUpAClass: a batch that outgrows its buffer moves to
// the next class that fits, keeps its frames, and hands the old buffer back.
func TestMessageBatchMovesUpAClass(t *testing.T) {
	m := testMachine()
	b := m.Batch(0)
	for k := range 6 {
		b.Append(uint64(k), uint64(k))
	}
	if cap(b.buf) != 1<<(minClass+1) {
		t.Fatalf("a batch of 18 words holds %d", cap(b.buf))
	}
	if got := m.buffers.idleWords(); got != 1<<minClass {
		t.Fatalf("idle words %d, want the old buffer's %d", got, 1<<minClass)
	}
	for i, f := range collectFrames(b) {
		if f[0] != uint64(i) || f[1] != uint64(i) {
			t.Fatalf("frame %d = %v after the move", i, f)
		}
	}
	copy(b.Grow(100), []uint64{9})
	if cap(b.buf) != 1<<7 || b.Len() != 7 || b.Words() != 112 {
		t.Fatalf("after a 100-word frame: cap %d, Len %d, Words %d", cap(b.buf), b.Len(), b.Words())
	}
}
