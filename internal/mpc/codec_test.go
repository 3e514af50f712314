package mpc

import (
	"reflect"
	"testing"
)

func collectFrames(b *MessageBatch) [][]uint64 {
	var out [][]uint64
	for f := range b.Frames {
		out = append(out, append([]uint64(nil), f...))
	}
	return out
}

func TestMessageBatchRoundTrip(t *testing.T) {
	b := AcquireMessageBatch()
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
	b := AcquireMessageBatch()
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
	b := AcquireMessageBatch()
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
	a, b := AcquireMessageBatch(), AcquireMessageBatch()
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

func TestMessageBatchPool(t *testing.T) {
	b := AcquireMessageBatch()
	b.Append(5)
	b.Release()
	c := AcquireMessageBatch()
	if c.Len() != 0 || c.Words() != 0 {
		t.Fatalf("acquired batch not reset: Len=%d Words=%d", c.Len(), c.Words())
	}
	c.Release()
}

func TestMessageBatchCorruptFramePanics(t *testing.T) {
	b := AcquireMessageBatch()
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
