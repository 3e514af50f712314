package sketch_test

import (
	"testing"

	"repro/internal/hash"
	"repro/internal/sketch"
)

// The allocation-budget tests lock in the zero-allocation contract of the
// flat arena representation: the sketch hot path (Update, Add, Query) must
// not allocate at steady state. They fail
// with the measured allocation count so a regression is immediately
// quantified.

func allocSpace() (*sketch.Space, *sketch.Arena) {
	space := sketch.NewSpace(1<<10, 6, hash.NewPRG(99))
	return space, space.NewArena(16)
}

func TestAllocsSketchUpdate(t *testing.T) {
	space, arena := allocSpace()
	sk := arena.At(3)
	idx := uint64(517)
	if n := testing.AllocsPerRun(200, func() {
		sk.Update(idx, +1)
		sk.Update(idx, -1)
	}); n != 0 {
		t.Fatalf("Sketch.Update allocates %.1f allocs/op on the steady state, want 0", n)
	}
	_ = space
}

func TestAllocsSketchAdd(t *testing.T) {
	space, arena := allocSpace()
	a, b := arena.At(0), arena.At(1)
	b.Update(12, +1)
	if n := testing.AllocsPerRun(200, func() {
		a.Add(b)
	}); n != 0 {
		t.Fatalf("Sketch.Add allocates %.1f allocs/op on the steady state, want 0", n)
	}
	_ = space
}

func TestAllocsSketchQuery(t *testing.T) {
	_, arena := allocSpace()
	sk := arena.At(5)
	sk.Update(7, +1)
	sk.Update(400, +1)
	if n := testing.AllocsPerRun(200, func() {
		for c := 0; c < 6; c++ {
			sk.Query(c)
		}
	}); n != 0 {
		t.Fatalf("Sketch.Query allocates %.1f allocs/op on the steady state, want 0", n)
	}
}
