package sketch

import "fmt"

// Arena owns the backing store for a number of sketches of one Space in a
// single contiguous []uint64, laid out back to back with a stride of
// SketchWords() words. A machine shard allocates one arena for its sketches
// instead of one heap object per vertex sketch, so updating, merging, and
// encoding sketches touches one flat buffer: no per-sketch pointer chasing
// and no allocation on the update path. An arena may also grow a sketch at a
// time (Append), for a shard that gives a vertex a sketch only once its
// edges outgrow one.
type Arena struct {
	space  *Space
	buf    []uint64
	stride int
}

// Append adds a zero sketch at the end of the arena and returns its index.
// The backing may move, so views taken before do not alias the arena any
// more.
func (a *Arena) Append() int {
	a.buf = append(a.buf, make([]uint64, a.stride)...)
	return a.Len() - 1
}

// NewArena returns an arena backing count zero sketches.
func (s *Space) NewArena(count int) *Arena {
	if count < 0 {
		panic(fmt.Sprintf("sketch: arena of %d sketches", count))
	}
	return &Arena{
		space:  s,
		buf:    make([]uint64, count*s.stride),
		stride: s.stride,
	}
}

// Len returns the number of sketches the arena backs.
func (a *Arena) Len() int {
	if a.stride == 0 {
		return 0
	}
	return len(a.buf) / a.stride
}

// Words returns the arena's total footprint in machine words; it equals
// Len() * SketchWords(), the same accounting as Len() individual sketches.
func (a *Arena) Words() int { return len(a.buf) }

// At returns the view of sketch i. The view is full-sliced so appends
// through it cannot spill into the neighboring sketch.
func (a *Arena) At(i int) Sketch {
	off := i * a.stride
	return Sketch{space: a.space, cells: a.buf[off : off+a.stride : off+a.stride]}
}
