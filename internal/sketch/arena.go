package sketch

import "fmt"

// Arena owns the backing store for a fixed number of sketches of one Space
// in a single contiguous []uint64, laid out back to back with a stride of
// SketchWords() words. Machine shards allocate one arena per vertex range
// instead of one heap object per vertex sketch, so updating, merging, and
// encoding sketches touches one flat buffer: no per-sketch pointer chasing
// and no allocation on the update path.
type Arena struct {
	space  *Space
	buf    []uint64
	stride int
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

// Space returns the space whose sketches the arena backs.
func (a *Arena) Space() *Space { return a.space }

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

// VertexAt returns sketch i wrapped as the vertex sketch of a graph on n
// vertices.
func (a *Arena) VertexAt(i, n int) VertexSketch {
	return VertexView(a.At(i), n)
}

// Raw exposes the arena's contiguous backing words for checkpoint codecs:
// writers read it, and loaders fill it with a checkpointed run of Len()
// sketches. Like Sketch.Cells, the slice is the arena's private state: do not
// retain it across arena mutations.
func (a *Arena) Raw() []uint64 { return a.buf }
