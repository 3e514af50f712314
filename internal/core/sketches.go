package core

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/sketch"
)

// sketchShard holds the AGM vertex sketches of one machine's vertex range
// [lo, lo+len(slot)). A vertex sketch is a linear function of the vertex's
// live incident edges (Section 3.1), so while those are no more than a
// sketch has words, S = Space.SketchWords(), the shard keeps the edges
// instead: a sorted list of their ids, one word each. An update to such a
// list vertex is an insert into or a delete from its list, and a window of
// its sketch is computed from the list when a search sums it
// (sketch.Sketch.AddIncidence): the same cells, by linearity. A vertex whose
// list would grow past S ids is promoted, once, to a slot of the shard's
// arena built from its list, and is updated as a sketch from then on, one
// ±1 coordinate an edge (sketch.Sketch.Update, the same loop run on one
// id); it is never demoted, since a sketch cannot give its edges back.
// Either way a vertex holds at most S words, so the shards keep the paper's
// Õ(n) total bound, n·S words, at every m, and hold about 2m words on a
// sparse graph.
type sketchShard struct {
	lo, n int
	space *sketch.Space
	// edges[i] is the sorted edge-id list of vertex lo+i while it is a list
	// vertex, and nil once it is promoted.
	edges [][]uint64
	// slot[i] is vertex lo+i's arena slot once it is promoted, -1 before.
	slot  []int32
	arena *sketch.Arena
	// listWords is the sum of the list lengths, kept as they change: Words
	// is read at every round boundary.
	listWords int
	// sums is sumActive's views of the frames it sums into, reused across
	// windows.
	sums []sketch.Sketch
	// refused counts the updates of the batch being applied that a list
	// vertex refused — the deletion of an edge it does not hold, or the
	// insertion of one it holds — and first is the index of the first of
	// them in the batch's insertions-then-deletions order (see refusals).
	refused, first int
}

func newSketchShard(space *sketch.Space, n, lo, hi int) *sketchShard {
	s := &sketchShard{lo: lo, n: n, space: space, edges: make([][]uint64, hi-lo), slot: make([]int32, hi-lo), arena: space.NewArena(0)}
	for i := range s.slot {
		s.slot[i] = -1
	}
	return s
}

// Words implements mpc.Sized: the list words and the promoted sketches.
func (s *sketchShard) Words() int { return s.listWords + s.arena.Words() + 1 }

// sShard returns machine mm's sketch shard, or nil for the coordinator.
func sShard(mm *mpc.Machine) *sketchShard {
	s, _ := mm.Get(slotSketch).(*sketchShard)
	return s
}

// promoted returns the arena view of vertex lo+i, if it is promoted.
func (s *sketchShard) promoted(i int) (sketch.Sketch, bool) {
	if s.slot[i] < 0 {
		return sketch.Sketch{}, false
	}
	return s.arena.At(int(s.slot[i])), true
}

// update applies update k of a batch, op on edge e, to the owned endpoint v:
// to its list, or, once the list would outgrow a sketch, to its arena slot,
// where the edge is one ±1 coordinate of v's incidence vector.
func (s *sketchShard) update(v int, e graph.Edge, op graph.Op, k int) {
	i, id := v-s.lo, e.ID(s.n)
	if s.slot[i] < 0 {
		list := s.edges[i]
		j, held := slices.BinarySearch(list, id)
		switch {
		case held == (op == graph.Insert):
			if s.refused == 0 {
				s.first = k
			}
			s.refused++
			return
		case op == graph.Delete:
			s.edges[i] = slices.Delete(list, j, j+1)
			s.listWords--
			return
		case len(list) < s.space.SketchWords():
			s.edges[i] = slices.Insert(list, j, id)
			s.listWords++
			return
		}
		s.promote(i)
	}
	sign := sketch.EdgeSign(v, e)
	if op == graph.Delete {
		sign = -sign
	}
	s.arena.At(int(s.slot[i])).Update(id, sign)
}

// promote gives vertex lo+i an arena slot built from its list and drops the
// list.
func (s *sketchShard) promote(i int) {
	sl := s.arena.Append()
	s.arena.At(sl).AddIncidence(s.n, s.lo+i, s.edges[i])
	s.slot[i] = int32(sl)
	s.listWords -= len(s.edges[i])
	s.edges[i] = nil
}

// addWindow adds the sketch of vertex lo+i, over dst's copy range, into
// dst: a promoted vertex's arena window, or a list vertex's computed from
// its list (the same cells).
func (s *sketchShard) addWindow(dst sketch.Sketch, i int) {
	if sk, ok := s.promoted(i); ok {
		dst.Add(sk.Window(dst.CopyRange()))
		return
	}
	dst.AddIncidence(s.n, s.lo+i, s.edges[i])
}

// sketchUpdate tells the vertex shards a batch's edge insertions and
// deletions to apply to their sketches: the two lists and the word that
// separates them.
type sketchUpdate struct{ ins, del []graph.Edge }

func (u sketchUpdate) Words() int { return 2*(len(u.ins)+len(u.del)) + 1 }

// applySketchUpdate applies a sketchUpdate to the sketches of the endpoints a
// vertex shard owns (Section 6.1: "updating the sketches").
func applySketchUpdate(mm *mpc.Machine, payload mpc.Sized) {
	vs := vShard(mm)
	if vs == nil {
		return
	}
	sh := sShard(mm)
	apply := func(edges []graph.Edge, op graph.Op, k0 int) {
		for k, e := range edges {
			for _, v := range [2]int{e.U, e.V} {
				if vs.owns(v) {
					sh.update(v, e, op, k0+k)
				}
			}
		}
	}
	u := payload.(sketchUpdate)
	apply(u.ins, graph.Insert, 0)
	apply(u.del, graph.Delete, len(u.ins))
}

// refusals returns the error naming the first update of the batch (ins,
// then del) that a list vertex refused, if any did, and starts the shards'
// counts over. It reads the shards directly, like Checkpoint's walk: no
// collective, no metering.
func (dc *DynamicConnectivity) refusals(ins, del []graph.Edge) error {
	first, refused := 0, 0
	for m := range dc.f.coord {
		sh := sShard(dc.f.cl.Machine(m))
		if sh.refused > 0 && (refused == 0 || sh.first < first) {
			first = sh.first
		}
		refused += sh.refused
		sh.refused = 0
	}
	switch {
	case refused == 0:
		return nil
	case first < len(ins):
		return fmt.Errorf("core: batch inserts the present edge %v (%d endpoint update(s) refused)", ins[first], refused)
	default:
		return fmt.Errorf("core: batch deletes the absent edge %v (%d endpoint update(s) refused)", del[first-len(ins)], refused)
	}
}

// CheckSketches compares every vertex's sketch with a dense twin: the
// sketch loop run over the vertex's incident edges in g, not over the
// shard's list. A list vertex's sketch as a search would sum it, from its
// list, and a promoted vertex's arena slot, which took its updates one edge
// at a time, must equal the twin bit for bit, so the check holds the lists,
// promotion and the update path to g. The loop itself is held to Horner's
// rule by package sketch's FuzzIncidenceWindowMatchesArena. A driver-level
// check for tests and the harness, like SnapshotComponents: no collective,
// no metering.
func (dc *DynamicConnectivity) CheckSketches(g *graph.Graph) error {
	n := dc.f.cfg.N
	twin, got := dc.space.NewSketch(), dc.space.NewSketch()
	var ids []uint64
	for m := range dc.f.coord {
		sh := sShard(dc.f.cl.Machine(m))
		for i := range sh.slot {
			v := sh.lo + i
			ids = ids[:0]
			g.Neighbors(v, func(w int, _ int64) bool {
				ids = append(ids, graph.NewEdge(v, w).ID(n))
				return true
			})
			clear(twin.Cells())
			twin.AddIncidence(n, v, ids)
			sk, ok := sh.promoted(i)
			if !ok {
				sk = got
				clear(sk.Cells())
				sk.AddIncidence(n, v, sh.edges[i])
			}
			if !slices.Equal(sk.Cells(), twin.Cells()) {
				return fmt.Errorf("core: the sketch of vertex %d (promoted %v) differs from the dense sketch of its %d edges", v, sh.slot[i] >= 0, g.Degree(v))
			}
		}
	}
	return nil
}
