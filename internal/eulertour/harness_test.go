package eulertour

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
)

// host is a sequential stand-in for the distributed shards: it keeps every
// record in one map and answers the planner's stats queries by scanning, the
// same computation the machines perform locally in the MPC implementation.
type host struct {
	n      int
	recs   map[graph.Edge]*Record
	nextID TourID
	split  *SplitResult // the plan of the last deleteBatch
	// onRelabel, if set, sees every relabel batch with the records it is
	// about to rewrite, before relabel rewrites them.
	onRelabel func(recs []Record, rels []Relabel)
	// onJoin, if set, sees every join plan before it is applied, with the
	// first tour id it allocated.
	onJoin func(edges []graph.Edge, res *JoinResult, first TourID)
}

func newHost(n int) *host {
	return &host{n: n, recs: make(map[graph.Edge]*Record), nextID: 1}
}

func (h *host) next() TourID {
	id := h.nextID
	h.nextID++
	return id
}

// compOf returns the component key (minimum vertex id) of v under the
// current record set.
func (h *host) components() ([]int, *oracle.UnionFind) {
	uf := oracle.NewUnionFind(h.n)
	for e := range h.recs {
		uf.Union(e.U, e.V)
	}
	minID := make(map[int]int)
	for v := 0; v < h.n; v++ {
		r := uf.Find(v)
		if cur, ok := minID[r]; !ok || v < cur {
			minID[r] = v
		}
	}
	labels := make([]int, h.n)
	for v := 0; v < h.n; v++ {
		labels[v] = minID[uf.Find(v)]
	}
	return labels, uf
}

func (h *host) stats(v int) VertexStats {
	st := VertexStats{Tour: NoTour}
	for _, r := range h.recs {
		if !r.E.Has(v) {
			continue
		}
		ps := r.PositionsOf(v)
		if st.Tour == NoTour {
			st.Tour = r.Tour
			st.F, st.L = ps[0], ps[1]
			continue
		}
		if r.Tour != st.Tour {
			panic(fmt.Sprintf("vertex %d on two tours", v))
		}
		if ps[0] < st.F {
			st.F = ps[0]
		}
		if ps[1] > st.L {
			st.L = ps[1]
		}
	}
	return st
}

func (h *host) minAbove(v int, cut Pos) Pos {
	best := Pos(0)
	for _, r := range h.recs {
		if !r.E.Has(v) {
			continue
		}
		for _, p := range r.PositionsOf(v) {
			if p > cut && (best == 0 || p < best) {
				best = p
			}
		}
	}
	return best
}

func (h *host) tourOf(comp int, labels []int) (TourID, int) {
	size := 0
	tour := NoTour
	for v := 0; v < h.n; v++ {
		if labels[v] == comp {
			size++
		}
	}
	for _, r := range h.recs {
		if labels[r.E.U] == comp {
			tour = r.Tour
			break
		}
	}
	return tour, size
}

// insertBatch runs the full join flow for a set of edges that connect
// distinct components (a forest over components).
func (h *host) insertBatch(edges []graph.Edge) error {
	first := h.nextID
	_, res, err := h.planJoin(edges, false, h.next)
	if err != nil {
		return err
	}
	if h.onJoin != nil {
		h.onJoin(edges, res, first)
	}
	if err := h.relabel(res.Relabels); err != nil {
		return err
	}
	for _, nr := range res.NewRecords {
		rec := nr
		if _, dup := h.recs[rec.E]; dup {
			return fmt.Errorf("duplicate record %v", rec.E)
		}
		h.recs[rec.E] = &rec
	}
	return nil
}

// planJoin plans the join of edges against the current records. The
// planner's CutQueries are answered by scanning; with every set, so is the
// min-above-cut of every host of an attachment in a rotated component, the
// ones the planner reads off the stats included.
func (h *host) planJoin(edges []graph.Edge, every bool, next func() TourID) (*JoinPlanner, *JoinResult, error) {
	labels, _ := h.components()
	compSet := make(map[int]bool)
	for _, e := range edges {
		compSet[labels[e.U]] = true
		compSet[labels[e.V]] = true
	}
	var comps []CompInfo
	for c := range compSet {
		tour, size := h.tourOf(c, labels)
		comps = append(comps, CompInfo{Key: c, Tour: tour, Size: size})
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].Key < comps[j].Key })
	pl, err := NewJoinPlanner(comps, edges, func(v int) int { return labels[v] })
	if err != nil {
		return nil, nil, err
	}
	stats := make(map[int]VertexStats)
	for _, v := range pl.Terminals() {
		stats[v] = h.stats(v)
	}
	if err := pl.SetStats(stats); err != nil {
		return nil, nil, err
	}
	minAb := make(map[int]Pos)
	for _, q := range pl.CutQueries() {
		minAb[q.Vertex] = h.minAbove(q.Vertex, q.Cut)
	}
	if every {
		for child, par := range pl.parent {
			if cut, rotated := pl.cuts[par]; rotated {
				v := pl.hostVertex(child)
				minAb[v] = h.minAbove(v, cut)
			}
		}
	}
	pl.SetMinAbove(minAb)
	res, err := pl.Plan(next)
	return pl, res, err
}

// deleteBatch runs the full split flow for a set of existing tree edges.
func (h *host) deleteBatch(edges []graph.Edge) error {
	tourLens := make(map[TourID]int)
	counts := make(map[TourID]int)
	for _, r := range h.recs {
		counts[r.Tour]++
	}
	var deleted []Record
	for _, e := range edges {
		r, ok := h.recs[e.Canonical()]
		if !ok {
			return fmt.Errorf("deleting unknown edge %v", e)
		}
		deleted = append(deleted, *r)
		tourLens[r.Tour] = 4 * counts[r.Tour]
	}
	res, err := PlanSplit(tourLens, deleted, h.next)
	if err != nil {
		return err
	}
	h.split = res
	for _, e := range edges {
		delete(h.recs, e.Canonical())
	}
	return h.relabel(res.Relabels)
}

// relabel applies a batch of descriptors to every record with one applier,
// the way a machine applies them to its shard.
func (h *host) relabel(rels []Relabel) error {
	if h.onRelabel != nil {
		recs := make([]Record, 0, len(h.recs))
		for _, r := range h.recs {
			recs = append(recs, *r)
		}
		h.onRelabel(recs, rels)
	}
	a := NewRelabelSet(rels).Applier()
	for _, r := range h.recs {
		if err := a.ApplyToRecord(r); err != nil {
			return err
		}
	}
	return nil
}

// checkTours reconstructs every tour from the records and validates it as a
// closed Euler tour of the corresponding tree.
func (h *host) checkTours(t *testing.T) {
	t.Helper()
	type dartInfo struct{ tail, head int }
	byTour := make(map[TourID][]*Record)
	for _, r := range h.recs {
		if err := r.Validate(); err != nil {
			t.Fatalf("record invariant: %v", err)
		}
		byTour[r.Tour] = append(byTour[r.Tour], r)
	}
	for tour, recs := range byTour {
		l := 4 * len(recs)
		occupied := make(map[Pos]int) // position -> vertex
		place := func(v int, p Pos) {
			if p < 1 || p > l {
				t.Fatalf("tour %d: position %d outside [1,%d]", tour, p, l)
			}
			if prev, ok := occupied[p]; ok {
				t.Fatalf("tour %d: position %d claimed by %d and %d", tour, p, prev, v)
			}
			occupied[p] = v
		}
		for _, r := range recs {
			for _, p := range r.UPos {
				place(r.E.U, p)
			}
			for _, p := range r.VPos {
				place(r.E.V, p)
			}
		}
		if len(occupied) != l {
			t.Fatalf("tour %d: %d positions occupied, want %d", tour, len(occupied), l)
		}
		// Validate darts and walk continuity.
		edgeDir := make(map[[2]int]int) // directed edge -> times traversed
		var darts []dartInfo
		for p := 1; p <= l; p += 2 {
			d := dartInfo{tail: occupied[p], head: occupied[p+1]}
			darts = append(darts, d)
			edgeDir[[2]int{d.tail, d.head}]++
		}
		for _, r := range recs {
			if edgeDir[[2]int{r.E.U, r.E.V}] != 1 || edgeDir[[2]int{r.E.V, r.E.U}] != 1 {
				t.Fatalf("tour %d: edge %v not traversed once per direction", tour, r.E)
			}
		}
		for i, d := range darts {
			next := darts[(i+1)%len(darts)]
			if d.head != next.tail {
				t.Fatalf("tour %d: walk discontinuity at dart %d: head %d, next tail %d", tour, i, d.head, next.tail)
			}
		}
		// Child interval of every record must be consistent with derived
		// global f/l of the child endpoint.
		for _, r := range recs {
			child := r.Child()
			st := h.stats(child)
			if r.ChildF() != st.F || r.ChildL() != st.L {
				t.Fatalf("tour %d: record %v child %d interval [%d,%d], global [%d,%d]",
					tour, r.E, child, r.ChildF(), r.ChildL(), st.F, st.L)
			}
		}
	}
	// Records must partition by true components: two vertices share a tour
	// iff connected.
	labels, _ := h.components()
	tourOfVertex := make(map[int]TourID)
	for _, r := range h.recs {
		for _, v := range []int{r.E.U, r.E.V} {
			if prev, ok := tourOfVertex[v]; ok && prev != r.Tour {
				t.Fatalf("vertex %d on tours %d and %d", v, prev, r.Tour)
			}
			tourOfVertex[v] = r.Tour
		}
	}
	compTour := make(map[int]TourID)
	for v, tour := range tourOfVertex {
		c := labels[v]
		if prev, ok := compTour[c]; ok && prev != tour {
			t.Fatalf("component %d spans tours %d and %d", c, prev, tour)
		}
		compTour[c] = tour
	}
	seenTour := make(map[TourID]int)
	for c, tour := range compTour {
		if prev, ok := seenTour[tour]; ok {
			t.Fatalf("tour %d shared by components %d and %d", tour, prev, c)
		}
		seenTour[tour] = c
	}
}

func (h *host) forestEdges() []graph.Edge {
	out := make([]graph.Edge, 0, len(h.recs))
	for e := range h.recs {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}
