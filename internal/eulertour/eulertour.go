// Package eulertour implements distributed Euler-tour forests, the data
// structure at the heart of the paper's connectivity algorithm (Sections 5
// and 6). Each tree of the maintained spanning forest is represented by an
// Euler tour: a closed walk traversing every tree edge once in each
// direction. The tour of a tree T rooted at r is a sequence of 2(|T|-1)
// darts; each dart occupies two consecutive positions (tail vertex, then
// head vertex), so the position space is 1..L with L = 4(|T|-1), matching
// the paper's convention that each vertex v occurs 2*deg_T(v) times.
//
// The distributed truth is a set of per-edge Records, each holding the four
// positions of its two darts. Everything else is derived:
//
//   - f(v) and l(v), the first and last occurrence of v, are min/max
//     aggregates over v's incident records;
//   - the child side of an edge is the endpoint whose two positions form the
//     inner interval, and that endpoint's positions on the record are its
//     global f and l;
//   - subtree membership and path membership (Lemma 7.2) are interval
//     predicates on (f, l) pairs.
//
// Batch operations (Section 6) are compiled by coordinator-side planners
// (see join.go and split.go) into O(k) Relabel descriptors plus O(k) new
// darts; machines apply descriptors locally to the records they hold, which
// is exactly the broadcast-and-remap mechanism of the paper.
package eulertour

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
)

// Pos is a 1-indexed position in a tour.
type Pos = int

// TourID identifies one Euler tour (one tree of the forest). IDs are
// assigned from a monotone counter and never reused. The zero value marks
// "no tour" (singleton components have no positions and no tour).
type TourID uint64

// NoTour is the TourID of singleton components.
const NoTour TourID = 0

// TourLen returns the tour length of a tree with size vertices.
func TourLen(size int) int {
	if size <= 1 {
		return 0
	}
	return 4 * (size - 1)
}

// Record is the distributed representation of one tree edge: the four tour
// positions of its two darts. UPos and VPos hold the positions at which the
// canonical endpoints U and V occur, each sorted ascending. The four
// positions always consist of two consecutive pairs (p, p+1) and (q, q+1)
// with p+1 < q, one dart descending into the child endpoint and one
// returning.
type Record struct {
	E    graph.Edge
	Tour TourID
	UPos [2]Pos
	VPos [2]Pos
}

// Words returns the record's size in machine words (edge endpoints, tour,
// four positions).
func (r *Record) Words() int { return 7 }

// Validate checks the record's structural invariants.
func (r *Record) Validate() error {
	all := [4]Pos{r.UPos[0], r.UPos[1], r.VPos[0], r.VPos[1]}
	slices.Sort(all[:])
	if all[0]+1 != all[1] || all[2]+1 != all[3] {
		return fmt.Errorf("eulertour: positions %v do not form two dart pairs", all)
	}
	if all[1] >= all[2] {
		return fmt.Errorf("eulertour: dart pairs %v overlap", all)
	}
	if r.UPos[0] > r.UPos[1] || r.VPos[0] > r.VPos[1] {
		return fmt.Errorf("eulertour: unsorted endpoint positions %v %v", r.UPos, r.VPos)
	}
	// Each dart pair must contain exactly one occurrence of each endpoint.
	inFirst := func(p Pos) bool { return p == all[0] || p == all[1] }
	u1 := 0
	if inFirst(r.UPos[0]) {
		u1++
	}
	if inFirst(r.UPos[1]) {
		u1++
	}
	if u1 != 1 {
		return fmt.Errorf("eulertour: endpoint U occurs %d times in first dart", u1)
	}
	return nil
}

// Child returns the child-side endpoint: the one whose occurrences form the
// inner interval. Its first position is the global f of that vertex and its
// last position is the global l (the entering dart's head is the child's
// first occurrence overall; the returning dart's tail is its last).
func (r *Record) Child() int {
	if r.UPos[0] > r.VPos[0] {
		return r.E.U
	}
	return r.E.V
}

// Parent returns the parent-side endpoint: the one whose occurrences form the
// outer interval.
func (r *Record) Parent() int {
	if r.UPos[0] > r.VPos[0] {
		return r.E.V
	}
	return r.E.U
}

// ChildF returns the child's first occurrence (its global f).
func (r *Record) ChildF() Pos { return max(r.UPos[0], r.VPos[0]) }

// ChildL returns the child's last occurrence (its global l).
func (r *Record) ChildL() Pos { return min(r.UPos[1], r.VPos[1]) }

// PositionsOf returns the two positions of endpoint w on this record.
func (r *Record) PositionsOf(w int) [2]Pos {
	switch w {
	case r.E.U:
		return r.UPos
	case r.E.V:
		return r.VPos
	default:
		panic(fmt.Sprintf("eulertour: vertex %d not on record %v", w, r.E))
	}
}

// Relabel is a position-remapping descriptor: every position p of tour
// OldTour with Lo <= p <= Hi moves to position p+Delta of tour NewTour.
// Batch operations broadcast O(k) of these and machines apply them locally.
type Relabel struct {
	OldTour TourID
	Lo, Hi  Pos
	NewTour TourID
	Delta   int
}

// Words returns the descriptor size in machine words.
func (r Relabel) Words() int { return 5 }

// RelabelSet indexes relabel descriptors for application: machines apply the
// one built from the broadcast batch to every local record position. Once
// built it is read-only (Map and Touches are pure), so one set may be
// shared by concurrent readers.
type RelabelSet struct {
	byTour map[TourID][]Relabel
}

// NewRelabelSet indexes the descriptors by tour, sorted by Lo.
func NewRelabelSet(rs []Relabel) *RelabelSet {
	s := &RelabelSet{byTour: make(map[TourID][]Relabel)}
	for _, r := range rs {
		s.byTour[r.OldTour] = append(s.byTour[r.OldTour], r)
	}
	for id := range s.byTour {
		list := s.byTour[id]
		sort.Slice(list, func(i, j int) bool { return list[i].Lo < list[j].Lo })
	}
	return s
}

// Map returns the new (tour, position) of position p in tour t. Positions
// not covered by any descriptor are unchanged; covered positions move.
func (s *RelabelSet) Map(t TourID, p Pos) (TourID, Pos) { return mapIn(s.byTour[t], t, p) }

// mapIn is Map over the descriptors of tour t.
func mapIn(list []Relabel, t TourID, p Pos) (TourID, Pos) {
	i := sort.Search(len(list), func(i int) bool { return list[i].Hi >= p })
	if i < len(list) && list[i].Lo <= p {
		return list[i].NewTour, p + list[i].Delta
	}
	return t, p
}

// Touches reports whether any descriptor refers to tour t.
func (s *RelabelSet) Touches(t TourID) bool { return len(s.byTour[t]) > 0 }

// ApplyToRecord rewrites all four positions (and the tour id) of rec, with
// one lookup of its tour; a record on a tour no descriptor touches is left
// as is. All four positions of a surviving record always map into the same
// new tour; Apply validates this and reports a corrupted plan otherwise.
func (s *RelabelSet) ApplyToRecord(rec *Record) error {
	list := s.byTour[rec.Tour]
	if len(list) == 0 {
		return nil
	}
	t0, u0 := mapIn(list, rec.Tour, rec.UPos[0])
	t1, u1 := mapIn(list, rec.Tour, rec.UPos[1])
	t2, v0 := mapIn(list, rec.Tour, rec.VPos[0])
	t3, v1 := mapIn(list, rec.Tour, rec.VPos[1])
	if t0 != t1 || t1 != t2 || t2 != t3 {
		return fmt.Errorf("eulertour: record %v split across tours by relabel", rec.E)
	}
	rec.Tour = t0
	rec.UPos = sorted2(u0, u1)
	rec.VPos = sorted2(v0, v1)
	return nil
}

func sorted2(a, b Pos) [2]Pos {
	if a > b {
		a, b = b, a
	}
	return [2]Pos{a, b}
}

// VertexStats are the on-demand aggregates of one vertex's occurrences used
// by the planners: its tour, first and last occurrence, and (for join
// rotation) the smallest occurrence strictly greater than a cut.
type VertexStats struct {
	Tour TourID
	// F and L are the global first/last occurrences (0 if the vertex is a
	// singleton with no incident tree edges).
	F, L Pos
	// MinAbove is the smallest occurrence > the queried cut, or 0 if none.
	// Only meaningful when a cut query was issued.
	MinAbove Pos
}

// InSubtree reports whether vertex w (with occurrences spanning [fw, lw])
// lies in the subtree rooted at the child vertex whose occurrence interval
// is [fc, lc].
func InSubtree(fc, lc, fw, lw Pos) bool { return fc <= fw && lw <= lc }

// OnPath reports whether a tree edge whose child side has occurrence
// interval [fc, lc] lies on the unique tree path between u (interval
// [fu, lu]) and v (interval [fv, lv]). The edge is on the path iff exactly
// one of u, v lies in the child's subtree (Lemma 7.2, restated as an XOR of
// interval containments).
func OnPath(fc, lc, fu, lu, fv, lv Pos) bool {
	return InSubtree(fc, lc, fu, lu) != InSubtree(fc, lc, fv, lv)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
