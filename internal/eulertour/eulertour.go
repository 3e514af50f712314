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
//   - subtree membership is an interval predicate: w lies in the subtree of
//     an edge's child c iff f(c) <= f(w) <= l(c), so the subtree of a tree
//     edge holds a run of any vertex set ordered by f, and the edge is on
//     the tree path between two vertices iff its run holds exactly one of
//     them (Lemma 7.2).
//
// Batch operations (Section 6) are compiled by coordinator-side planners
// (see join.go and split.go) into O(k) Relabel descriptors plus O(k) new
// darts; machines apply descriptors locally to the records they hold, which
// is exactly the broadcast-and-remap mechanism of the paper.
//
// A machine applies a batch's descriptors in one pass over its records. The
// descriptors are built once into a flat RelabelSet, sorted by (tour, Lo),
// that every machine shares read-only. Each machine walks its records with an
// Applier of its own, which remembers the last tour and the last descriptor
// it used. So a record of a tour the batch does not touch costs one
// comparison, and a moved one mostly costs the remembered descriptor's range
// test.
package eulertour

import (
	"cmp"
	"fmt"
	"slices"

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

// RelabelSet is the flat table of one batch's relabel descriptors: one slice
// sorted by (OldTour, Lo), the sorted list of the tours it touches, and where
// each tour's run of descriptors starts. It is built once from the broadcast
// batch and never written again, so one set is shared read-only by every
// machine, concurrent ones under the parallel executor included; what a
// machine remembers while it applies the set lives in an Applier of its own.
type RelabelSet struct {
	rels  []Relabel
	tours []TourID
	// start[i] is the index in rels of tours[i]'s first descriptor, and
	// start[len(tours)] == len(rels).
	start []int
}

// NewRelabelSet sorts the descriptors by (tour, Lo) into one flat table.
func NewRelabelSet(rs []Relabel) *RelabelSet {
	s := &RelabelSet{rels: slices.Clone(rs)}
	slices.SortFunc(s.rels, func(a, b Relabel) int {
		return cmp.Or(cmp.Compare(a.OldTour, b.OldTour), cmp.Compare(a.Lo, b.Lo))
	})
	for i, r := range s.rels {
		if i == 0 || r.OldTour != s.rels[i-1].OldTour {
			s.tours = append(s.tours, r.OldTour)
			s.start = append(s.start, i)
		}
	}
	s.start = append(s.start, len(s.rels))
	return s
}

// Applier applies a RelabelSet on one machine. It remembers the tour it
// looked up last and the descriptor that mapped its last position: a shard's
// records of one tour mostly run consecutively, and both positions of a dart
// fall in one descriptor, so most positions end at the remembered
// descriptor's range test, and a record of a tour no descriptor touches costs
// one comparison. The range test runs on every position, so the memo only
// saves searches, never decides a mapping.
type Applier struct {
	set  *RelabelSet
	tour TourID
	// lo and hi bound tour's descriptors in set.rels (lo == hi: it has none);
	// hit is the last of them that mapped a position, or -1.
	lo, hi, hit int
}

// Applier returns an applier of s with nothing remembered.
func (s *RelabelSet) Applier() Applier {
	a := Applier{set: s}
	a.seek(NoTour)
	return a
}

// seek points a at the descriptors of tour t.
func (a *Applier) seek(t TourID) {
	a.tour, a.hit = t, -1
	if i, ok := slices.BinarySearch(a.set.tours, t); ok {
		a.lo, a.hi = a.set.start[i], a.set.start[i+1]
	} else {
		a.lo, a.hi = 0, 0
	}
}

// at maps position p of the tour a points at.
func (a *Applier) at(p Pos) (TourID, Pos) {
	rels := a.set.rels
	if a.hit >= 0 {
		if r := &rels[a.hit]; r.Lo <= p && p <= r.Hi {
			return r.NewTour, p + r.Delta
		}
	}
	lo, hi := a.lo, a.hi
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rels[m].Hi < p {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < a.hi && rels[lo].Lo <= p {
		a.hit = lo
		return rels[lo].NewTour, p + rels[lo].Delta
	}
	return a.tour, p
}

// Map returns the new (tour, position) of position p in tour t. Positions
// not covered by any descriptor are unchanged; covered positions move.
func (a *Applier) Map(t TourID, p Pos) (TourID, Pos) {
	if t != a.tour {
		a.seek(t)
	}
	return a.at(p)
}

// ApplyToRecord rewrites all four positions (and the tour id) of rec; a
// record on a tour no descriptor touches is left as is. It maps the first
// dart's positions (UPos[0], VPos[0]) before the second's, so the two
// positions of a dart share one search. All four positions of a surviving
// record always map into the same new tour; ApplyToRecord checks this on
// every record and reports a corrupted plan otherwise.
func (a *Applier) ApplyToRecord(rec *Record) error {
	if rec.Tour != a.tour {
		a.seek(rec.Tour)
	}
	if a.lo == a.hi {
		return nil
	}
	t0, u0 := a.at(rec.UPos[0])
	t1, v0 := a.at(rec.VPos[0])
	t2, u1 := a.at(rec.UPos[1])
	t3, v1 := a.at(rec.VPos[1])
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
