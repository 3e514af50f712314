package eulertour

import (
	"fmt"
	"sort"
)

// Fragment describes one tree produced by a batch split.
type Fragment struct {
	// Tour is the fragment's tour id, or NoTour when the fragment is a
	// single vertex (no positions remain).
	Tour TourID
	// OldTour is the tour the fragment came from.
	OldTour TourID
	// Len is the fragment's tour length: 4*(size-1).
	Len int
	// Root is the fragment's root vertex when known: the child endpoint of
	// the deleted edge that carved it out. The residual root fragment of each
	// old tour is rooted at the old tour's root, which the planner knows only
	// when the fragment is empty (every top-level deletion then hangs off
	// it): Root is that vertex for an empty residual fragment and -1 for any
	// other. So every single-vertex fragment names its vertex.
	Root int
}

// SplitResult is the compiled batch split: relabel descriptors covering all
// surviving positions, and the produced fragments. The positions of the
// deleted records themselves are covered by no descriptor; callers drop
// those records before applying the relabels.
type SplitResult struct {
	Relabels  []Relabel
	Fragments []Fragment
}

// PlanSplit compiles the deletion of a batch of tree edges (Section 6.3's
// inverse Euler-tour procedure). tourLens gives the current length of every
// tour that loses at least one edge; deleted holds copies of the records
// being removed. nextTour must return fresh tour ids.
//
// Each deleted record's child side roots a new fragment whose tour is the
// child's old occurrence interval with deeper deletions cut out and the
// remaining runs concatenated; the residual positions of the old tour form
// the root fragment. The descriptors are O(k) in number for k deletions.
func PlanSplit(tourLens map[TourID]int, deleted []Record, nextTour func() TourID) (*SplitResult, error) {
	byTour := make(map[TourID][]Record)
	for _, r := range deleted {
		if r.Tour == NoTour {
			return nil, fmt.Errorf("eulertour: deleted record %v has no tour", r.E)
		}
		if err := r.Validate(); err != nil {
			return nil, err
		}
		byTour[r.Tour] = append(byTour[r.Tour], r)
	}
	res := &SplitResult{}
	// Deterministic tour order.
	tours := make([]TourID, 0, len(byTour))
	for t := range byTour {
		tours = append(tours, t)
	}
	sort.Slice(tours, func(i, j int) bool { return tours[i] < tours[j] })
	for _, t := range tours {
		l, ok := tourLens[t]
		if !ok {
			return nil, fmt.Errorf("eulertour: no length for tour %d", t)
		}
		if err := planSplitOne(t, l, byTour[t], nextTour, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// nestNode is one deleted edge in the laminar nesting tree of one old tour.
type nestNode struct {
	rec      Record
	outerLo  Pos // child's f - 1 (tail of the descending dart)
	outerHi  Pos // child's l + 1 (head of the returning dart)
	children []*nestNode
}

func planSplitOne(t TourID, l int, recs []Record, nextTour func() TourID, res *SplitResult) error {
	nodes := make([]*nestNode, len(recs))
	for i, r := range recs {
		nodes[i] = &nestNode{rec: r, outerLo: r.ChildF() - 1, outerHi: r.ChildL() + 1}
		if nodes[i].outerLo < 1 || nodes[i].outerHi > l {
			return fmt.Errorf("eulertour: record %v positions out of tour range [1,%d]", r.E, l)
		}
	}
	// Sort by outerLo ascending, outerHi descending: parents precede
	// children, siblings left to right.
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].outerLo != nodes[j].outerLo {
			return nodes[i].outerLo < nodes[j].outerLo
		}
		return nodes[i].outerHi > nodes[j].outerHi
	})
	var top []*nestNode
	var stack []*nestNode
	for _, nd := range nodes {
		for len(stack) > 0 && stack[len(stack)-1].outerHi < nd.outerLo {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			top = append(top, nd)
		} else {
			parent := stack[len(stack)-1]
			if nd.outerHi > parent.outerHi {
				return fmt.Errorf("eulertour: deleted intervals [%d,%d] and [%d,%d] cross",
					parent.outerLo, parent.outerHi, nd.outerLo, nd.outerHi)
			}
			parent.children = append(parent.children, nd)
		}
		stack = append(stack, nd)
	}
	total := 0
	// emitFragment lays out the positions [lo, hi] of the old tour, minus
	// the outer intervals of the given children, as a fresh tour.
	var emitFragment func(lo, hi Pos, children []*nestNode, root int) error
	emitFragment = func(lo, hi Pos, children []*nestNode, root int) error {
		frag := Fragment{OldTour: t, Root: root}
		cursor := Pos(1)
		prev := lo
		var relabels []Relabel
		for _, ch := range children {
			if ch.outerLo-1 >= prev {
				relabels = append(relabels, Relabel{
					OldTour: t, Lo: prev, Hi: ch.outerLo - 1, Delta: cursor - prev,
				})
				cursor += ch.outerLo - 1 - prev + 1
			}
			prev = ch.outerHi + 1
			if err := emitFragment(ch.outerLo+2, ch.outerHi-2, ch.children, ch.rec.Child()); err != nil {
				return err
			}
		}
		if hi >= prev {
			relabels = append(relabels, Relabel{OldTour: t, Lo: prev, Hi: hi, Delta: cursor - prev})
			cursor += hi - prev + 1
		}
		frag.Len = int(cursor) - 1
		if frag.Len > 0 {
			frag.Tour = nextTour()
			for i := range relabels {
				relabels[i].NewTour = frag.Tour
			}
			res.Relabels = append(res.Relabels, relabels...)
		} else {
			frag.Tour = NoTour
		}
		total += frag.Len
		res.Fragments = append(res.Fragments, frag)
		return nil
	}
	if err := emitFragment(1, l, top, -1); err != nil {
		return err
	}
	if fr := &res.Fragments[len(res.Fragments)-1]; fr.Len == 0 {
		fr.Root = top[0].rec.Parent()
	}
	if want := l - 4*len(recs); total != want {
		return fmt.Errorf("eulertour: split of tour %d kept %d positions, want %d", t, total, want)
	}
	return nil
}
