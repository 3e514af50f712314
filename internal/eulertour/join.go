package eulertour

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// CompInfo describes one component participating in a batch join: its key in
// the auxiliary graph H (the component id, i.e. the minimum vertex id of the
// component), its current tour (NoTour for singletons), and its vertex
// count.
type CompInfo struct {
	Key  int
	Tour TourID
	Size int
}

// CutQuery asks for the smallest occurrence of Vertex strictly greater than
// Cut, in the vertex's current tour (the stage-2 distributed query of the
// join).
type CutQuery struct {
	Vertex int
	Cut    Pos
}

// JoinResult is the compiled batch join: relabel descriptors to broadcast,
// fully-formed records for the newly inserted tree edges, and the new tours.
type JoinResult struct {
	Relabels   []Relabel
	NewRecords []Record
	Tours      []NewTour
}

// NewTour describes one tour created by the join.
type NewTour struct {
	Tour TourID
	Len  int
	// Comps lists the keys of the components merged into this tour.
	Comps []int
}

// attachment is one child component hanging off a host vertex.
type attachment struct {
	hostPos Pos // insertion point in the host comp's rooted coordinates
	hostV   int
	child   int // child comp key
	childV  int // attach terminal in the child comp
	e       graph.Edge
}

// JoinPlanner compiles a batch of forest-edge insertions (Section 6.1/6.2)
// into relabel descriptors. Usage is three-phased, mirroring the distributed
// queries the coordinator performs:
//
//	p, _ := NewJoinPlanner(comps, edges, compOf)
//	stats := query(p.Terminals())        // distributed f/l lookup, O(1) rounds
//	p.SetStats(stats)
//	more := query2(p.CutQueries())       // min-above-cut lookup, when a host's stats straddle a cut
//	p.SetMinAbove(more)
//	res, _ := p.Plan(nextTour)
//
// The planner is coordinator-local state: it runs on the driver goroutine
// between collective operations and is never captured by per-machine
// callbacks, so it needs no synchronization under a parallel execution
// engine (mpc.Config.Parallelism). Its outputs travel to the machines only
// through broadcasts.
type JoinPlanner struct {
	comps   map[int]CompInfo
	edges   []graph.Edge
	compOf  func(int) int
	parent  map[int]int         // child comp key -> parent comp key
	viaEdge map[int]graph.Edge  // child comp key -> the joining edge
	childs  map[int][]int       // comp key -> child comp keys
	roots   []int               // one root comp per connected group
	stats   map[int]VertexStats // stage 1
	cuts    map[int]Pos         // comp key -> rotation cut (0 = no rotation)
	minAb   map[int]Pos         // stage 2: vertex -> min occurrence above cut
	planned bool
}

// NewJoinPlanner validates the batch and computes the auxiliary-tree
// structure. comps are the participating components; edges are the new tree
// edges (each must connect two distinct participating components, and
// together they must form a forest over the components — the caller obtains
// them as the spanning forest F_H of the auxiliary graph H). compOf maps a
// vertex to its component key.
func NewJoinPlanner(comps []CompInfo, edges []graph.Edge, compOf func(int) int) (*JoinPlanner, error) {
	p := &JoinPlanner{
		comps:   make(map[int]CompInfo, len(comps)),
		edges:   edges,
		compOf:  compOf,
		parent:  make(map[int]int),
		viaEdge: make(map[int]graph.Edge),
		childs:  make(map[int][]int),
		cuts:    make(map[int]Pos),
	}
	for _, c := range comps {
		if c.Size < 1 {
			return nil, fmt.Errorf("eulertour: component %d has size %d", c.Key, c.Size)
		}
		if (c.Size == 1) != (c.Tour == NoTour) {
			return nil, fmt.Errorf("eulertour: component %d: size %d with tour %d", c.Key, c.Size, c.Tour)
		}
		if _, dup := p.comps[c.Key]; dup {
			return nil, fmt.Errorf("eulertour: duplicate component key %d", c.Key)
		}
		p.comps[c.Key] = c
	}
	// Build the comp-level forest with union-find to orient each group from
	// a deterministic root (the smallest comp key in the group).
	adj := make(map[int][]int)
	edgeOf := make(map[[2]int]graph.Edge)
	for _, e := range edges {
		a, b := compOf(e.U), compOf(e.V)
		if a == b {
			return nil, fmt.Errorf("eulertour: join edge %v within one component", e)
		}
		if _, ok := p.comps[a]; !ok {
			return nil, fmt.Errorf("eulertour: edge %v touches unknown component %d", e, a)
		}
		if _, ok := p.comps[b]; !ok {
			return nil, fmt.Errorf("eulertour: edge %v touches unknown component %d", e, b)
		}
		if _, dup := edgeOf[[2]int{min(a, b), max(a, b)}]; dup {
			return nil, fmt.Errorf("eulertour: parallel join edges between components %d and %d", a, b)
		}
		edgeOf[[2]int{min(a, b), max(a, b)}] = e
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	// Root each connected group at its smallest comp key and orient.
	keys := make([]int, 0, len(p.comps))
	for k := range p.comps {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	seen := make(map[int]bool)
	for _, root := range keys {
		if seen[root] {
			continue
		}
		p.roots = append(p.roots, root)
		stack := []int{root}
		seen[root] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nbrs := append([]int(nil), adj[cur]...)
			sort.Ints(nbrs)
			for _, nb := range nbrs {
				if seen[nb] {
					continue
				}
				seen[nb] = true
				p.parent[nb] = cur
				p.viaEdge[nb] = edgeOf[[2]int{min(cur, nb), max(cur, nb)}]
				p.childs[cur] = append(p.childs[cur], nb)
				stack = append(stack, nb)
			}
		}
	}
	// A forest over comps must have exactly len(comps)-#groups edges.
	if len(edges) != len(p.comps)-len(p.roots) {
		return nil, fmt.Errorf("eulertour: %d join edges do not form a forest over %d components (%d groups)",
			len(edges), len(p.comps), len(p.roots))
	}
	return p, nil
}

// Terminals returns the vertices whose occurrence stats (F, L) must be
// queried before planning: every endpoint of every join edge.
func (p *JoinPlanner) Terminals() []int {
	set := make(map[int]bool)
	for _, e := range p.edges {
		set[e.U] = true
		set[e.V] = true
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// attachTerminal returns, for a non-root comp, the vertex by which it hangs
// from its parent.
func (p *JoinPlanner) attachTerminal(comp int) int {
	e := p.viaEdge[comp]
	if p.compOf(e.U) == comp {
		return e.U
	}
	return e.V
}

// SetStats supplies the stage-1 occurrence stats for all Terminals.
func (p *JoinPlanner) SetStats(stats map[int]VertexStats) error {
	for _, v := range p.Terminals() {
		if _, ok := stats[v]; !ok {
			return fmt.Errorf("eulertour: missing stats for terminal %d", v)
		}
	}
	p.stats = stats
	// Compute each non-root comp's rotation cut: l(attach terminal), unless
	// the terminal is already the root (F == 1) or the comp is a singleton.
	for comp := range p.parent {
		info := p.comps[comp]
		if info.Size == 1 {
			continue
		}
		t := p.attachTerminal(comp)
		st := p.stats[t]
		if st.F == 1 {
			continue // already rooted at the attach terminal
		}
		p.cuts[comp] = st.L
	}
	return nil
}

// CutQueries returns the stage-2 queries: for every terminal that hosts an
// attachment inside a rotated component, the smallest occurrence above the
// component's rotation cut is needed to place the attachment in rotated
// coordinates. The host's stats answer it unless they straddle the cut
// (statsAnswer), which they do only for an ancestor of the attach terminal
// the component is rotated at: only those are asked.
func (p *JoinPlanner) CutQueries() []CutQuery {
	if p.stats == nil {
		panic("eulertour: CutQueries before SetStats")
	}
	var out []CutQuery
	seen := make(map[int]bool)
	for child, par := range p.parent {
		cut, rotated := p.cuts[par]
		if !rotated {
			continue
		}
		host := p.hostVertex(child)
		if host == p.attachTerminal(par) || seen[host] {
			continue // the rotation root maps to position 0; no query needed
		}
		if _, ok := statsAnswer(p.stats[host], cut); ok {
			continue
		}
		seen[host] = true
		out = append(out, CutQuery{Vertex: host, Cut: cut})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Vertex < out[j].Vertex })
	return out
}

// hostVertex returns the endpoint of child's joining edge that lies in the
// parent component.
func (p *JoinPlanner) hostVertex(child int) int {
	e := p.viaEdge[child]
	if p.compOf(e.U) == child {
		return e.V
	}
	return e.U
}

// SetMinAbove supplies the stage-2 results keyed by vertex. An answer for a
// host CutQueries did not ask is taken over what its stats say; the two agree.
func (p *JoinPlanner) SetMinAbove(minAbove map[int]Pos) {
	p.minAb = minAbove
}

// statsAnswer is the smallest occurrence above cut of a vertex whose first
// and last occurrences are st.F and st.L (0: none), when those decide it: the
// first occurrence lies above the cut, or the last below it. A position is
// one vertex's occurrence, so a host other than the attach terminal holding
// the cut is never on it; one that straddles it (F < cut < L) is an ancestor
// of that terminal, and only its records know where it is seen next.
func statsAnswer(st VertexStats, cut Pos) (Pos, bool) {
	switch {
	case st.F > cut:
		return st.F, true
	case st.L < cut:
		return 0, true
	}
	return 0, false
}

// hostPos returns the insertion point of an attachment hosted at vertex v
// inside component comp, in comp's rooted (possibly rotated) coordinates.
// Position 0 means "before the first position" and is used when the host is
// the comp's root in the final orientation.
func (p *JoinPlanner) hostPos(comp, v int) (Pos, error) {
	info := p.comps[comp]
	if info.Size == 1 {
		return 0, nil
	}
	st, ok := p.stats[v]
	if !ok {
		return 0, fmt.Errorf("eulertour: no stats for host %d", v)
	}
	cut, rotated := p.cuts[comp]
	if !rotated {
		// Unrotated coordinates: the original root (F == 1) hosts at 0; any
		// other vertex hosts after its first occurrence, which is the head
		// of its entering dart.
		if st.F == 1 {
			return 0, nil
		}
		return st.F, nil
	}
	if v == p.attachTerminal(comp) {
		return 0, nil // the rotation makes v the root
	}
	ma, ok := p.minAb[v]
	if !ok {
		if ma, ok = statsAnswer(st, cut); !ok {
			return 0, fmt.Errorf("eulertour: missing min-above-cut for host %d", v)
		}
	}
	L := TourLen(info.Size)
	if ma > 0 {
		return ma - cut + 1, nil
	}
	return st.F + L - cut + 1, nil
}

// Plan compiles the join. nextTour must return fresh, never-reused tour ids.
func (p *JoinPlanner) Plan(nextTour func() TourID) (*JoinResult, error) {
	if p.planned {
		return nil, fmt.Errorf("eulertour: Plan called twice")
	}
	if p.stats == nil {
		return nil, fmt.Errorf("eulertour: Plan before SetStats")
	}
	p.planned = true
	res := &JoinResult{}
	for _, root := range p.roots {
		if len(p.childs[root]) == 0 {
			// A component no join edge touches: nothing to do.
			continue
		}
		if err := p.planGroup(root, nextTour, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// planGroup emits relabels, records and tour info for one connected group.
func (p *JoinPlanner) planGroup(root int, nextTour func() TourID, res *JoinResult) error {
	tour := nextTour()
	cursor := Pos(1)
	var compKeys []int
	totalSize := 0
	var emit func(comp int) error
	emit = func(comp int) error {
		compKeys = append(compKeys, comp)
		info := p.comps[comp]
		totalSize += info.Size
		L := TourLen(info.Size)
		// Collect attachments.
		var atts []attachment
		for _, child := range p.childs[comp] {
			hv := p.hostVertex(child)
			hp, err := p.hostPos(comp, hv)
			if err != nil {
				return err
			}
			atts = append(atts, attachment{
				hostPos: hp,
				hostV:   hv,
				child:   child,
				childV:  p.attachTerminal(child),
				e:       p.viaEdge[child],
			})
		}
		sort.Slice(atts, func(i, j int) bool {
			if atts[i].hostPos != atts[j].hostPos {
				return atts[i].hostPos < atts[j].hostPos
			}
			if atts[i].hostV != atts[j].hostV {
				return atts[i].hostV < atts[j].hostV
			}
			return atts[i].child < atts[j].child
		})
		cut := p.cuts[comp] // 0 when unrotated
		emitSegment := func(lo, hi Pos) {
			if lo > hi {
				return
			}
			delta := cursor - lo
			p.emitRelabels(res, info.Tour, L, cut, lo, hi, tour, delta)
			cursor += hi - lo + 1
		}
		prev := Pos(1)
		for _, a := range atts {
			if a.hostPos >= prev {
				emitSegment(prev, a.hostPos)
				prev = a.hostPos + 1
			}
			// Descending dart host -> child terminal.
			descTail := cursor
			cursor += 2
			if err := emit(a.child); err != nil {
				return err
			}
			// Returning dart child terminal -> host.
			retTail := cursor
			cursor += 2
			rec := Record{E: a.e.Canonical(), Tour: tour}
			hostPositions := sorted2(descTail, retTail+1)
			termPositions := sorted2(descTail+1, retTail)
			if rec.E.U == a.hostV {
				rec.UPos, rec.VPos = hostPositions, termPositions
			} else {
				rec.UPos, rec.VPos = termPositions, hostPositions
			}
			res.NewRecords = append(res.NewRecords, rec)
		}
		emitSegment(prev, L)
		return nil
	}
	if err := emit(root); err != nil {
		return err
	}
	wantLen := TourLen(totalSize)
	if int(cursor)-1 != wantLen {
		return fmt.Errorf("eulertour: join of group %d produced length %d, want %d", root, cursor-1, wantLen)
	}
	sort.Ints(compKeys)
	res.Tours = append(res.Tours, NewTour{Tour: tour, Len: wantLen, Comps: compKeys})
	return nil
}

// emitRelabels maps the segment [lo, hi] of a comp's rooted coordinates
// (with rotation cut `cut`; 0 = unrotated) back to old coordinates and
// appends the resulting descriptors: final position = rooted + delta.
func (p *JoinPlanner) emitRelabels(res *JoinResult, old TourID, l int, cut, lo, hi Pos, newTour TourID, delta int) {
	if old == NoTour {
		return
	}
	if cut == 0 {
		res.Relabels = append(res.Relabels, Relabel{OldTour: old, Lo: lo, Hi: hi, NewTour: newTour, Delta: delta})
		return
	}
	// Rotation: rooted = old - cut + 1 for old in [cut, L];
	//           rooted = old + L - cut + 1 for old in [1, cut-1].
	if lo2, hi2 := max(lo+cut-1, cut), min(hi+cut-1, l); lo2 <= hi2 {
		res.Relabels = append(res.Relabels, Relabel{
			OldTour: old, Lo: lo2, Hi: hi2, NewTour: newTour, Delta: delta + 1 - cut,
		})
	}
	shift := l - cut + 1
	if lo2, hi2 := max(lo-shift, 1), min(hi-shift, cut-1); lo2 <= hi2 {
		res.Relabels = append(res.Relabels, Relabel{
			OldTour: old, Lo: lo2, Hi: hi2, NewTour: newTour, Delta: delta + shift,
		})
	}
}
