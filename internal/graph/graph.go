// Package graph defines the shared edge/update vocabulary used by every
// algorithm in the repository, plus the sequential reference graph behind
// every oracle, generator, mirror and batch validator.
//
// Vertices are integers in [0, n). Edges are unordered pairs {u, v} with
// u != v; the canonical form stores the smaller endpoint first. Edge
// identifiers encode an edge into a single integer index of the incidence
// vector space {0, ..., n^2-1}, matching the vector encoding of the AGM
// sketches (Section 3.1 of the paper).
//
// Graph is flat: an open-addressing table keyed by those identifiers and one
// dense adjacency row per vertex, with no Go map. Its iteration order
// (Edges, Neighbors) is deterministic for a given update history but not
// sorted; a consumer that needs an order sorts. A Graph is not safe for
// concurrent use, not even for Check alone, which sorts in scratch the
// graph keeps.
package graph

import (
	"fmt"
	"math/bits"
	"slices"
)

// Edge is an undirected, unweighted edge.
type Edge struct {
	U, V int
}

// NewEdge returns the canonical form of {u, v} with the smaller endpoint in U.
func NewEdge(u, v int) Edge {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop edge {%d,%d}", u, v))
	}
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Canonical returns the edge with endpoints ordered so that U < V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Other returns the endpoint of e that is not w. It panics if w is not an
// endpoint of e.
func (e Edge) Other(w int) int {
	switch w {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		panic(fmt.Sprintf("graph: vertex %d not an endpoint of %v", w, e))
	}
}

// Has reports whether w is an endpoint of e.
func (e Edge) Has(w int) bool { return e.U == w || e.V == w }

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("{%d,%d}", e.U, e.V) }

// ID encodes the edge as an index in [0, n^2). The encoding is
// min*n + max, so it is injective on canonical edges and decodable without
// auxiliary state.
func (e Edge) ID(n int) uint64 {
	c := e.Canonical()
	if c.U < 0 || c.V >= n {
		panic(fmt.Sprintf("graph: edge %v out of range for n = %d", e, n))
	}
	return uint64(c.U)*uint64(n) + uint64(c.V)
}

// EdgeFromID decodes an edge identifier produced by Edge.ID.
func EdgeFromID(id uint64, n int) Edge {
	u := int(id / uint64(n))
	v := int(id % uint64(n))
	if u >= v {
		panic(fmt.Sprintf("graph: id %d does not decode to a canonical edge for n = %d", id, n))
	}
	return Edge{U: u, V: v}
}

// IDSpace returns the size of the edge-identifier space for n vertices.
func IDSpace(n int) uint64 { return uint64(n) * uint64(n) }

// WeightedEdge is an edge with an integer weight. Integer weights in
// [1, W] with W = poly(n) match the paper's MSF setting and keep all
// arithmetic exact.
type WeightedEdge struct {
	Edge
	Weight int64
}

// NewWeightedEdge returns the canonical weighted edge {u, v} with weight w.
func NewWeightedEdge(u, v int, w int64) WeightedEdge {
	return WeightedEdge{Edge: NewEdge(u, v), Weight: w}
}

// Op is the type of a stream update.
type Op uint8

// Update operations.
const (
	Insert Op = iota
	Delete
)

// String implements fmt.Stringer.
func (o Op) String() string {
	if o == Insert {
		return "insert"
	}
	return "delete"
}

// Update is a single edge insertion or deletion, optionally weighted.
type Update struct {
	Op     Op
	Edge   Edge
	Weight int64
}

// Ins returns an insertion update for {u, v}.
func Ins(u, v int) Update { return Update{Op: Insert, Edge: NewEdge(u, v)} }

// Del returns a deletion update for {u, v}.
func Del(u, v int) Update { return Update{Op: Delete, Edge: NewEdge(u, v)} }

// InsW returns a weighted insertion update.
func InsW(u, v int, w int64) Update {
	return Update{Op: Insert, Edge: NewEdge(u, v), Weight: w}
}

// DelW returns a weighted deletion update.
func DelW(u, v int, w int64) Update {
	return Update{Op: Delete, Edge: NewEdge(u, v), Weight: w}
}

// Batch is one phase's worth of updates, applied atomically between queries.
type Batch []Update

// Words is the batch's size as a message: three words an update (op and
// endpoints). A collective that tells the shards a batch sends the batch.
func (b Batch) Words() int { return 3 * len(b) }

// MaxVertex returns the largest endpoint referenced by the batch, or -1
// for an empty batch. Streaming consumers fold it over batches to size a
// vertex space without materializing the stream.
func (b Batch) MaxVertex() int {
	max := -1
	for _, u := range b {
		if u.Edge.V > max {
			max = u.Edge.V
		}
		if u.Edge.U > max {
			max = u.Edge.U
		}
	}
	return max
}

// Graph is a simple sequential graph. It is the reference substrate for
// oracles and for validating streams (the paper assumes the current graph
// stays simple and deletions target existing edges).
//
// It is flat: one open-addressing table (linear probing, backward-shift
// deletion, no tombstones) maps each edge's canonical id u·n+v to its
// position in both endpoints' adjacency rows, and each vertex keeps one
// dense row of (neighbor, weight) pairs with swap-remove. Has and Weight are
// one probe; Neighbors walks a row; Edges walks every row. Iteration order
// is deterministic — two graphs built by the same update history, and a
// Clone of either, iterate alike — but it is not sorted.
//
// A Graph is not safe for concurrent use, Check included: Check sorts the
// batch's edge ids in scratch the graph keeps.
type Graph struct {
	n, m  int
	slots []slot   // the edge table; its length is a power of two
	shift uint     // 64 − log2(len(slots)): the hash keeps the top bits
	adj   [][]half // adj[u] holds u's neighbors
	ids   []uint64 // Check's scratch
}

// slot is one entry of the edge table: the canonical id of {u, v} with
// u < v, and the edge's positions in adj[u] and adj[v]. u < v rules out id
// 0, so 0 marks an empty slot.
type slot struct {
	id     uint64
	pu, pv uint32
}

// half is one side of an edge in an adjacency row.
type half struct {
	v int
	w int64
}

// maxN bounds the vertex count so that every edge id u·n+v fits in 64 bits
// and every degree in a slot's 32-bit position.
const maxN = 1 << 32

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n <= 0 || n > maxN {
		panic(fmt.Sprintf("graph: New(%d)", n))
	}
	g := &Graph{n: n, adj: make([][]half, n)}
	g.resize(tableSize(0))
	return g
}

// FromEdges returns the graph on n vertices holding exactly the m edges
// edge(0), …, edge(m-1), built in one presized pass: every adjacency row is
// cut from one backing array and the table never grows. It is how a restore
// installs a checkpointed edge set, reading the rows where they lie. edge is
// called twice for each i and must return the same edge both times. It
// fails on an endpoint outside [0, n), a self-loop or an edge listed twice.
func FromEdges(n, m int, edge func(i int) WeightedEdge) (*Graph, error) {
	if n <= 0 || n > maxN {
		panic(fmt.Sprintf("graph: FromEdges(%d)", n))
	}
	deg := make([]int, n)
	for i := range m {
		e := edge(i)
		c := e.Canonical()
		if c.U < 0 || c.V >= n {
			return nil, fmt.Errorf("graph: edge %d: {%d,%d} outside vertex range [0,%d)", i, e.U, e.V, n)
		}
		if c.U == c.V {
			return nil, fmt.Errorf("graph: edge %d: self-loop {%d,%d}", i, e.U, e.V)
		}
		deg[c.U]++
		deg[c.V]++
	}
	g := rows(n, deg)
	g.resize(tableSize(m))
	for i := range m {
		e := edge(i)
		c := e.Canonical()
		id := g.id(c.U, c.V)
		j, ok := g.find(id)
		if ok {
			return nil, fmt.Errorf("graph: edge %d: {%d,%d} listed twice", i, e.U, e.V)
		}
		g.link(j, id, c.U, c.V, e.Weight)
	}
	return g, nil
}

// rows returns a graph on n vertices with no table whose row u has room for
// deg[u] entries, every row cut from one backing array.
func rows(n int, deg []int) *Graph {
	g := &Graph{n: n, adj: make([][]half, n)}
	total := 0
	for _, d := range deg {
		total += d
	}
	backing := make([]half, total)
	for u, d := range deg {
		g.adj[u] = backing[:0:d]
		backing = backing[d:]
	}
	return g
}

// tableSize is the table length that holds m edges at a load of at most
// 3/4.
func tableSize(m int) int {
	size := 8
	for 4*m > 3*size {
		size *= 2
	}
	return size
}

// resize rehashes every edge into a table of size slots.
func (g *Graph) resize(size int) {
	old := g.slots
	g.slots = make([]slot, size)
	g.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.id != 0 {
			j, _ := g.find(s.id)
			g.slots[j] = s
		}
	}
}

// id is the table key of {u, v}; it takes u < v.
func (g *Graph) id(u, v int) uint64 { return uint64(u)*uint64(g.n) + uint64(v) }

// home is the slot a probe for id starts at (Fibonacci hashing).
func (g *Graph) home(id uint64) int { return int(id * 0x9e3779b97f4a7c15 >> g.shift) }

// find returns the slot holding id and true, or the empty slot that ends
// id's probe and false.
func (g *Graph) find(id uint64) (int, bool) {
	mask := len(g.slots) - 1
	for j := g.home(id); ; j = (j + 1) & mask {
		switch g.slots[j].id {
		case id:
			return j, true
		case 0:
			return j, false
		}
	}
}

// lookup returns the slot of {u, v} and its endpoints in canonical order,
// or slot -1 when the edge is absent. An endpoint outside [0, n) or a
// self-loop is absent: its id would be another edge's, or the empty mark.
func (g *Graph) lookup(u, v int) (j, lo, hi int) {
	if u > v {
		u, v = v, u
	}
	if u < 0 || v >= g.n || u == v {
		return -1, u, v
	}
	j, ok := g.find(g.id(u, v))
	if !ok {
		return -1, u, v
	}
	return j, u, v
}

// link stores edge {u, v} (u < v) with weight w in empty slot j and appends
// it to both rows.
func (g *Graph) link(j int, id uint64, u, v int, w int64) {
	g.slots[j] = slot{id: id, pu: uint32(len(g.adj[u])), pv: uint32(len(g.adj[v]))}
	g.adj[u] = append(g.adj[u], half{v: v, w: w})
	g.adj[v] = append(g.adj[v], half{v: u, w: w})
	g.m++
}

// evict empties slot j, shifting back every later entry of its probe run
// that may move into the gap, so no tombstone is left.
func (g *Graph) evict(j int) {
	mask := len(g.slots) - 1
	for k := (j + 1) & mask; g.slots[k].id != 0; k = (k + 1) & mask {
		// The entry at k may fill the gap at j when j lies on its probe
		// path, between its home and k.
		if (k-g.home(g.slots[k].id))&mask >= (k-j)&mask {
			g.slots[j] = g.slots[k]
			j = k
		}
	}
	g.slots[j] = slot{}
}

// unlink swap-removes position p of u's row and repoints the table entry of
// the edge it moved.
func (g *Graph) unlink(u int, p uint32) {
	row := g.adj[u]
	last := len(row) - 1
	if int(p) != last {
		moved := row[last]
		row[p] = moved
		if u < moved.v {
			j, _ := g.find(g.id(u, moved.v))
			g.slots[j].pu = p
		} else {
			j, _ := g.find(g.id(moved.v, u))
			g.slots[j].pv = p
		}
	}
	g.adj[u] = row[:last]
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the current number of edges.
func (g *Graph) M() int { return g.m }

// Has reports whether edge {u, v} is present. An endpoint outside [0, N)
// reports absent.
func (g *Graph) Has(u, v int) bool {
	j, _, _ := g.lookup(u, v)
	return j >= 0
}

// Weight returns the weight of edge {u, v} and whether it exists. An
// endpoint outside [0, N) reports absent.
func (g *Graph) Weight(u, v int) (int64, bool) {
	j, lo, _ := g.lookup(u, v)
	if j < 0 {
		return 0, false
	}
	return g.adj[lo][g.slots[j].pu].w, true
}

// Insert adds edge {u, v} with weight w. It returns an error if the edge is
// already present or is a self loop, and panics on an endpoint outside
// [0, N).
func (g *Graph) Insert(u, v int, w int64) error {
	if u == v {
		return fmt.Errorf("graph: insert self-loop {%d,%d}", u, v)
	}
	lo, hi := u, v
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo < 0 || hi >= g.n {
		panic(fmt.Sprintf("graph: insert edge {%d,%d} outside vertex range [0,%d)", u, v, g.n))
	}
	id := g.id(lo, hi)
	j, ok := g.find(id)
	if ok {
		return fmt.Errorf("graph: insert duplicate edge {%d,%d}", u, v)
	}
	if 4*(g.m+1) > 3*len(g.slots) {
		g.resize(2 * len(g.slots))
		j, _ = g.find(id)
	}
	g.link(j, id, lo, hi, w)
	return nil
}

// Delete removes edge {u, v}. It returns an error if the edge is absent,
// an endpoint outside [0, N) included.
func (g *Graph) Delete(u, v int) error {
	j, lo, hi := g.lookup(u, v)
	if j < 0 {
		return fmt.Errorf("graph: delete missing edge {%d,%d}", u, v)
	}
	s := g.slots[j]
	g.evict(j)
	g.unlink(lo, s.pu)
	g.unlink(hi, s.pv)
	g.m--
	return nil
}

// Apply applies a batch of updates, failing fast on the first invalid update.
func (g *Graph) Apply(b Batch) error {
	for _, up := range b {
		var err error
		switch up.Op {
		case Insert:
			err = g.Insert(up.Edge.U, up.Edge.V, up.Weight)
		case Delete:
			err = g.Delete(up.Edge.U, up.Edge.V)
		default:
			err = fmt.Errorf("graph: unknown op %d", up.Op)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Check reports whether b applies cleanly to g as one atomic batch, without
// applying it: every canonical endpoint in [0, N), no self-loops, each edge
// touched at most once (so the updates are valid in any order, which is how
// the algorithms apply them — inserts before deletes), inserts only of
// absent edges, deletes only of present ones, and no unknown op. It is the
// one batch validator behind every front door that admits outside updates.
// It reports the first offending update in batch order; an update is
// checked for its range, a self-loop, a repeat of an earlier update's edge
// and its op, in that order.
func (g *Graph) Check(b Batch) error {
	// One pass checks each update on its own and collects its id, up to
	// and including the first update that fails its op check; the ids are
	// then sorted to find an edge touched twice, which would come first.
	ids := g.ids[:0]
	stop, opErr := len(b), error(nil)
	for i, up := range b {
		e := up.Edge.Canonical()
		if e.U < 0 || e.V >= g.n || e.U == e.V {
			stop = i
			break
		}
		id := g.id(e.U, e.V)
		ids = append(ids, id)
		_, present := g.find(id)
		switch {
		case up.Op == Insert && present:
			opErr = fmt.Errorf("update %d: insert of present edge {%d,%d}", i, e.U, e.V)
		case up.Op == Delete && !present:
			opErr = fmt.Errorf("update %d: delete of absent edge {%d,%d}", i, e.U, e.V)
		case up.Op != Insert && up.Op != Delete:
			opErr = fmt.Errorf("update %d: unknown op %d", i, up.Op)
		}
		if opErr != nil {
			stop = i
			break
		}
	}
	g.ids = ids
	slices.Sort(ids)
	for k := 1; k < len(ids); k++ {
		if ids[k] == ids[k-1] {
			i := firstRepeat(b[:len(ids)], ids, g.n)
			e := b[i].Edge.Canonical()
			return fmt.Errorf("update %d: edge {%d,%d} touched twice in one batch", i, e.U, e.V)
		}
	}
	if opErr != nil || stop == len(b) {
		return opErr
	}
	e := b[stop].Edge.Canonical()
	if e.U < 0 || e.V >= g.n {
		return fmt.Errorf("update %d: edge {%d,%d} outside vertex range [0,%d)", stop, e.U, e.V, g.n)
	}
	return fmt.Errorf("update %d: self-loop {%d,%d}", stop, e.U, e.V)
}

// firstRepeat returns the index of the first update of b whose edge an
// earlier update touched. sorted holds b's ids, sorted, with at least one
// repeat; only a refused batch gets here.
func firstRepeat(b Batch, sorted []uint64, n int) int {
	seen := make([]bool, len(sorted))
	for i, up := range b {
		e := up.Edge.Canonical()
		k, _ := slices.BinarySearch(sorted, uint64(e.U)*uint64(n)+uint64(e.V))
		if seen[k] {
			return i
		}
		seen[k] = true
	}
	panic("graph: no repeated edge in a batch with a repeated id")
}

// Admit checks b against g and, only if the whole batch is valid, applies
// it: a refused batch leaves g untouched and is reported with Check's own
// diagnostic. It is how a front door takes outside updates into its mirror.
func (g *Graph) Admit(b Batch) error {
	if err := g.Check(b); err != nil {
		return err
	}
	if err := g.Apply(b); err != nil {
		panic(fmt.Sprintf("graph: a checked batch failed to apply: %v", err))
	}
	return nil
}

// Neighbors calls fn for every neighbor of u with the edge weight, in the
// graph's deterministic, unsorted order, stopping early if fn returns false.
// fn must not modify g. It panics on a u outside [0, N).
func (g *Graph) Neighbors(u int, fn func(v int, w int64) bool) {
	for _, h := range g.adj[u] {
		if !fn(h.v, h.w) {
			return
		}
	}
}

// Degree returns the degree of u. It panics on a u outside [0, N).
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Edges returns all edges in canonical form, grouped by smaller endpoint in
// increasing order, each group in the graph's deterministic, unsorted
// order.
func (g *Graph) Edges() []WeightedEdge {
	out := make([]WeightedEdge, 0, g.m)
	for u, row := range g.adj {
		for _, h := range row {
			if u < h.v {
				out = append(out, WeightedEdge{Edge: Edge{U: u, V: h.v}, Weight: h.w})
			}
		}
	}
	return out
}

// Clone returns a deep copy of the graph, built in one presized pass: its
// table is a copy of g's and its rows are cut from one backing array, so it
// iterates in g's order and takes the same updates to the same order.
func (g *Graph) Clone() *Graph {
	deg := make([]int, g.n)
	for u, row := range g.adj {
		deg[u] = len(row)
	}
	c := rows(g.n, deg)
	for u, row := range g.adj {
		c.adj[u] = append(c.adj[u], row...)
	}
	c.m, c.slots, c.shift = g.m, slices.Clone(g.slots), g.shift
	return c
}
