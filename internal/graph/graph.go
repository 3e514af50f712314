// Package graph defines the shared edge/update vocabulary used by every
// algorithm in the repository, plus a small sequential reference graph used
// by test oracles.
//
// Vertices are integers in [0, n). Edges are unordered pairs {u, v} with
// u != v; the canonical form stores the smaller endpoint first. Edge
// identifiers encode an edge into a single integer index of the incidence
// vector space {0, ..., n^2-1}, matching the vector encoding of the AGM
// sketches (Section 3.1 of the paper).
package graph

import "fmt"

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

// Inserts returns the insertion updates of the batch, in order.
func (b Batch) Inserts() []Update {
	var out []Update
	for _, u := range b {
		if u.Op == Insert {
			out = append(out, u)
		}
	}
	return out
}

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

// Deletes returns the deletion updates of the batch, in order.
func (b Batch) Deletes() []Update {
	var out []Update
	for _, u := range b {
		if u.Op == Delete {
			out = append(out, u)
		}
	}
	return out
}

// Graph is a simple sequential adjacency-set graph. It is the reference
// substrate for oracles and for validating streams (the paper assumes the
// current graph stays simple and deletions target existing edges).
type Graph struct {
	n   int
	adj []map[int]int64 // adj[u][v] = weight
	m   int
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("graph: New(%d)", n))
	}
	adj := make([]map[int]int64, n)
	for i := range adj {
		adj[i] = make(map[int]int64)
	}
	return &Graph{n: n, adj: adj}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the current number of edges.
func (g *Graph) M() int { return g.m }

// Has reports whether edge {u, v} is present.
func (g *Graph) Has(u, v int) bool {
	_, ok := g.adj[u][v]
	return ok
}

// Weight returns the weight of edge {u, v} and whether it exists.
func (g *Graph) Weight(u, v int) (int64, bool) {
	w, ok := g.adj[u][v]
	return w, ok
}

// Insert adds edge {u, v} with weight w. It returns an error if the edge is
// already present or is a self loop.
func (g *Graph) Insert(u, v int, w int64) error {
	if u == v {
		return fmt.Errorf("graph: insert self-loop {%d,%d}", u, v)
	}
	if g.Has(u, v) {
		return fmt.Errorf("graph: insert duplicate edge {%d,%d}", u, v)
	}
	g.adj[u][v] = w
	g.adj[v][u] = w
	g.m++
	return nil
}

// Delete removes edge {u, v}. It returns an error if the edge is absent.
func (g *Graph) Delete(u, v int) error {
	if !g.Has(u, v) {
		return fmt.Errorf("graph: delete missing edge {%d,%d}", u, v)
	}
	delete(g.adj[u], v)
	delete(g.adj[v], u)
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
func (g *Graph) Check(b Batch) error {
	touched := make(map[Edge]struct{}, len(b))
	for i, up := range b {
		e := up.Edge.Canonical()
		if e.U < 0 || e.V >= g.n {
			return fmt.Errorf("update %d: edge {%d,%d} outside vertex range [0,%d)", i, e.U, e.V, g.n)
		}
		if e.U == e.V {
			return fmt.Errorf("update %d: self-loop {%d,%d}", i, e.U, e.V)
		}
		if _, dup := touched[e]; dup {
			return fmt.Errorf("update %d: edge {%d,%d} touched twice in one batch", i, e.U, e.V)
		}
		touched[e] = struct{}{}
		switch up.Op {
		case Insert:
			if g.Has(e.U, e.V) {
				return fmt.Errorf("update %d: insert of present edge {%d,%d}", i, e.U, e.V)
			}
		case Delete:
			if !g.Has(e.U, e.V) {
				return fmt.Errorf("update %d: delete of absent edge {%d,%d}", i, e.U, e.V)
			}
		default:
			return fmt.Errorf("update %d: unknown op %d", i, up.Op)
		}
	}
	return nil
}

// Neighbors calls fn for every neighbor of u with the edge weight, in
// unspecified order, stopping early if fn returns false.
func (g *Graph) Neighbors(u int, fn func(v int, w int64) bool) {
	for v, w := range g.adj[u] {
		if !fn(v, w) {
			return
		}
	}
}

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Edges returns all edges in canonical form, in unspecified order.
func (g *Graph) Edges() []WeightedEdge {
	out := make([]WeightedEdge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for v, w := range g.adj[u] {
			if u < v {
				out = append(out, WeightedEdge{Edge: Edge{U: u, V: v}, Weight: w})
			}
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		for v, w := range g.adj[u] {
			c.adj[u][v] = w
		}
	}
	c.m = g.m
	return c
}
