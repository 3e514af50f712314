package graph

import (
	"fmt"
	"slices"
	"testing"
)

// refGraph is a map-based graph with the validator Graph had before it
// became flat. It lives only here, as the reference
// FuzzGraphMatchesReference holds Graph to.
type refGraph struct {
	n     int
	edges map[Edge]int64
}

func newRef(n int) *refGraph { return &refGraph{n: n, edges: map[Edge]int64{}} }

func (r *refGraph) has(u, v int) bool {
	if u == v {
		return false
	}
	_, ok := r.edges[NewEdge(u, v)]
	return ok
}

func (r *refGraph) check(b Batch) error {
	touched := make(map[Edge]struct{}, len(b))
	for i, up := range b {
		e := up.Edge.Canonical()
		if e.U < 0 || e.V >= r.n {
			return fmt.Errorf("update %d: edge {%d,%d} outside vertex range [0,%d)", i, e.U, e.V, r.n)
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
			if r.has(e.U, e.V) {
				return fmt.Errorf("update %d: insert of present edge {%d,%d}", i, e.U, e.V)
			}
		case Delete:
			if !r.has(e.U, e.V) {
				return fmt.Errorf("update %d: delete of absent edge {%d,%d}", i, e.U, e.V)
			}
		default:
			return fmt.Errorf("update %d: unknown op %d", i, up.Op)
		}
	}
	return nil
}

// apply applies a batch check admitted.
func (r *refGraph) apply(b Batch) {
	for _, up := range b {
		if up.Op == Insert {
			r.edges[up.Edge.Canonical()] = up.Weight
		} else {
			delete(r.edges, up.Edge.Canonical())
		}
	}
}

// sameAs reports the first way g differs from r: its counts, every pair's
// Has and Weight (endpoints one past either end of the range and
// self-loops included), every vertex's Degree and Neighbors, and Edges.
func (r *refGraph) sameAs(g *Graph) error {
	if g.M() != len(r.edges) {
		return fmt.Errorf("M = %d, want %d", g.M(), len(r.edges))
	}
	for u := -1; u <= r.n; u++ {
		for v := -1; v <= r.n; v++ {
			want, in := int64(0), false
			if u != v && u >= 0 && v >= 0 && u < r.n && v < r.n {
				want, in = r.edges[NewEdge(u, v)]
			}
			if g.Has(u, v) != in {
				return fmt.Errorf("Has(%d,%d) = %v, want %v", u, v, !in, in)
			}
			if w, ok := g.Weight(u, v); w != want || ok != in {
				return fmt.Errorf("Weight(%d,%d) = %d, %v, want %d, %v", u, v, w, ok, want, in)
			}
		}
	}
	for u := 0; u < r.n; u++ {
		want := map[int]int64{}
		for e, w := range r.edges {
			if e.Has(u) {
				want[e.Other(u)] = w
			}
		}
		if g.Degree(u) != len(want) {
			return fmt.Errorf("Degree(%d) = %d, want %d", u, g.Degree(u), len(want))
		}
		got := map[int]int64{}
		g.Neighbors(u, func(v int, w int64) bool {
			got[v] = w
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("Neighbors(%d) = %v, want %v", u, got, want)
		}
	}
	got := map[Edge]int64{}
	for _, e := range g.Edges() {
		if e.U >= e.V {
			return fmt.Errorf("Edges lists non-canonical %v", e.Edge)
		}
		if _, dup := got[e.Edge]; dup {
			return fmt.Errorf("Edges lists %v twice", e.Edge)
		}
		got[e.Edge] = e.Weight
	}
	if fmt.Sprint(got) != fmt.Sprint(r.edges) {
		return fmt.Errorf("Edges = %v, want %v", got, r.edges)
	}
	return nil
}

// fuzzBatches decodes data into a vertex count and a stream of batches.
// Four bytes make an update: the op (insert, delete, an unknown op, or the
// end of the batch), two endpoints that may lie one outside either end of
// the range, and a signed weight.
func fuzzBatches(data []byte) (int, []Batch) {
	if len(data) == 0 {
		return 2, nil
	}
	n := 2 + int(data[0]%11)
	var out []Batch
	var b Batch
	for data = data[1:]; len(data) >= 4; data = data[4:] {
		u, v := int(data[1])%(n+2)-1, int(data[2])%(n+2)-1
		up := Update{Edge: Edge{U: u, V: v}, Weight: int64(int8(data[3]))}
		switch data[0] % 8 {
		case 0, 1, 2:
			up.Op = Insert
		case 3, 4, 5:
			up.Op = Delete
		case 6:
			up.Op = Op(2 + data[0]/8)
		case 7:
			out, b = append(out, b), nil
			continue
		}
		b = append(b, up)
	}
	return n, append(out, b)
}

// FuzzGraphMatchesReference runs random batches — endpoints out of range,
// self-loops, edges touched twice, unknown ops, weights, deletes of absent
// edges — through Graph and the map-based reference. Check must give the
// same verdict and diagnostic, a refused Admit must leave the graph as it
// was, and after every batch the graph must match the reference through
// every read method. A Clone taken before each batch is fed the batch
// first: the source must not see it, and the clone must then match too.
func FuzzGraphMatchesReference(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 5, 0, 2, 3, 7, 7, 0, 0, 0, 3, 1, 2, 0, 0, 3, 4, 0})
	f.Add([]byte{8, 0, 1, 2, 1, 3, 1, 2, 0, 0, 4, 4, 0, 6, 1, 2, 0, 0, 0, 12, 0})
	f.Add([]byte{3, 0, 0, 1, 9, 0, 1, 2, 9, 7, 0, 0, 0, 0, 0, 1, 9, 3, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, batches := fuzzBatches(data)
		g, ref := New(n), newRef(n)
		for i, b := range batches {
			c := g.Clone()
			want := ref.check(b)
			got := g.Check(b)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("batch %d %v: Check = %v, want %v", i, b, got, want)
			}
			if err := c.Admit(b); fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("batch %d: the clone's Admit = %v, want %v", i, err, want)
			}
			if err := ref.sameAs(g); err != nil {
				t.Fatalf("batch %d: admitting into a clone changed its source: %v", i, err)
			}
			if err := g.Admit(b); fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("batch %d: Admit = %v, want %v", i, err, want)
			}
			if want == nil {
				ref.apply(b)
			}
			if err := ref.sameAs(g); err != nil {
				t.Fatalf("batch %d %v (refused: %v): %v", i, b, want, err)
			}
			if err := ref.sameAs(c); err != nil {
				t.Fatalf("batch %d: clone: %v", i, err)
			}
			if !slices.Equal(c.Edges(), g.Edges()) {
				t.Fatalf("batch %d: the clone iterates %v, its source %v", i, c.Edges(), g.Edges())
			}
		}
	})
}
