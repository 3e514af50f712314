package snapshot

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// graphEdges is a graph's edge set as a table of (u, v, weight) rows in
// canonical sorted order, so two identical graphs always serialize to
// identical bytes regardless of insertion history.
func graphEdges(g *graph.Graph, edges []graph.WeightedEdge) *Table {
	return &Table{Name: "graph edges", Len: len(edges), Row: func(r int, row []uint64) {
		row[0], row[1], row[2] = uint64(edges[r].U), uint64(edges[r].V), uint64(edges[r].Weight)
	}, Layout: Layout{Width: 3, Key: 2, Order: "edge", Fields: []Field{{Name: "u", Hi: g.N()}, {Name: "v", Hi: g.N(), Above: true}}}}
}

// EncodeGraph appends g's live edge set to the current section (graphEdges).
// Pair with DecodeGraphInto.
func EncodeGraph(e *Encoder, g *graph.Graph) {
	edges := g.Edges()
	slices.SortFunc(edges, func(a, b graph.WeightedEdge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	graphEdges(g, edges).put(e)
}

// DecodeGraphInto reads an edge list written by EncodeGraph and inserts it
// into g, which must be freshly constructed over the right vertex count.
// The count prefix is bounded against the section before anything is
// allocated, and every row is validated (endpoints in range, canonical, in
// strictly increasing order, so no edge twice) before g is touched.
func DecodeGraphInto(d *Decoder, g *graph.Graph) error {
	t := graphEdges(g, nil)
	if err := Get(d, "graph", t); err != nil {
		return err
	}
	for r := range t.Rows() {
		row := t.At(r)
		if err := g.Insert(int(row[0]), int(row[1]), int64(row[2])); err != nil {
			return fmt.Errorf("snapshot graph edges row %d: %w", r, err)
		}
	}
	return nil
}

// EncodeUpdates appends one batch to the current section as a count-prefixed
// list of (op, u, v, weight) tuples in application order. Unlike EncodeGraph
// this preserves history, not just the final edge set: it is the record
// layout of the trace format's batches and of a Journal's. Pair with
// DecodeUpdates.
func EncodeUpdates(e *Encoder, b graph.Batch) {
	e.Int(len(b))
	for _, up := range b {
		e.U64(uint64(up.Op))
		e.Int(up.Edge.U)
		e.Int(up.Edge.V)
		e.I64(up.Weight)
	}
}

// DecodeUpdates reads one batch written by EncodeUpdates as outside input
// over n vertices: the count prefix is bounded against the section before
// anything is allocated, and an unknown op, an endpoint outside [0, n) or a
// self-loop is a diagnostic. Edges come back canonical. Validity against a
// graph (insert of a present edge, delete of an absent one) is the caller's
// to check.
func DecodeUpdates(d *Decoder, n int) (graph.Batch, error) {
	cnt := d.Count(4)
	out := make(graph.Batch, 0, cnt)
	for i := 0; i < cnt; i++ {
		op := d.U64()
		u, v := d.Int(), d.Int()
		w := d.I64()
		if d.Err() != nil {
			break
		}
		switch {
		case op != uint64(graph.Insert) && op != uint64(graph.Delete):
			return nil, fmt.Errorf("bad op %d", op)
		case u < 0 || u >= n || v < 0 || v >= n:
			return nil, fmt.Errorf("edge {%d,%d}: vertex out of range [0,%d)", u, v, n)
		case u == v:
			return nil, fmt.Errorf("self loop {%d,%d}", u, v)
		}
		out = append(out, graph.Update{Op: graph.Op(op), Edge: graph.NewEdge(u, v), Weight: w})
	}
	return out, d.Err()
}
