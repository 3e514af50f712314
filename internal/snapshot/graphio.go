package snapshot

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// EncodeGraph appends g's live edge set to the current section as a
// count-prefixed list of (u, v, weight) triples in canonical sorted order,
// so two identical graphs always serialize to identical bytes regardless of
// insertion history. Pair with DecodeGraphInto.
func EncodeGraph(e *Encoder, g *graph.Graph) {
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	e.Int(len(edges))
	for _, we := range edges {
		e.Int(we.U)
		e.Int(we.V)
		e.I64(we.Weight)
	}
}

// DecodeGraphInto reads an edge list written by EncodeGraph and inserts it
// into g, which must be freshly constructed over the right vertex count.
// The count prefix is bounded against the section before anything is
// allocated, and each edge is validated by the graph itself (range, parallel
// edges), so corrupt input fails with a diagnostic.
func DecodeGraphInto(d *Decoder, g *graph.Graph) error {
	cnt := d.Count(3)
	for i := 0; i < cnt && d.Err() == nil; i++ {
		u, v := d.Int(), d.Int()
		w := d.I64()
		if d.Err() != nil {
			break
		}
		if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
			return fmt.Errorf("snapshot graph edge {%d,%d}: vertex out of range [0,%d)", u, v, g.N())
		}
		if err := g.Insert(u, v, w); err != nil {
			return fmt.Errorf("snapshot graph edge {%d,%d}: %w", u, v, err)
		}
	}
	return d.Err()
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
