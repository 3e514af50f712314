package session

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/snapshot"
)

// Mirror is the reference graph a front door keeps beside the algorithm
// state: every batch is validated against it before the algorithm sees the
// batch, so the algorithm only ever applies valid ones. It is a companion
// state of the session's checkpoints rather than part of the algorithm
// state because a front door may advance it ahead of the algorithm (the
// server admits a batch into the mirror when it queues it, the applier
// catches up later). It keeps no journal: a delta is cut only once the state
// has taken every admitted update, so the state's journal is the mirror's
// too, and a delta restore replays it into both (Session.Restore).
//
// The zero Mirror has no graph yet; it is usable only as the target of a
// Session restore, which sizes it from the checkpoint.
type Mirror struct {
	g *graph.Graph
}

// NewMirror returns an empty mirror over n vertices.
func NewMirror(n int) *Mirror { return &Mirror{g: graph.New(n)} }

// Graph returns the mirror graph. A restore replaces it.
func (m *Mirror) Graph() *graph.Graph { return m.g }

// Admit validates b against the mirror and, only if the whole batch is
// valid, applies it (graph.Graph.Admit).
func (m *Mirror) Admit(b graph.Batch) error { return m.g.Admit(b) }

// tagMirror is the mirror's section: its edge set, in full containers only.
// 0x73 and 0x74 were its journals in deltas (flat, then with batch
// boundaries) and stay retired, like core's physical-delta tags.
const tagMirror = 0x71

// image declares the mirror's section: its edge set as a table of (u, v,
// weight) rows in edge order, so two equal graphs write equal bytes whatever
// their insertion history. edges are the rows to write, sorted; a load
// passes none. Its install replaces the graph with one over the same vertex
// count holding exactly the rows, built in one presized pass that reads the
// decoded table in place (graph.FromEdges).
func (m *Mirror) image(edges []graph.WeightedEdge) *snapshot.Image {
	n := m.g.N()
	t := &snapshot.Table{Name: "graph edges", Len: len(edges), Row: func(r int, row []uint64) {
		row[0], row[1], row[2] = uint64(edges[r].U), uint64(edges[r].V), uint64(edges[r].Weight)
	}, Layout: snapshot.Layout{Width: 3, Key: 2, Order: "edge", Fields: []snapshot.Field{{Name: "u", Hi: n}, {Name: "v", Hi: n, Above: true}}}}
	return &snapshot.Image{Pkg: "session", Sections: []snapshot.Section{{Tag: tagMirror, Parts: []snapshot.Part{t}}}, Install: func() {
		g, err := graph.FromEdges(n, t.Rows(), func(r int) graph.WeightedEdge {
			row := t.At(r)
			return graph.WeightedEdge{Edge: graph.Edge{U: int(row[0]), V: int(row[1])}, Weight: int64(row[2])}
		})
		if err != nil {
			// The layout checks (endpoints in range, u below v, strictly
			// increasing) rule this out before the install runs.
			panic(fmt.Sprintf("session: installing a checked mirror image: %v", err))
		}
		m.g = g
	}}
}

// Checkpoint implements snapshot.Checkpointer.
func (m *Mirror) Checkpoint(e *snapshot.Encoder) {
	edges := m.g.Edges()
	slices.SortFunc(edges, func(a, b graph.WeightedEdge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	m.image(edges).Encode(e)
}

// Restore implements snapshot.Restorer: the checkpointed edge set replaces
// the mirror's (over the same vertex count). Every row is validated — both
// endpoints in range, u below v, in strictly increasing order — before the
// graph is touched.
func (m *Mirror) Restore(d *snapshot.Decoder) error { return m.image(nil).Load(d) }
