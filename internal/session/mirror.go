package session

import (
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

// Checkpoint implements snapshot.Checkpointer.
func (m *Mirror) Checkpoint(e *snapshot.Encoder) {
	e.Begin(tagMirror)
	snapshot.EncodeGraph(e, m.g)
}

// Restore implements snapshot.Restorer: the checkpointed edge set replaces
// the mirror's (over the same vertex count).
func (m *Mirror) Restore(d *snapshot.Decoder) error {
	d.Begin(tagMirror)
	if m.g.M() > 0 {
		m.g = graph.New(m.g.N())
	}
	return snapshot.DecodeGraphInto(d, m.g)
}
