package session

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/snapshot"
)

// Mirror is the reference graph a front door keeps beside the algorithm
// state: every batch is validated against it before the algorithm sees the
// batch, so the algorithm only ever applies valid ones. It is a companion
// state of the session's checkpoints rather than part of the algorithm
// state because a front door may advance it ahead of the algorithm (the
// server admits a batch into the mirror when it queues it, the applier
// catches up later). The journal of admitted updates is what a delta
// checkpoint ships instead of the whole edge set.
//
// The zero Mirror has no graph yet; it is usable only as the target of a
// Session restore, which sizes it from the checkpoint.
type Mirror struct {
	g *graph.Graph
	// journal holds the admitted batches since the last acknowledged
	// checkpoint, bounded by the mirror's own size: a delta replaying more
	// updates than the base holds edges is never cheaper than a full
	// snapshot, so past that the journal is dropped, the next checkpoint is a
	// full one, and journaling resumes after it.
	journal snapshot.Journal
	// durable is set by the session when a chain stands behind the mirror;
	// without one nothing will ever ask for a delta, so nothing is journaled.
	durable bool
}

// NewMirror returns an empty mirror over n vertices.
func NewMirror(n int) *Mirror { return MirrorOf(graph.New(n)) }

// MirrorOf adopts g, which the caller may keep advancing itself (a
// generator's own mirror); updates that bypass Admit are not journaled, so
// such a mirror is only ever checkpointed in full.
func MirrorOf(g *graph.Graph) *Mirror { return &Mirror{g: g} }

// Graph returns the mirror graph. A restore replaces it.
func (m *Mirror) Graph() *graph.Graph { return m.g }

// JournalLen is the number of admitted updates a delta checkpoint would
// carry right now.
func (m *Mirror) JournalLen() int { return m.journal.Len() }

// Admit validates b against the mirror and, only if the whole batch is
// valid, applies and journals it. A refused batch leaves the mirror
// untouched and is reported with graph.Check's own diagnostic.
func (m *Mirror) Admit(b graph.Batch) error {
	if err := m.g.Check(b); err != nil {
		return err
	}
	if err := m.g.Apply(b); err != nil {
		// Unreachable after Check; fail loudly rather than desync.
		return fmt.Errorf("mirror diverged: %w", err)
	}
	if m.durable {
		m.journal.Record(b, m.g.M())
	}
	return nil
}

var _ snapshot.DeltaState = (*Mirror)(nil)

// Section tags of the mirror: the edge set in a full container, the journal
// in a delta. 0x73 was the journal before it kept batch boundaries and stays
// retired, like core's physical-delta tags.
const (
	tagMirror        = 0x71
	tagMirrorJournal = 0x74
)

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
	m.journal.Reset()
	return snapshot.DecodeGraphInto(d, m.g)
}

// CheckpointDelta implements snapshot.DeltaState: replaying the journal onto
// the restored base mirror reproduces the mirror exactly. It declines once
// the journal has overflowed.
func (m *Mirror) CheckpointDelta(e *snapshot.Encoder) bool {
	e.Begin(tagMirrorJournal)
	return m.journal.Encode(e)
}

// RestoreDelta implements snapshot.DeltaState. The graph itself rejects what
// does not apply (insert of a present edge, delete of an absent one).
func (m *Mirror) RestoreDelta(d *snapshot.Decoder) (snapshot.Replay, error) {
	d.Begin(tagMirrorJournal)
	return snapshot.ReplayJournal(d, m.g.N(), math.MaxInt, m.g.Apply)
}

// AckCheckpoint implements snapshot.DeltaState: the written mirror is the
// new delta baseline.
func (m *Mirror) AckCheckpoint() { m.journal.Reset() }
