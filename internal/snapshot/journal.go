package snapshot

import (
	"fmt"

	"repro/internal/graph"
)

// Journal is the delta of a state that changes only by applying update
// batches: the batches applied since the last acknowledged checkpoint, in
// order, boundaries kept. A delta container carries the journal instead of
// the state the batches dirtied, and a restore replays it through the state's
// own apply path (see the package comment, "Delta containers").
//
// A journal is bounded. Past the bound given to Record — or when the owner
// calls Drop, because the state changed by something other than a recorded
// batch — it forgets everything and stays dropped: Encode then declines, the
// chain writes a full base instead of a delta, and the Reset that acknowledges
// it starts the journal again. The zero Journal is empty and recording.
type Journal struct {
	updates graph.Batch // the recorded batches, back to back
	ends    []int       // ends[i] is where batch i ends in updates
	dropped bool
}

// Record appends a copy of b, the batch the state just applied. A journal
// that now holds more than bound updates is dropped.
func (j *Journal) Record(b graph.Batch, bound int) {
	if j.dropped {
		return
	}
	j.updates = append(j.updates, b...)
	j.ends = append(j.ends, len(j.updates))
	if len(j.updates) > bound {
		j.Drop()
	}
}

// Drop forgets the recorded batches; nothing is recorded until Reset.
func (j *Journal) Drop() { *j = Journal{dropped: true} }

// Reset empties the journal and resumes recording: the state's current
// content has been checkpointed in full, acknowledged as a delta, or loaded.
func (j *Journal) Reset() { *j = Journal{updates: j.updates[:0], ends: j.ends[:0]} }

// Len is the number of updates a delta would carry right now.
func (j *Journal) Len() int { return len(j.updates) }

// Encode appends the journal to the current section — a batch count, then
// every batch in the EncodeUpdates layout — and reports true; a dropped
// journal writes nothing and reports false (the state declines the delta).
func (j *Journal) Encode(e *Encoder) bool {
	if j.dropped {
		return false
	}
	e.Int(len(j.ends))
	start := 0
	for _, end := range j.ends {
		EncodeUpdates(e, j.updates[start:end])
		start = end
	}
	return true
}

// Replay is the size of the journals a restore replayed.
type Replay struct{ Batches, Updates int }

// ReplayJournal reads a journal written by Encode and hands its batches, in
// order, to apply. The journal is outside input: the counts are bounded
// against the section, every update is validated over n vertices
// (DecodeUpdates), and a batch of more than maxBatch updates is rejected,
// each before apply sees the batch. The first error stops the replay; what
// was applied before it stays applied, so the state is then to be discarded.
func ReplayJournal(d *Decoder, n, maxBatch int, apply func(graph.Batch) error) (Replay, error) {
	var r Replay
	batches := d.Count(1)
	for i := 0; i < batches; i++ {
		b, err := DecodeUpdates(d, n)
		if err == nil && len(b) > maxBatch {
			err = fmt.Errorf("%d updates exceed the batch cap %d", len(b), maxBatch)
		}
		if err == nil {
			err = apply(b)
		}
		if err != nil {
			return r, fmt.Errorf("snapshot: journal batch %d of %d: %w", i, batches, err)
		}
		r.Batches++
		r.Updates += len(b)
	}
	return r, d.Err()
}

// EncodeUpdates appends one batch to the current section as a count-prefixed
// list of (op, u, v, weight) tuples in application order: the record layout
// of the trace format's batches and of a Journal's. These rows keep their own
// loop rather than a Table's row callback because they sit on the trace
// replay path. Pair with DecodeUpdates.
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
