package snapshot

import (
	"fmt"

	"repro/internal/graph"
)

// DeltaMagic identifies a delta container: "MPCDELT1" read as a big-endian
// word. A delta carries only what changed since a previous checkpoint — the
// update batches applied since, to be replayed (see Journal) — under the same
// version/CRC discipline as the full container, plus a chain header naming
// the exact snapshot it extends.
const DeltaMagic uint64 = 0x4d504344454c5431

// tagChain is the reserved first section of every delta container: the
// chain-identity header (base id, predecessor id, sequence number). It is
// validated before any state section is handed to a restorer.
const tagChain = 0x0D

// ChainLink identifies one delta's position in a checkpoint chain. Snapshot
// identities are container CRC words (see Encoder.WriteContainer): a deterministic
// fingerprint of the full container bytes, so a delta names precisely which
// byte-exact base and predecessor it extends.
type ChainLink struct {
	// Base is the identity of the full base snapshot the chain grows from.
	Base uint64
	// Prev is the identity of the immediate predecessor container: the base
	// itself for the first delta (Seq 1), the previous delta afterwards.
	Prev uint64
	// Seq is the 1-based position of this delta in the chain.
	Seq uint64
}

// DeltaState is the full contract of incrementally checkpointable state:
// full checkpoint/restore, delta checkpoint/restore, and an acknowledgement
// hook. Checkpoint and CheckpointDelta never reset what the state keeps for
// its next delta themselves — the caller invokes AckCheckpoint only after
// the container has been durably written, so a failed write simply folds the
// same changes into the next attempt instead of losing them.
type DeltaState interface {
	Checkpointer
	Restorer
	// CheckpointDelta serializes just the changes since the last
	// acknowledged checkpoint. Like Checkpoint, it must not mutate
	// observable state. It reports false to decline: the state cannot
	// express those changes as a delta (its Journal was dropped), whatever
	// it appended is discarded, and the chain writes a full base instead.
	CheckpointDelta(e *Encoder) bool
	// RestoreDelta applies a delta's sections on top of already-restored
	// state (the base, or the base plus earlier deltas of the chain) and
	// reports the journal it replayed to do so. When then is not nil it is
	// handed every batch the state replays, after the state applied it, so a
	// companion that took the same updates (session's Mirror) replays the
	// state's journal instead of keeping one of its own.
	RestoreDelta(d *Decoder, then func(graph.Batch) error) (Replay, error)
	// AckCheckpoint marks the current state as captured: the next
	// CheckpointDelta emits only changes made after this call.
	AckCheckpoint()
}

// chainHeader declares the tagChain section: link's three words.
func chainHeader(link *ChainLink) *Image {
	return &Image{Pkg: "snapshot", Sections: []Section{{Tag: tagChain, Parts: []Part{
		Scalar("base", &link.Base), Scalar("prev", &link.Prev), Scalar("seq", &link.Seq)}}}}
}

// encodeDelta builds one delta container's sections: the chain header
// first, then the state's delta sections. ok is false when there is no delta
// to write: the state cannot write deltas at all, or declines this one.
func encodeDelta(link ChainLink, state State) (e *Encoder, ok bool) {
	ds, ok := state.(DeltaState)
	if !ok {
		return nil, false
	}
	e = NewEncoder()
	chainHeader(&link).Encode(e)
	if !ds.CheckpointDelta(e) {
		return nil, false
	}
	return e, true
}

// readChainHeader consumes the mandatory tagChain section.
func readChainHeader(d *Decoder) (link ChainLink, err error) {
	err = chainHeader(&link).Load(d)
	return link, err
}

// restoreDelta checks a delta's header against the expected position in
// the chain of its base (want.Base is link.Base: the caller has already set
// aside a delta built on another base as an orphan) and, only then, applies
// its sections to the state, reporting what it replayed. A delta at the
// wrong position or off a different predecessor is out of order; so is any
// delta in front of a state that cannot replay one.
func restoreDelta(d *Decoder, link, want ChainLink, state State) (Replay, error) {
	if link.Seq != want.Seq || link.Prev != want.Prev {
		return Replay{}, fmt.Errorf("snapshot: out-of-order delta: link (seq %d, prev %#x) where (seq %d, prev %#x) was expected",
			link.Seq, link.Prev, want.Seq, want.Prev)
	}
	ds, ok := state.(DeltaState)
	if !ok {
		return Replay{}, fmt.Errorf("snapshot: the state being restored (%T) cannot replay deltas", state)
	}
	r, err := ds.RestoreDelta(d, nil)
	if err != nil {
		return r, err
	}
	return r, d.Finish()
}
