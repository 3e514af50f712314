package snapshot

import "fmt"

// DeltaMagic identifies a delta container: "MPCDELT1" read as a big-endian
// word. A delta carries only the state dirtied since a previous checkpoint,
// under the same version/CRC discipline as the full container, plus a chain
// header naming the exact snapshot it extends.
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
// hook. Checkpoint and CheckpointDelta never reset the state's dirty
// tracking themselves — the caller invokes AckCheckpoint only after the
// container has been durably written, so a failed write simply folds the
// same changes into the next attempt instead of losing them.
type DeltaState interface {
	Checkpointer
	Restorer
	// CheckpointDelta serializes just the changes since the last
	// acknowledged checkpoint. Like Checkpoint, it must not mutate
	// observable state.
	CheckpointDelta(e *Encoder)
	// RestoreDelta applies a delta's sections on top of already-restored
	// state (the base, or the base plus earlier deltas of the chain).
	RestoreDelta(d *Decoder) error
	// AckCheckpoint marks the current state as captured: dirty tracking
	// resets, and the next CheckpointDelta emits only changes made after
	// this call.
	AckCheckpoint()
}

// encodeDelta builds one delta container's sections: the chain header
// first, then each state's delta sections in order.
func encodeDelta(link ChainLink, states []DeltaState) *Encoder {
	e := NewEncoder()
	e.Begin(tagChain)
	e.U64(link.Base)
	e.U64(link.Prev)
	e.U64(link.Seq)
	for _, s := range states {
		s.CheckpointDelta(e)
	}
	return e
}

// readChainHeader consumes the mandatory tagChain section.
func readChainHeader(d *Decoder) (ChainLink, error) {
	d.Begin(tagChain)
	link := ChainLink{Base: d.U64(), Prev: d.U64(), Seq: d.U64()}
	if err := d.Err(); err != nil {
		return ChainLink{}, err
	}
	return link, nil
}

// restoreDelta checks a delta's header against the expected position in
// the chain of its base (want.Base is link.Base: the caller has already set
// aside a delta built on another base as an orphan) and, only then, applies
// its sections to the states. A delta at the wrong position or off a
// different predecessor is out of order.
func restoreDelta(d *Decoder, link, want ChainLink, states []DeltaState) error {
	if link.Seq != want.Seq || link.Prev != want.Prev {
		return fmt.Errorf("snapshot: out-of-order delta: link (seq %d, prev %#x) where (seq %d, prev %#x) was expected",
			link.Seq, link.Prev, want.Seq, want.Prev)
	}
	for _, s := range states {
		if err := s.RestoreDelta(d); err != nil {
			return err
		}
	}
	return d.Finish()
}
