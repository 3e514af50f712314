package snapshot

import (
	"fmt"
	"io"
)

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

// DeltaCheckpointer is implemented by state that can serialize just its
// changes since the last acknowledged checkpoint. Like Checkpoint, it must
// not mutate observable state.
type DeltaCheckpointer interface {
	CheckpointDelta(e *Encoder)
}

// DeltaRestorer applies a delta's sections on top of already-restored state
// (the base, or the base plus earlier deltas of the chain).
type DeltaRestorer interface {
	RestoreDelta(d *Decoder) error
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
	DeltaCheckpointer
	DeltaRestorer
	// AckCheckpoint marks the current state as captured: dirty tracking
	// resets, and the next CheckpointDelta emits only changes made after
	// this call.
	AckCheckpoint()
}

// SaveBase writes a full snapshot of the given states (exactly like Save)
// and returns its identity for use as ChainLink.Base. It does not call
// AckCheckpoint — the caller acknowledges after the write is durable.
func SaveBase(w io.Writer, states ...Checkpointer) (uint64, error) {
	_, id, err := encodeFull(states).WriteContainer(w, Magic)
	return id, err
}

// encodeDelta builds one delta container's sections: the chain header
// first, then each state's delta sections in order.
func encodeDelta[S DeltaCheckpointer](link ChainLink, states []S) *Encoder {
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

// SaveDelta writes one delta container. It returns the delta's identity
// (the next link's Prev). Like SaveBase it does not acknowledge the
// checkpoint.
func SaveDelta(w io.Writer, link ChainLink, states ...DeltaCheckpointer) (uint64, error) {
	_, id, err := encodeDelta(link, states).WriteContainer(w, DeltaMagic)
	return id, err
}

// LoadBase restores states from a full snapshot (exactly like Load) and
// returns the container identity, the value deltas of the chain must name
// as their Base.
func LoadBase(r io.Reader, states ...Restorer) (uint64, error) {
	d, id, err := NewContainerDecoder(r, Magic, "snapshot")
	if err != nil {
		return 0, err
	}
	return id, restoreAll(d, states)
}

// PeekDelta verifies one delta container and returns its chain header and
// identity without touching any state.
func PeekDelta(r io.Reader) (ChainLink, uint64, error) {
	d, id, err := NewContainerDecoder(r, DeltaMagic, "delta snapshot")
	if err != nil {
		return ChainLink{}, 0, err
	}
	link, err := readChainHeader(d)
	return link, id, err
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

// LoadDelta verifies one delta container against the expected chain
// position and applies it to the given states. The container checks (magic,
// version, CRC) and the chain-identity checks all run before any state is
// touched: a delta built on a different base is rejected as orphaned, and a
// delta at the wrong position or off a different predecessor as
// out-of-order. It returns the delta's identity (the next link's Prev).
func LoadDelta(r io.Reader, want ChainLink, states ...DeltaRestorer) (uint64, error) {
	d, id, err := NewContainerDecoder(r, DeltaMagic, "delta snapshot")
	if err != nil {
		return 0, err
	}
	link, err := readChainHeader(d)
	if err != nil {
		return 0, err
	}
	return id, restoreDelta(d, link, want, states)
}

// restoreDelta checks a delta's header against the expected chain position
// and, only then, applies its sections to the states.
func restoreDelta[S DeltaRestorer](d *Decoder, link, want ChainLink, states []S) error {
	if link.Base != want.Base {
		return fmt.Errorf("snapshot: orphaned delta: built on base %#x, restoring chain of base %#x", link.Base, want.Base)
	}
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
