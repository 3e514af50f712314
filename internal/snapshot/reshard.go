package snapshot

import "io"

// ReshardRestorer is implemented by state that can load a full snapshot
// written at any machine count, redistributing per-machine state onto its
// own (freshly constructed) cluster shape — the state's Restore without
// the same-shape demand. Implementations must re-validate the target's
// per-machine memory budget and reject — leaving the instance untouched —
// rather than silently violating the model; see the package comment's
// re-sharding notes.
type ReshardRestorer interface {
	ReshardRestore(d *Decoder) error
}

// Reshard reads one full snapshot from r and restores the given states in
// order (which must match the Save order), allowing the snapshot's machine
// count to differ from the instances'. The container is verified (magic,
// version, CRC) before any state is touched, exactly like Load; delta
// containers are rejected — re-sharding a delta chain goes through a
// staging instance at the source shape (restore the chain, checkpoint it
// fully in memory, Reshard that), because a delta alone does not carry the
// full state to migrate.
func Reshard(r io.Reader, states ...ReshardRestorer) error {
	d, err := NewDecoder(r)
	if err != nil {
		return err
	}
	for _, s := range states {
		if err := s.ReshardRestore(d); err != nil {
			return err
		}
	}
	return d.Finish()
}
