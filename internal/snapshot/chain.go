package snapshot

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
)

// State is what a Chain checkpoints: anything that can write and reload a
// full snapshot of itself. A state that also implements DeltaState lets the
// chain write deltas; one that does not — or that declines one — gets a full
// base.
type State interface {
	Checkpointer
	Restorer
}

// Chain manages a checkpoint chain in a Store: one full base snapshot at
// path plus a bounded run of deltas path.delta-001, path.delta-002, …, each
// naming (via its ChainLink header) the exact base and predecessor it
// extends. Checkpoint decides full-vs-delta and handles compaction; Restore
// replays base + chain and tolerates the leftovers a crash mid-compaction
// can leave behind. A Chain is a single-writer object — the process that
// owns the snapshot directory.
type Chain struct {
	store     Store
	path      string
	maxDeltas int

	// linked reports whether this process materialized the on-disk tip —
	// either by restoring the chain or by writing its last container. Deltas
	// are written only while linked: any doubt (fresh chain, failed write)
	// forces the next checkpoint to be a full base.
	linked bool
	baseID uint64 // identity of the on-disk base snapshot
	tipID  uint64 // identity of the last container in the chain (base if seq==0)
	seq    int    // number of deltas currently in the chain

	// orphansRemoved counts stale delta files Restore deleted (leftovers of
	// a crash between base rewrite and delta cleanup during compaction).
	orphansRemoved int
	// replayed sums the journals the states replayed during the last Restore.
	replayed Replay
}

// Checkpoint kinds reported by Chain.Checkpoint.
const (
	KindFull  = "full"
	KindDelta = "delta"
)

// OpenChain returns a chain manager over files rooted at path. maxDeltas
// bounds the chain length: once that many deltas extend the base, the next
// Checkpoint folds everything into a fresh full base (compaction).
// maxDeltas <= 0 disables deltas entirely — every Checkpoint is full.
func OpenChain(path string, maxDeltas int) *Chain {
	return OpenChainIn(FileStore{}, path, maxDeltas)
}

// OpenChainIn is OpenChain over any Store; path names the base container.
func OpenChainIn(store Store, path string, maxDeltas int) *Chain {
	return &Chain{store: store, path: path, maxDeltas: maxDeltas}
}

// Path returns the base snapshot path the chain is rooted at.
func (c *Chain) Path() string { return c.path }

// Rebase severs the chain's link to its on-disk history: the next
// Checkpoint writes a fresh full base and sweeps any stale delta files.
// Call it when the live state stops matching the history the chain
// describes — e.g. after an elastic resize migrates the state onto a new
// cluster shape — so no delta is ever appended to old-shape containers.
func (c *Chain) Rebase() { c.linked = false }

// Len returns the number of deltas currently extending the base.
func (c *Chain) Len() int { return c.seq }

// OrphansRemoved reports how many stale delta files the last Restore swept.
func (c *Chain) OrphansRemoved() int { return c.orphansRemoved }

// Replayed reports the update batches the last Restore replayed on top of the
// base, over all Len() deltas: what its time grows with.
func (c *Chain) Replayed() Replay { return c.replayed }

func (c *Chain) deltaPath(seq int) string {
	return fmt.Sprintf("%s.delta-%03d", c.path, seq)
}

// Checkpoint writes the next checkpoint in the chain: a delta extending the
// current tip when one exists, the chain is still under maxDeltas, and every
// state implements DeltaState and agrees to write one; a fresh full base
// otherwise (first checkpoint, compaction due, the previous write failed, a
// state that cannot write deltas, or one that declines this delta because its
// journal overflowed or it changed outside its journal). The write is atomic
// either way; on success every DeltaState's AckCheckpoint runs, so journals
// reset only once the bytes are durable. Compaction is crash-safe by ordering:
// the new base replaces the old atomically first, and only then are the
// now-stale delta files removed — a crash in between leaves deltas whose Base
// identity no longer matches, which Restore detects and sweeps.
//
// It reports which kind was written ("full" or "delta") and the container
// size in bytes.
func (c *Chain) Checkpoint(states ...State) (kind string, bytes int64, err error) {
	if c.linked && c.maxDeltas > 0 && c.seq < c.maxDeltas {
		link := ChainLink{Base: c.baseID, Prev: c.tipID, Seq: uint64(c.seq + 1)}
		if e, ok := encodeDelta(link, states); ok {
			id, n, err := c.put(c.deltaPath(c.seq+1), DeltaMagic, e)
			if err != nil {
				return KindDelta, 0, err
			}
			c.seq++
			c.tipID = id
			ack(states)
			return KindDelta, n, nil
		}
	}
	staleDeltas := c.seq
	if !c.linked {
		// We did not materialize the stored chain; there may be deltas from
		// a previous incarnation beyond what we know about. Scan.
		staleDeltas = c.countDeltas()
	}
	id, n, err := c.put(c.path, Magic, encodeFull(states))
	if err != nil {
		return KindFull, 0, err
	}
	// The new base is durable; stale deltas reference the old base identity
	// and must go. Removal failures are not fatal to the checkpoint — the
	// leftovers carry a mismatching Base and Restore ignores them — but we
	// try here so the directory stays tidy.
	for s := 1; s <= staleDeltas; s++ {
		c.store.Remove(c.deltaPath(s))
	}
	c.linked = true
	c.baseID = id
	c.tipID = id
	c.seq = 0
	ack(states)
	return KindFull, n, nil
}

// put stores one container atomically and returns its identity and size.
// Any doubt about what the store now holds unlinks the chain.
func (c *Chain) put(name string, magic uint64, e *Encoder) (id uint64, n int64, err error) {
	err = c.store.Put(name, func(w io.Writer) (err error) {
		n, id, err = e.WriteContainer(w, magic)
		return err
	})
	if err != nil {
		c.linked = false
	}
	return id, n, err
}

// ack runs AckCheckpoint on every state that keeps a delta baseline.
func ack(states []State) {
	for _, s := range states {
		if ds, ok := s.(DeltaState); ok {
			ds.AckCheckpoint()
		}
	}
}

// countDeltas returns the highest contiguous delta sequence present in the
// store starting at 1.
func (c *Chain) countDeltas() int {
	n := 0
	for {
		f, err := c.store.Open(c.deltaPath(n + 1))
		if err != nil {
			return n
		}
		f.Close()
		n++
	}
}

// Restore loads the base snapshot and replays every delta that links to it,
// in sequence, leaving the chain ready to extend with further deltas. It
// returns (false, nil) when no base exists (fresh start). Chain-identity
// validation runs per delta before any of that delta's state is touched:
// a delta naming a different base is an orphan from a crash mid-compaction
// and is removed (counted in OrphansRemoved) along with everything after
// it; a corrupt or torn container is a hard error, because the chain it
// belongs to cannot be trusted — and so is a delta in front of a state that
// cannot replay one.
func (c *Chain) Restore(states ...State) (bool, error) {
	c.linked = false
	c.orphansRemoved = 0
	c.replayed = Replay{}
	f, err := c.store.Open(c.path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	d, baseID, err := NewContainerDecoder(f, Magic, "snapshot")
	f.Close()
	if err == nil {
		err = restoreAll(d, states)
	}
	if err != nil {
		return false, fmt.Errorf("restoring base %s: %w", c.path, err)
	}
	c.baseID = baseID
	c.tipID = baseID
	c.seq = 0
	for {
		next := c.deltaPath(c.seq + 1)
		df, err := c.store.Open(next)
		if errors.Is(err, fs.ErrNotExist) {
			break
		}
		if err != nil {
			return false, err
		}
		// One decode serves both questions: the container is verified and
		// its header read first, so an orphaned delta (stale Base from a
		// crash between compaction's base rewrite and its delta cleanup) is
		// swept, not an error. Anything else wrong — corruption, truncation,
		// a sequence break — is.
		d, id, err := NewContainerDecoder(df, DeltaMagic, "delta snapshot")
		df.Close()
		var link ChainLink
		if err == nil {
			link, err = readChainHeader(d)
		}
		if err != nil {
			return false, fmt.Errorf("restoring delta %s: %w", next, err)
		}
		if link.Base != c.baseID {
			c.removeOrphansFrom(c.seq + 1)
			break
		}
		want := ChainLink{Base: c.baseID, Prev: c.tipID, Seq: uint64(c.seq + 1)}
		r, err := restoreDelta(d, link, want, states)
		if err != nil {
			return false, fmt.Errorf("restoring delta %s: %w", next, err)
		}
		c.replayed.Batches += r.Batches
		c.replayed.Updates += r.Updates
		c.seq++
		c.tipID = id
	}
	c.linked = true
	return true, nil
}

// removeOrphansFrom deletes deltas from sequence seq upward until a gap,
// counting the removals.
func (c *Chain) removeOrphansFrom(seq int) {
	for s := seq; ; s++ {
		if err := c.store.Remove(c.deltaPath(s)); err != nil {
			return
		}
		c.orphansRemoved++
	}
}
