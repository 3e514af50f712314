// Package session is the one durable-run lifecycle of the repository: apply
// batches to an algorithm state, checkpoint it through a snapshot.Chain,
// restore it after a kill, and migrate it onto a fleet of a different size.
// The differential harness, the mpcstream replay paths and the mpcserve
// instances all run on a Session and differ only in what they wrap around
// it — oracle checks, flags and printing, locks and queues. The harness's
// TestLifecycleModel drives one through seeded sequences of every
// replacement below, with a store that fails.
//
// A Session takes no locks: callers that share one across goroutines
// serialize its methods themselves (see internal/server).
//
// # Lifetime
//
// Open is the one way to start: it resumes from the chain when the chain
// holds a base (sweeping, on a snapshot.FileStore, the temp files an
// interrupted write left; snapshot.Chain.Restore), and starts a fresh state
// at the configured shape otherwise. From then on the live state is
// replaced in three ways, and each is a Session method:
//
//   - Restore reloads the chain (a crash, or a restart).
//   - Resize migrates the state onto a fleet of exactly the requested size
//     and re-bases the chain there with a full checkpoint.
//   - RecoverOnto is recovery from machine loss, the whole of it: the live
//     state is poisoned, so the last checkpoint is restored (the empty state
//     when there is none), migrated onto the largest fleet of at most the
//     surviving machines that exists (never below one vertex machine plus
//     the coordinator: a further loss is replaced), the batches the caller
//     applied since that checkpoint are replayed, and a full checkpoint
//     re-bases the chain at the new shape. Its Cut is returned; the caller
//     only keeps the replay list. The mirror is not the fleet's, so a
//     machine loss leaves it as it was.
//
// What a state counts about its own work — replacement searches
// (core.SearchStats) and label-cache hits and misses — is not algorithm
// state: no checkpoint carries it, and a restored or migrated state counts
// from zero. Every replacement therefore folds the outgoing state's counts
// into the session, and Session.Counters is the sum over every state the
// session replaced plus the live one. The sum lives in memory only: a
// process that restarts counts from zero again.
//
// # Checkpoint layout
//
// Every container a Session writes starts with the meta echo — vertex count,
// Phi, seed, the live VerticesPerMachine, the applied-batch count and the
// restore-cycle count — followed by the companion Mirror's edge set (when
// the session has one) and the algorithm state. The echo and the edge set
// are each declared once as snapshot parts (meta, Mirror's table), which
// both write and read them. Restore reads the echo first, checks its bounds
// and cross-checks it against the configured shape, builds a fresh state at
// the persisted fleet shape, and only then loads into it. Delta containers
// repeat the echo (it is tiny and keeps each container self-validating) and
// then hold the state's delta: its journal (snapshot.Journal) of the chunks
// it applied since the last acknowledged checkpoint. The mirror writes
// nothing to a delta: a delta is cut only when the mirror and the state have
// taken the same updates, so a restore replays the one journal into both.
// Whether a checkpoint is a full base or a delta is the chain's decision
// alone: it writes a full base whenever the state cannot write deltas or its
// journal has been dropped (overflow, a failed apply).
package session

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// State is an algorithm instance a Session can run: it applies batches and
// checkpoints itself, and its Restore loads a full checkpoint written at any
// machine count, which is all a resize or a machine-loss recovery takes.
// States that also implement snapshot.DeltaState get delta checkpoints
// (embedding a snapshot.Journal is all it takes; only connectivity does so
// far).
type State interface {
	snapshot.Checkpointer
	snapshot.Restorer
	// MaxBatch is the largest batch ApplyBatch accepts.
	MaxBatch() int
	ApplyBatch(b graph.Batch) error
}

// Shape is the cluster configuration a state is built at. A checkpoint
// records N, Phi, Seed and VerticesPerMachine of it (the last changes on
// Resize and RecoverOnto); the rest — execution-engine settings, which are
// not state — is the session's to keep and hand back to the factory.
type Shape = core.Config

// Config parameterizes a Session.
type Config struct {
	// Shape is the initial fleet shape. Open on a chain with a base
	// cross-checks N, Phi and Seed against the checkpoint and takes
	// VerticesPerMachine from it; with N zero it adopts all four from the
	// checkpoint, and a chain without a base is an error.
	Shape Shape
	// New builds a fresh, empty state at the given shape.
	New func(Shape) (State, error)
	// Chain is where checkpoints go; nil makes the session volatile
	// (Checkpoint is a no-op, Restore finds nothing).
	Chain *snapshot.Chain
	// Mirror, when set, is checkpointed and restored beside the state.
	Mirror *Mirror
}

// Session owns one live state, its checkpoint chain, the counters the meta
// echo persists, and the counters of the states it replaced.
type Session struct {
	cfg     Config
	state   State
	shape   Shape
	chain   *snapshot.Chain
	mirror  *Mirror
	applied int
	cycles  uint64
	folded  Counters
}

// Open starts a session: restored from cfg.Chain when it holds a base, on a
// fresh state at cfg.Shape otherwise.
func Open(cfg Config) (*Session, error) {
	s := &Session{cfg: cfg, shape: cfg.Shape, chain: cfg.Chain, mirror: cfg.Mirror}
	if err := s.restart(); err != nil {
		return nil, err
	}
	return s, nil
}

// restart replaces the live state with the chain's, or — when the chain
// holds no base — with a fresh empty state at the live shape.
func (s *Session) restart() error {
	if ok, err := s.Restore(); ok || err != nil {
		return err
	}
	if s.shape.N == 0 {
		return errors.New("session: no snapshot to take the shape from")
	}
	fresh, err := s.cfg.New(s.shape)
	if err != nil {
		return err
	}
	s.replace(fresh)
	s.applied = 0
	return nil
}

// SetChain redirects future checkpoints to c. A chain that did not
// materialize this state starts with a full base.
func (s *Session) SetChain(c *snapshot.Chain) { s.chain = c }

// State returns the live state. Restore, Resize and RecoverOnto replace it.
func (s *Session) State() State { return s.state }

// Counters is what the states of a session count about their own work (see
// the package doc, "# Lifetime").
type Counters struct {
	// Searches sums the replacement searches; nil when the algorithm runs
	// none (its state has no SearchStats method).
	Searches *core.SearchStats
	// CacheHits and CacheMisses count the query batches a label cache
	// answered alone and those that ran its fill collective (zero without
	// one).
	CacheHits, CacheMisses uint64
}

// plus returns c with what st counted added.
func (c Counters) plus(st State) Counters {
	if s, ok := st.(interface{ SearchStats() core.SearchStats }); ok {
		sum := s.SearchStats()
		if c.Searches != nil {
			sum.Add(*c.Searches)
		}
		c.Searches = &sum
	}
	if q, ok := st.(interface{ QueryCacheStats() (hits, misses uint64) }); ok {
		hits, misses := q.QueryCacheStats()
		c.CacheHits += hits
		c.CacheMisses += misses
	}
	return c
}

// Counters returns the counters of every state the session replaced plus
// the live state's.
func (s *Session) Counters() Counters { return s.folded.plus(s.state) }

// replace installs fresh as the live state, folding what the outgoing one
// counted into the session first.
func (s *Session) replace(fresh State) {
	s.folded = s.folded.plus(s.state)
	s.state = fresh
}

// Mirror returns the companion mirror (nil when the session has none).
func (s *Session) Mirror() *Mirror { return s.mirror }

// Shape returns the live fleet shape.
func (s *Session) Shape() Shape { return s.shape }

// Applied is the number of batches applied since the start of the stream,
// carried across restores: the position a seekable source resumes at.
func (s *Session) Applied() int { return s.applied }

// RestoreCycles counts the restores this state has survived, carried across
// restarts.
func (s *Session) RestoreCycles() uint64 { return s.cycles }

// Apply feeds one batch to the state, in chunks of at most MaxBatch
// updates: sources batch by their own cadence, which need not fit the
// algorithm's. The caller has validated b (see Mirror.Admit).
func (s *Session) Apply(b graph.Batch) error {
	size := s.state.MaxBatch()
	for len(b) > size {
		if err := s.state.ApplyBatch(b[:size]); err != nil {
			return err
		}
		b = b[size:]
	}
	if err := s.state.ApplyBatch(b); err != nil {
		return err
	}
	s.applied++
	return nil
}

// Cut describes one checkpoint container the session wrote. The zero Cut
// means none was (the session has no chain).
type Cut struct {
	Kind  string // snapshot.KindFull or snapshot.KindDelta
	Bytes int64
	Took  time.Duration
}

// Checkpoint writes the next container of the chain. On error nothing is
// acknowledged: the journal keeps its content, the chain falls back to a
// full base next time, and what it held before still restores.
func (s *Session) Checkpoint() (Cut, error) {
	if s.chain == nil {
		return Cut{}, nil
	}
	start := time.Now()
	kind, n, err := s.chain.Checkpoint(image{s})
	return Cut{Kind: kind, Bytes: n, Took: time.Since(start)}, err
}

// Restore drops the live state and rebuilds it from the chain: a fresh
// state at the persisted shape, loaded with the base and every delta. ok is
// false when the chain holds no base (the session is untouched). After an
// error the session is unusable.
func (s *Session) Restore() (ok bool, err error) {
	if s.chain == nil {
		return false, nil
	}
	if ok, err = s.chain.Restore(image{s}); ok {
		s.cycles++
	}
	return ok, err
}

// ResizePhase names the step of a Resize that failed.
type ResizePhase int

const (
	// ResizeShape: no fleet of the requested size exists for this vertex
	// count. Nothing was touched.
	ResizeShape ResizePhase = iota
	// ResizeMigrate: the target fleet refused the state (its per-machine
	// memory budget cannot hold it). The session keeps running at its old
	// shape.
	ResizeMigrate
	// ResizeRebase: the state migrated, but the full checkpoint re-basing
	// the chain at the new shape failed; the chain still describes the old
	// shape.
	ResizeRebase
)

// ResizeError is a Resize failure a caller may want to tell apart.
type ResizeError struct {
	Phase ResizePhase
	Err   error
}

func (e *ResizeError) Error() string { return e.Err.Error() }
func (e *ResizeError) Unwrap() error { return e.Err }

// Resize migrates the live state onto a fleet of exactly machines machines
// and re-bases the chain there with a full checkpoint, so a restart resumes
// at the new shape and no delta ever extends old-shape containers.
func (s *Session) Resize(machines int) (Cut, error) {
	tcfg, err := core.ResizeConfig(s.shape, machines)
	if err != nil {
		return Cut{}, &ResizeError{ResizeShape, err}
	}
	if err := s.migrate(tcfg.VerticesPerMachine); err != nil {
		return Cut{}, err
	}
	cut, err := s.Checkpoint()
	if err != nil {
		return cut, &ResizeError{ResizeRebase, err}
	}
	return cut, nil
}

// RecoverOnto is recovery from machine loss (package doc, "# Lifetime"):
// the last checkpoint — or the empty state, if there is none — restored in
// place of the poisoned live state, migrated onto the largest fleet of at
// most machines machines that exists, since (the batches applied after that
// checkpoint) replayed, and the chain re-based at the new shape. It returns
// the re-base's Cut (the zero Cut without a chain). The mirror is the front
// door's, not the fleet's: the loss leaves it as it was, holding since.
func (s *Session) RecoverOnto(machines int, since []graph.Batch) (Cut, error) {
	var kept *graph.Graph
	if s.mirror != nil {
		kept = s.mirror.g
	}
	err := s.restart()
	if s.mirror != nil {
		s.mirror.g = kept
	}
	if err != nil {
		return Cut{}, err
	}
	// Equal vertex ranges do not realize every fleet size; the survivors
	// then form the largest fleet that exists.
	var tcfg core.Config
	for m := max(machines, 2); ; m-- {
		if tcfg, err = core.ResizeConfig(s.shape, m); err == nil {
			break
		}
		if m <= 2 {
			return Cut{}, err
		}
	}
	if err := s.migrate(tcfg.VerticesPerMachine); err != nil {
		return Cut{}, err
	}
	for j, b := range since {
		if err := s.Apply(b); err != nil {
			return Cut{}, fmt.Errorf("replay batch %d of %d: %w", j+1, len(since), err)
		}
	}
	cut, err := s.Checkpoint()
	if err != nil {
		return cut, fmt.Errorf("re-base: %w", err)
	}
	return cut, nil
}

// migrate is the one state migration: the live state is saved in memory and
// loaded into a fresh fleet at the target shape, which replaces it (its
// counters folded into the session's); the chain is severed from its
// old-shape history. A refused migration leaves the session as it was.
func (s *Session) migrate(verticesPerMachine int) error {
	target := s.shape
	target.VerticesPerMachine = verticesPerMachine
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, s.state); err != nil {
		return fmt.Errorf("session: resize: checkpoint: %w", err)
	}
	fresh, err := s.cfg.New(target)
	if err != nil {
		return fmt.Errorf("session: resize: %w", err)
	}
	if err := snapshot.Load(&buf, fresh); err != nil {
		return &ResizeError{ResizeMigrate, fmt.Errorf("session: re-shard onto VerticesPerMachine=%d: %w", verticesPerMachine, err)}
	}
	s.replace(fresh)
	s.shape = target
	if s.chain != nil {
		s.chain.Rebase()
	}
	return nil
}

// Section tags of the meta echo (the mirror's are in mirror.go). They differ
// from the tags front-end checkpoints carried before the Session existed, so
// those files are rejected by tag, never migrated.
const (
	tagMeta      = 0x70
	tagMetaDelta = 0x72
)

// meta declares the meta echo section under tag: sh's N, Phi, Seed and
// VerticesPerMachine, the applied-batch count and the restore-cycle count.
func meta(tag uint64, sh *Shape, applied *int, cycles *uint64) *snapshot.Image {
	return &snapshot.Image{Pkg: "session", Sections: []snapshot.Section{{Tag: tag, Parts: []snapshot.Part{
		snapshot.Scalar("N", &sh.N), snapshot.Scalar("Phi", &sh.Phi), snapshot.Scalar("Seed", &sh.Seed),
		snapshot.Scalar("VerticesPerMachine", &sh.VerticesPerMachine),
		snapshot.Scalar("applied batches", applied), snapshot.Scalar("restore cycles", cycles),
	}}}}
}

func (s *Session) writeMeta(e *snapshot.Encoder, tag uint64) {
	meta(tag, &s.shape, &s.applied, &s.cycles).Encode(e)
}

// readMeta decodes one echo and checks it against what the session already
// knows: the configured shape for a base, the restored base for a delta.
func (s *Session) readMeta(d *snapshot.Decoder, tag uint64, known Shape) (sh Shape, applied int, cycles uint64, err error) {
	sh = s.cfg.Shape
	if err = meta(tag, &sh, &applied, &cycles).Load(d); err != nil {
		return
	}
	if known.N != 0 && (sh.N != known.N || sh.Phi != known.Phi || sh.Seed != known.Seed) {
		err = fmt.Errorf("session: snapshot holds (n=%d, phi=%v, seed=%d), session is configured (n=%d, phi=%v, seed=%d)",
			sh.N, sh.Phi, sh.Seed, known.N, known.Phi, known.Seed)
	}
	return
}

// image is a Session as the chain sees it: one snapshot.DeltaState whose
// sections are the meta echo, the mirror (full containers only), and the
// algorithm state.
type image struct{ s *Session }

func (im image) Checkpoint(e *snapshot.Encoder) {
	s := im.s
	s.writeMeta(e, tagMeta)
	if s.mirror != nil {
		s.mirror.Checkpoint(e)
	}
	s.state.Checkpoint(e)
}

func (im image) Restore(d *snapshot.Decoder) error {
	s := im.s
	sh, applied, cycles, err := s.readMeta(d, tagMeta, s.cfg.Shape)
	if err != nil {
		return err
	}
	// With no configured shape the echo is the config source, so validate
	// it before sizing a graph or cluster from it: a malformed value must
	// be a diagnostic, not a make() panic.
	switch {
	case sh.N < 2 || sh.N > 1<<31:
		return fmt.Errorf("session: snapshot declares %d vertices (want 2..2^31)", sh.N)
	case sh.Phi <= 0 || sh.Phi > 1:
		return fmt.Errorf("session: snapshot declares Phi=%v (want (0,1])", sh.Phi)
	case sh.VerticesPerMachine < 0 || sh.VerticesPerMachine > sh.N:
		return fmt.Errorf("session: snapshot declares VerticesPerMachine=%d (want 0..%d)", sh.VerticesPerMachine, sh.N)
	case applied < 0:
		return fmt.Errorf("session: snapshot declares %d applied batches (want >= 0)", applied)
	}
	fresh, err := s.cfg.New(sh)
	if err != nil {
		return fmt.Errorf("session: rebuilding at snapshot shape (VerticesPerMachine=%d): %w", sh.VerticesPerMachine, err)
	}
	if m := s.mirror; m != nil {
		if m.g == nil {
			m.g = graph.New(sh.N)
		}
		if err := m.Restore(d); err != nil {
			return err
		}
	}
	if err := fresh.Restore(d); err != nil {
		return err
	}
	s.replace(fresh)
	s.shape, s.applied, s.cycles = sh, applied, cycles
	return nil
}

// CheckpointDelta declines when the algorithm state cannot write deltas, or
// declines this one. The mirror needs no section of its own: it has taken
// exactly the updates the state journaled (see Mirror).
func (im image) CheckpointDelta(e *snapshot.Encoder) bool {
	s := im.s
	ds, ok := s.state.(snapshot.DeltaState)
	if !ok {
		return false
	}
	s.writeMeta(e, tagMetaDelta)
	return ds.CheckpointDelta(e)
}

// RestoreDelta replays the state's journal and hands each replayed batch to
// the mirror as well, so one journal rebuilds both. The chain passes no
// callback of its own.
func (im image) RestoreDelta(d *snapshot.Decoder, _ func(graph.Batch) error) (replayed snapshot.Replay, err error) {
	s := im.s
	sh, applied, cycles, err := s.readMeta(d, tagMetaDelta, s.shape)
	if err != nil {
		return replayed, err
	}
	if sh.VerticesPerMachine != s.shape.VerticesPerMachine {
		// Deltas never span a resize: every resize re-bases the chain with
		// a full checkpoint at the new shape.
		return replayed, fmt.Errorf("session: delta written at VerticesPerMachine=%d cannot extend a base restored at %d",
			sh.VerticesPerMachine, s.shape.VerticesPerMachine)
	}
	if applied < s.applied {
		return replayed, fmt.Errorf("session: delta says %d batches applied but the chain so far says %d — links out of order", applied, s.applied)
	}
	ds, ok := s.state.(snapshot.DeltaState)
	if !ok {
		return replayed, fmt.Errorf("session: %T cannot replay a delta", s.state)
	}
	var mirror func(graph.Batch) error
	if s.mirror != nil {
		mirror = s.mirror.g.Apply
	}
	if replayed, err = ds.RestoreDelta(d, mirror); err != nil {
		return replayed, err
	}
	// The tip's counters win: deltas appended after a restart carry the
	// post-restart restore-cycle count.
	s.applied, s.cycles = applied, cycles
	return replayed, nil
}

func (im image) AckCheckpoint() {
	if ds, ok := im.s.state.(snapshot.DeltaState); ok {
		ds.AckCheckpoint()
	}
}
