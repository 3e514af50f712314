// Package session is the one durable-run lifecycle of the repository: apply
// batches to an algorithm state, checkpoint it through a snapshot.Chain,
// restore it after a kill, and migrate it onto a fleet of a different size.
// The differential harness (crash and machine-fault decorators), the
// mpcstream replay paths and the mpcserve instances all run on a Session and
// differ only in what they wrap around it — oracle checks and fault
// schedules, flags and printing, locks and queues.
//
// A Session takes no locks: callers that share one across goroutines
// serialize its methods themselves (see internal/server).
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
	// Shape is the initial fleet shape. Resume cross-checks N, Phi and Seed
	// against the checkpoint and takes VerticesPerMachine from it; with N
	// zero it adopts all four from the checkpoint.
	Shape Shape
	// New builds a fresh, empty state at the given shape.
	New func(Shape) (State, error)
	// Chain is where checkpoints go; nil makes the session volatile
	// (Checkpoint is a no-op, Restore finds nothing).
	Chain *snapshot.Chain
	// Mirror, when set, is checkpointed and restored beside the state.
	Mirror *Mirror
}

// Session owns one live state, its checkpoint chain, and the counters the
// meta echo persists.
type Session struct {
	cfg     Config
	state   State
	shape   Shape
	chain   *snapshot.Chain
	mirror  *Mirror
	applied int
	cycles  uint64
}

// New starts a session on a fresh state at cfg.Shape.
func New(cfg Config) (*Session, error) {
	s := open(cfg)
	var err error
	if s.state, err = cfg.New(cfg.Shape); err != nil {
		return nil, err
	}
	return s, nil
}

// Resume starts a session from the checkpoint chain in cfg.Chain. ok is
// false (and the session nil) when the chain holds no base.
func Resume(cfg Config) (s *Session, ok bool, err error) {
	s = open(cfg)
	if ok, err = s.Restore(); !ok {
		return nil, false, err
	}
	return s, true, nil
}

func open(cfg Config) *Session {
	return &Session{cfg: cfg, shape: cfg.Shape, chain: cfg.Chain, mirror: cfg.Mirror}
}

// SetChain redirects future checkpoints to c. A chain that did not
// materialize this state starts with a full base.
func (s *Session) SetChain(c *snapshot.Chain) { s.chain = c }

// State returns the live state. Restore, Resize and RecoverOnto replace it.
func (s *Session) State() State { return s.state }

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

// RecoverOnto is recovery from machine loss: the live state is poisoned, so
// the last checkpoint (or the empty state, if there is none) is restored
// and migrated onto the at most machines survivors. A loss that would leave
// no vertex machine recovers onto the minimum fleet, one vertex machine plus
// the coordinator: the lost machine is replaced. The caller replays whatever
// it applied since that checkpoint and then checkpoints, which re-bases the
// chain at the new shape.
func (s *Session) RecoverOnto(machines int) error {
	ok, err := s.Restore()
	if err != nil {
		return err
	}
	if !ok {
		if s.state, err = s.cfg.New(s.shape); err != nil {
			return err
		}
		s.applied = 0
	}
	// Equal vertex ranges do not realize every fleet size; the survivors
	// then form the largest fleet that exists.
	var tcfg core.Config
	for m := max(machines, 2); ; m-- {
		if tcfg, err = core.ResizeConfig(s.shape, m); err == nil {
			break
		}
		if m <= 2 {
			return err
		}
	}
	return s.migrate(tcfg.VerticesPerMachine)
}

// migrate is the one state migration: the live state is saved in memory and
// loaded into a fresh fleet at the target shape, which replaces it; the
// chain is severed from its old-shape history. A refused migration
// leaves the session as it was.
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
	s.state, s.shape = fresh, target
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
	s.state, s.shape, s.applied, s.cycles = fresh, sh, applied, cycles
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
