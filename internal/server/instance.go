package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/session"
	"repro/internal/snapshot"
)

// Admission errors the HTTP layer maps onto status codes.
var (
	errQueueFull = errors.New("update queue full")
	errDraining  = errors.New("instance is draining (server shutting down)")
)

// badBatchError marks a batch the admission validator refused; the HTTP
// layer reports it as 422 rather than 500.
type badBatchError struct{ err error }

func (e *badBatchError) Error() string { return e.err.Error() }
func (e *badBatchError) Unwrap() error { return e.err }

// instance is one independently served graph: a session over a
// DynamicConnectivity under the single-writer/many-reader lock, a bounded
// update queue drained by one applier goroutine, and an admission mirror
// that keeps every queued batch valid by construction.
type instance struct {
	id  int
	cfg core.Config

	// adm serializes admission: the mirror check, the mirror apply, and the
	// enqueue happen atomically, so the queue always holds batches that are
	// valid in queue order and the len(queue) capacity check cannot race
	// (only the applier removes elements).
	adm       sync.Mutex
	accepting bool
	// mirror is the admission mirror, the session's companion state. It runs
	// ahead of the cluster by whatever the queue holds, and is guarded by
	// adm, not mu.
	mirror *session.Mirror
	queue  chan graph.Batch

	// sess owns the cluster state, the checkpoint chain (durable reports
	// whether there is one) and the lifecycle over them. It takes no locks:
	// the applier calls Apply under mu, and Checkpoint and Resize run
	// quiesced, holding adm and mu both.
	sess    *session.Session
	durable bool

	// pending counts batches enqueued but not yet fully applied; the
	// quiesced checkpoint path waits on it (with admission locked) so the
	// mirror and the cluster state agree when the checkpoint is cut.
	pendMu   sync.Mutex
	pendCond *sync.Cond
	pending  int

	// mu is the instance's single-writer/many-reader contract lock: the
	// applier applies batches under Lock, handlers answer queries under
	// RLock (see the core query engine's concurrency contract). dc is the
	// session's live state, published as an atomic pointer because an
	// elastic resize swaps in a fresh fleet (holding both adm and mu) while
	// lock-free paths — MaxBatch sizing in admission, metric scrapes — read
	// it concurrently. cfg itself stays immutable — handlers read cfg.N
	// without locks.
	mu sync.RWMutex
	dc atomic.Pointer[core.DynamicConnectivity]

	// quiesced is true while admission is deliberately paused (a quiesced
	// checkpoint or a resize); per-instance readiness reports 503 for its
	// duration so load balancers steer around the pause.
	quiesced atomic.Bool

	wg      sync.WaitGroup
	failure atomic.Pointer[applyFailure]

	// drainEWMA tracks the smoothed per-batch apply time (nanoseconds); the
	// 429 path scales its Retry-After hint by it so clients back off in
	// proportion to how fast the queue actually drains.
	drainEWMA atomic.Int64

	metrics // what /metrics renders (metrics.go)
}

// applyFailure records the first applier error; the instance refuses all
// traffic afterwards (its state may be mid-batch).
type applyFailure struct{ err error }

// newInstance builds an instance — restored from chain when it holds a
// checkpoint (config-echo validated, fleet rebuilt at the persisted shape),
// empty otherwise — and starts its applier. chain is nil when checkpointing
// is off.
func newInstance(id int, cfg core.Config, queueDepth int, chain *snapshot.Chain) (*instance, error) {
	in := &instance{
		id:        id,
		cfg:       cfg,
		accepting: true,
		mirror:    session.NewMirror(cfg.N),
		queue:     make(chan graph.Batch, queueDepth),
		durable:   chain != nil,
	}
	scfg := session.Config{
		Shape:  cfg,
		New:    func(sh session.Shape) (session.State, error) { return core.NewDynamicConnectivity(sh) },
		Chain:  chain,
		Mirror: in.mirror,
	}
	var err error
	restored := false
	if in.durable {
		in.sess, restored, err = session.Resume(scfg)
	}
	if err == nil && !restored {
		in.sess, err = session.New(scfg)
	}
	if err != nil {
		return nil, fmt.Errorf("server: instance %d: %w", id, err)
	}
	if restored {
		in.replayedUpdates.Store(uint64(chain.Replayed().Updates))
	}
	in.publish()
	in.pendCond = sync.NewCond(&in.pendMu)
	in.wg.Add(1)
	go in.applier()
	return in, nil
}

// publish exposes the session's live state and counters to the lock-free
// readers. The caller holds the instance exclusively (construction, or adm
// and mu both).
func (in *instance) publish() {
	in.dc.Store(in.sess.State().(*core.DynamicConnectivity))
	in.restoreCycles.Store(in.sess.RestoreCycles())
}

// applier is the instance's single writer: it drains the queue and applies
// each batch under the exclusive lock. Admission already validated every
// queued batch against the mirror, so an apply error here means corrupted
// state — the instance is marked failed and refuses traffic, but the loop
// keeps draining so shutdown never hangs.
func (in *instance) applier() {
	defer in.wg.Done()
	for b := range in.queue {
		start := time.Now()
		in.mu.Lock()
		err := in.sess.Apply(b)
		st := in.dc.Load().Cluster().Stats()
		in.mu.Unlock()
		in.observeApply(time.Since(start))
		in.rounds.Store(uint64(st.Rounds))
		in.violations.Store(uint64(len(st.Violations)))
		if err != nil {
			in.failure.CompareAndSwap(nil, &applyFailure{err: err})
		} else {
			in.batchesApplied.Add(1)
			in.updatesApplied.Add(uint64(len(b)))
		}
		in.pendMu.Lock()
		in.pending--
		in.pendMu.Unlock()
		in.pendCond.Broadcast()
	}
}

// observeApply records one batch-apply latency sample and folds it into the
// drain-rate estimate (an EWMA with a 1/8 step).
func (in *instance) observeApply(d time.Duration) {
	in.apply.observe(d)
	if ew := in.drainEWMA.Load(); ew == 0 {
		in.drainEWMA.Store(int64(d))
	} else {
		in.drainEWMA.Store((7*ew + int64(d)) / 8)
	}
}

// retryAfterSeconds estimates, from the drain-rate EWMA and the current
// queue depth, how long a 429'd client should wait before the queue has
// room — clamped to [1, 30] seconds, and 1 before any batch has been
// applied (no estimate yet).
func (in *instance) retryAfterSeconds() int {
	ew := in.drainEWMA.Load()
	if ew <= 0 {
		return 1
	}
	wait := time.Duration(ew) * time.Duration(len(in.queue)+1)
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// machines is the instance's current fleet size (changes on resize).
func (in *instance) machines() int {
	return in.dc.Load().Config().MachineCount()
}

// failed returns the instance's terminal error, if any.
func (in *instance) failed() error {
	if f := in.failure.Load(); f != nil {
		return fmt.Errorf("instance %d failed: %w", in.id, f.err)
	}
	return nil
}

// offer validates b against the admission mirror and enqueues it for the
// applier. It returns errQueueFull (backpressure: the caller retries),
// errDraining (shutdown), a *badBatchError (the batch is invalid against
// the current graph), or nil on a successful enqueue.
func (in *instance) offer(b graph.Batch) error {
	if err := in.failed(); err != nil {
		return err
	}
	in.adm.Lock()
	defer in.adm.Unlock()
	if !in.accepting {
		return errDraining
	}
	if len(in.queue) == cap(in.queue) {
		in.batchesRejected.Add(1)
		return errQueueFull
	}
	if err := in.mirror.Admit(b); err != nil {
		return &badBatchError{err}
	}
	in.queue <- b
	in.pendMu.Lock()
	in.pending++
	in.pendMu.Unlock()
	return nil
}

// waitIdle blocks until every enqueued batch has been applied. The caller
// must hold adm (so no new batch can be admitted while waiting); it must NOT
// hold mu, which the applier needs to make progress.
func (in *instance) waitIdle() {
	in.pendMu.Lock()
	for in.pending > 0 {
		in.pendCond.Wait()
	}
	in.pendMu.Unlock()
}

// drain stops admission (new offers get errDraining) and waits until every
// queued batch has been applied. Idempotent.
func (in *instance) drain() {
	in.adm.Lock()
	if in.accepting {
		in.accepting = false
		close(in.queue)
	}
	in.adm.Unlock()
	in.wg.Wait()
}

// instancePath is the snapshot file of instance id under dir.
func instancePath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("instance-%03d.snap", id))
}

// quiesce pauses the instance for an operation that needs it whole: admission
// is held (readiness reports 503) and the applier drained of in-flight
// batches, so the mirror and the cluster state agree (a delta's one journal
// describes both), and the write lock is taken. The instance stays live: resume, the returned func,
// puts it back in service.
func (in *instance) quiesce() (resume func(), err error) {
	in.adm.Lock()
	in.quiesced.Store(true)
	in.waitIdle()
	if err := in.failed(); err != nil {
		in.quiesced.Store(false)
		in.adm.Unlock()
		return nil, err
	}
	in.mu.Lock()
	return func() {
		in.mu.Unlock()
		in.quiesced.Store(false)
		in.adm.Unlock()
	}, nil
}

// checkpointQuiesced cuts a checkpoint (full or delta, the chain decides)
// with the instance quiesced. No-op when checkpointing is off.
func (in *instance) checkpointQuiesced() error {
	if !in.durable {
		return nil
	}
	resume, err := in.quiesce()
	if err != nil {
		return fmt.Errorf("skipping checkpoint: %w", err)
	}
	defer resume()
	cut, err := in.sess.Checkpoint()
	if err != nil {
		in.failure.CompareAndSwap(nil, &applyFailure{err: fmt.Errorf("checkpoint: %w", err)})
		return fmt.Errorf("instance %d checkpoint: %w", in.id, err)
	}
	in.observeCheckpoint(cut)
	return nil
}

// resize migrates the instance's live state onto a fleet of exactly machines
// machines (session.Resize) with the instance quiesced. A memory-cap
// rejection — shrinking the per-machine budget below what the migrated
// state needs — leaves the instance untouched, still serving at its old
// shape. The error is a *session.ResizeError when the request, not the
// server, is at fault.
func (in *instance) resize(machines int) error {
	// Refuse a size no fleet realizes before pausing admission for it.
	if _, err := core.ResizeConfig(in.cfg, machines); err != nil {
		return &session.ResizeError{Phase: session.ResizeShape, Err: err}
	}
	resume, err := in.quiesce()
	if err != nil {
		return err
	}
	defer resume()
	start := time.Now()
	cut, err := in.sess.Resize(machines)
	var re *session.ResizeError
	rebaseFailed := errors.As(err, &re) && re.Phase == session.ResizeRebase
	if err != nil && !rebaseFailed {
		return fmt.Errorf("instance %d resize to %d machines: %w", in.id, machines, err)
	}
	// The state migrated, even if re-basing the chain then failed.
	in.publish()
	in.reshards.Add(1)
	in.reshardNanos.Add(uint64(time.Since(start) - cut.Took))
	if rebaseFailed {
		in.failure.CompareAndSwap(nil, &applyFailure{err: fmt.Errorf("post-resize checkpoint: %w", err)})
		return fmt.Errorf("instance %d post-resize checkpoint: %w", in.id, err)
	}
	in.observeCheckpoint(cut)
	return nil
}
