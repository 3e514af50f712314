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
// DynamicConnectivity, an admission mirror that keeps every queued batch
// valid by construction, and one ordered queue of ops drained by the
// applier — the only goroutine that touches the session after construction.
// A batch is one kind of op; a checkpoint, a resize and the final shutdown
// checkpoint are the other kind, and each runs after every batch admitted
// before it. A query is a read op: the applier takes it off a channel of its
// own, ahead of the next queued op.
type instance struct {
	id  int
	cfg core.Config

	// adm serializes admission: the mirror check, the mirror apply and the
	// enqueue happen atomically, so the queue holds batches that are valid in
	// queue order. A non-batch op holds adm from its enqueue until it
	// completes, so offer only ever sees batches in the queue and its
	// len(queue) capacity check cannot race (only the applier removes ops).
	adm       sync.Mutex
	accepting bool
	// mirror is the admission mirror, the session's companion state. It runs
	// ahead of the cluster by whatever the queue holds, and is guarded by adm.
	mirror *session.Mirror
	queue  chan op
	// reads carries read ops, unbuffered: they take no queue slot and never
	// pass admission.
	reads  chan op
	exited chan struct{} // closed when the applier returns

	// sess owns the cluster state, the checkpoint chain and the lifecycle
	// over them. It takes no locks; only the applier calls it.
	sess *session.Session
	// shape is the live fleet's config, published by the applier: a resize
	// swaps in a fresh fleet while admission (MaxBatch) and scrapes (the
	// machine count) read it from other goroutines. cfg itself stays
	// immutable — handlers read cfg.N.
	shape atomic.Pointer[core.Config]

	// quiesced is true while a non-batch op holds admission; per-instance
	// readiness reports 503 for its duration so load balancers steer around
	// the pause.
	quiesced atomic.Bool

	// failure is the first apply error, written by the applier only. Once it
	// is set the applier runs nothing more on the session.
	failure atomic.Pointer[applyFailure]

	// drainEWMA tracks the smoothed per-batch apply time (nanoseconds); the
	// 429 path scales its Retry-After hint by it so clients back off in
	// proportion to how fast the queue actually drains.
	drainEWMA atomic.Int64

	metrics // what /metrics renders (metrics.go)
}

// op is one entry of an instance's queue: an admitted batch, or — run set —
// an operation on the session whose result goes to done. A read op is the
// second kind, sent on the reads channel.
type op struct {
	batch graph.Batch
	run   func() error
	done  chan<- error
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
		queue:     make(chan op, queueDepth),
		reads:     make(chan op),
		exited:    make(chan struct{}),
	}
	scfg := session.Config{
		Shape:  cfg,
		New:    func(sh session.Shape) (session.State, error) { return core.NewDynamicConnectivity(sh) },
		Chain:  chain,
		Mirror: in.mirror,
	}
	var err error
	if in.sess, err = session.Open(scfg); err != nil {
		return nil, fmt.Errorf("server: instance %d: %w", id, err)
	}
	if chain != nil {
		in.replayedUpdates.Store(uint64(chain.Replayed().Updates))
	}
	in.publish()
	in.foldCounters()
	go in.applier()
	return in, nil
}

// live is the session's state. Only the applier (or construction) calls it.
func (in *instance) live() *core.DynamicConnectivity {
	return in.sess.State().(*core.DynamicConnectivity)
}

// publish exposes the live fleet's shape to the other goroutines. The
// caller owns the session (construction, or the applier).
func (in *instance) publish() {
	shape := in.live().Config()
	in.shape.Store(&shape)
	in.restoreCycles.Store(in.sess.RestoreCycles())
}

// foldCounters copies the session's counters — summed over every state it
// ran, so a resize resets none (session.Session.Counters) — and the live
// cluster's idle buffer bytes into the instance's metrics. Construction and
// the applier, after every op, call it.
func (in *instance) foldCounters() {
	in.idleBufferBytes.Store(8 * uint64(in.live().Cluster().IdleBufferWords()))
	c := in.sess.Counters()
	in.cacheHits.Store(c.CacheHits)
	in.cacheMisses.Store(c.CacheMisses)
	in.searchExhausted.Store(c.Searches.Exhausted)
	in.searchRefills.Store(c.Searches.Refills)
	in.sketchesSummed.Store(c.Searches.SketchesSummed)
}

// applier is the instance's one goroutine on the session: it serves every
// waiting read, then takes the next queued op, until the queue is closed and
// empty. Admission already validated every queued batch against the
// mirror, so an apply error here means corrupted state — the instance is
// marked failed before the next op runs, and from then on the loop discards
// batches and answers every other op, reads included, with the failure. It
// keeps dequeuing, so shutdown never hangs.
func (in *instance) applier() {
	defer close(in.exited)
	for {
		var o op
		select {
		case o = <-in.reads:
		default:
			ok := true
			select {
			case o = <-in.reads:
			case o, ok = <-in.queue:
			}
			if !ok {
				return
			}
		}
		err := in.failed()
		switch {
		case o.run != nil:
			if err == nil {
				err = o.run()
			}
			o.done <- err
		case err == nil:
			in.applyBatch(o.batch)
		}
		in.foldCounters()
	}
}

// applyBatch applies one admitted batch and records it, its failure
// included.
func (in *instance) applyBatch(b graph.Batch) {
	start := time.Now()
	err := in.sess.Apply(b)
	st := in.live().Cluster().Stats()
	in.rounds.Store(uint64(st.Rounds))
	in.violations.Store(uint64(st.ViolationCount))
	if err != nil {
		in.failure.Store(&applyFailure{err: err})
	} else {
		in.batchesApplied.Add(1)
		in.updatesApplied.Add(uint64(len(b)))
	}
	in.observeApply(time.Since(start))
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
	return min(max(int((wait+time.Second-1)/time.Second), 1), 30)
}

// machines is the instance's current fleet size (changes on resize).
func (in *instance) machines() int {
	return in.shape.Load().MachineCount()
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
	in.queue <- op{batch: b}
	return nil
}

// do runs f on the applier after every batch admitted before it, holding
// admission (readiness reports 503) until f returns, so the mirror and the
// state hold the same updates while f runs — a delta's one journal then
// describes both. errDraining once the instance is draining; the failure
// once it has failed. Holding adm across the wait cannot deadlock: the
// applier never takes it.
func (in *instance) do(f func() error) error {
	in.adm.Lock()
	defer in.adm.Unlock()
	if !in.accepting {
		return errDraining
	}
	in.quiesced.Store(true)
	defer in.quiesced.Store(false)
	return in.call(in.queue, f, make(chan error, 1))
}

// call sends f as an op on ch — the queue, whose caller holds adm and has
// seen accepting, or reads, which the applier serves before its next queued
// op — and returns f's error: the failure instead once the instance has
// failed, errDraining once the applier has exited. done is the reply
// channel, with one free slot; a pooled request scratch keeps its own, so a
// query allocates none.
func (in *instance) call(ch chan<- op, f func() error, done chan error) error {
	select {
	case ch <- op{run: f, done: done}:
		return <-done
	case <-in.exited:
		return errDraining
	}
}

// stop shuts the instance down: final (when not nil) runs as the last op,
// after every admitted batch, then admission closes (new offers get
// errDraining) and stop waits for the applier to exit. It returns final's
// error, or errDraining when final is set but the instance already stopped.
func (in *instance) stop(final func() error) (err error) {
	in.adm.Lock()
	switch {
	case in.accepting:
		if final != nil {
			err = in.call(in.queue, final, make(chan error, 1))
		}
		in.accepting = false
		close(in.queue)
	case final != nil:
		err = errDraining
	}
	in.adm.Unlock()
	<-in.exited
	return err
}

// drain stops the instance without a final checkpoint. Idempotent.
func (in *instance) drain() { in.stop(nil) }

// instancePath is the snapshot file of instance id under dir.
func instancePath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("instance-%03d.snap", id))
}

// checkpoint cuts a checkpoint (full or delta, the chain decides; nothing
// without a chain). It is an op: run it through do or stop. A failed write
// leaves the live state intact and the chain unlinked, so the next
// checkpoint writes a full base; the instance keeps serving.
func (in *instance) checkpoint() error {
	cut, err := in.sess.Checkpoint()
	if err != nil {
		in.checkpointErrors.Add(1)
		return fmt.Errorf("instance %d checkpoint: %w", in.id, err)
	}
	in.observeCheckpoint(cut)
	return nil
}

// resize migrates the instance's live state onto a fleet of exactly machines
// machines (session.Resize) as an op. A memory-cap rejection — shrinking
// the per-machine budget below what the migrated state needs — leaves the
// instance untouched, still serving at its old shape. A failed chain re-base
// after the migration is a checkpoint error: the instance serves at the new
// shape. The error is a *session.ResizeError when the request, not the
// server, is at fault.
func (in *instance) resize(machines int) error {
	// Refuse a size no fleet realizes before pausing admission for it.
	if _, err := core.ResizeConfig(in.cfg, machines); err != nil {
		return &session.ResizeError{Phase: session.ResizeShape, Err: err}
	}
	return in.do(func() error {
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
			in.checkpointErrors.Add(1)
			return fmt.Errorf("instance %d post-resize checkpoint: %w", in.id, err)
		}
		in.observeCheckpoint(cut)
		return nil
	})
}
