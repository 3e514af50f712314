package mpc

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ResolveParallelism returns the worker count a Config.Parallelism value
// selects: 1 for 0 or 1 (sequential), p for p > 1, and runtime.NumCPU()
// for any negative value.
func ResolveParallelism(p int) int {
	switch {
	case p < 0:
		return runtime.NumCPU()
	case p <= 1:
		return 1
	default:
		return p
	}
}

// executor schedules the per-machine work of one round's compute phase (or
// one local-computation pass). The cluster hands it an index-addressed job;
// at one worker it runs the indices in order on the calling goroutine, above
// one it spreads them over a pool of long-lived worker goroutines that claim
// contiguous index chunks off a shared atomic cursor (chunked work
// stealing). Chunks keep a worker on one cache-friendly run of machines and
// result slots, while the shared cursor lets idle workers absorb skewed
// per-machine load — a powerlaw-hot machine costs its one chunk, not a
// statically assigned 1/workers slice of the round.
//
// What makes the pool interchangeable with the plain loop is the
// simulator's concurrency contract (see StepFunc): the callback for index i
// touches only index i's state and the caller-provided result slot for
// index i. Under that contract every worker count produces the same
// per-index results, and the cluster folds them into Stats in machine
// order, so rounds, message ordering, violations, and peaks are
// bit-identical at any parallelism level.
//
// The pool's goroutines live as long as the executor is reachable; a
// runtime cleanup shuts them down when the owning cluster is garbage
// collected, so creating many clusters (as tests and experiments do) does
// not leak.
type executor struct {
	workers int
	// tasks wakes pool workers; nil at one worker, where Run is the plain
	// loop and no goroutine exists.
	tasks chan *poolRun
	// run is the reused per-Run state: Run is never invoked concurrently
	// on one executor (a cluster issues one round at a time), so recycling
	// it keeps the round dispatch allocation-free.
	run poolRun
}

// newExecutor returns the executor a Config.Parallelism value selects.
func newExecutor(parallelism int) *executor {
	e := &executor{workers: ResolveParallelism(parallelism)}
	if e.workers == 1 {
		return e
	}
	// Buffered so Run never blocks waking workers: at most `workers` wake-
	// ups are in flight per round.
	e.tasks = make(chan *poolRun, e.workers)
	for w := 0; w < e.workers; w++ {
		// Workers capture only the channel, never e, so an unreachable
		// executor is collectable; the cleanup then closes the channel and
		// the workers exit.
		go poolWorker(e.tasks)
	}
	runtime.AddCleanup(e, func(ch chan *poolRun) { close(ch) }, e.tasks)
	return e
}

// Run invokes fn(i) once for every i in [0, n), concurrently above one
// worker. It returns only after every invocation has completed or been
// abandoned.
//
// Panic contract: if any invocation panics, Run re-panics on the calling
// goroutine with the panic value of the lowest panicking index. This is
// deterministic at every worker count: nothing below the lowest panicking
// index panics, so that index is always reached and its panic always
// recorded, regardless of scheduling. Indices after a panicking index in
// the same scheduling unit (the whole range at one worker, one
// work-stealing chunk in the pool) are abandoned; all other indices still
// run. Callers that recover such a panic may retry the whole range —
// per-index results are only published by completed invocations, and the
// cluster never routes a round whose compute phase panicked.
func (e *executor) Run(n int, fn func(i int)) {
	if e.tasks == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if n <= 0 {
		return
	}
	r := &e.run
	r.fn = fn
	r.n = n
	r.chunk = chunkSize(n, e.workers)
	r.cursor.Store(0)
	r.panicked = false
	wake := e.workers
	if chunks := (n + r.chunk - 1) / r.chunk; wake > chunks {
		wake = chunks
	}
	r.wg.Add(wake)
	for w := 0; w < wake; w++ {
		e.tasks <- r
	}
	r.wg.Wait()
	r.fn = nil
	if r.panicked {
		panic(r.panicVal)
	}
}

// chunksPerWorker is the oversubscription factor of the work-stealing
// scheduler: the index range is carved into about chunksPerWorker×workers
// contiguous chunks, so a worker stuck on a hot chunk (a machine with a
// skewed share of the round's work) strands at most one chunk while the
// others drain the rest of the range.
const chunksPerWorker = 8

// poolRun is the shared state of one Run call over the work-stealing pool:
// the job, the claim cursor, and the completion barrier.
type poolRun struct {
	fn     func(i int)
	n      int
	chunk  int
	cursor atomic.Int64

	wg sync.WaitGroup

	mu       sync.Mutex
	panicked bool
	panicIdx int
	panicVal any
}

// recordPanic keeps the panic of the lowest panicking index so re-panicking
// is deterministic regardless of worker interleaving: every chunk is always
// claimed and runs up to its first panicking index, so the globally lowest
// panicking index always executes and is always recorded.
func (r *poolRun) recordPanic(idx int, val any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.panicked || idx < r.panicIdx {
		r.panicked = true
		r.panicIdx = idx
		r.panicVal = val
	}
}

// poolWorker drains wake-ups until the executor is shut down; each wake-up
// steals chunks from its run until the range is exhausted.
func poolWorker(tasks chan *poolRun) {
	for r := range tasks {
		runChunks(r)
		r.wg.Done()
	}
}

// runChunks claims chunks off the run's cursor until the range is drained.
// Every chunk is claimed and executed even after a panic elsewhere: that is
// what makes the re-panic value (the lowest panicking index) deterministic.
func runChunks(r *poolRun) {
	for {
		lo := int(r.cursor.Add(int64(r.chunk))) - r.chunk
		if lo >= r.n {
			return
		}
		hi := lo + r.chunk
		if hi > r.n {
			hi = r.n
		}
		runChunk(r, lo, hi)
	}
}

// runChunk executes one contiguous chunk, converting a panic in fn into a
// recorded panic on the run (a panicking chunk abandons its remaining
// indices, as the plain loop abandons everything after a panic).
func runChunk(r *poolRun, lo, hi int) {
	i := lo
	defer func() {
		if rec := recover(); rec != nil {
			r.recordPanic(i, rec)
		}
	}()
	for ; i < hi; i++ {
		r.fn(i)
	}
}

// chunkSize returns the work-stealing chunk size for n indices over the
// given worker count: about chunksPerWorker chunks per worker, never less
// than one index. It is a pure function of (n, workers), so the chunk
// boundaries — and therefore the panic-abandonment units — are the same on
// every Run of the same shape.
func chunkSize(n, workers int) int {
	c := n / (workers * chunksPerWorker)
	if c < 1 {
		c = 1
	}
	return c
}
