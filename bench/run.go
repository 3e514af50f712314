package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// spec sizes one workload. The full-scale values are the benchmark; the
// smoke values only keep every code path compiling and verified in tier-1.
type spec struct {
	name string
	http bool    // internal/server over HTTP, else in-process
	n    int     // vertices
	phi  float64 // local-memory exponent: machine count and MaxBatch follow

	gen func(n int, seed uint64) workload.Generator // nil: the edge-list file front-end

	prefillEdges int  // live edges inserted during setup (generator workloads)
	bootstrap    bool // load them with DynamicConnectivity.Bootstrap, not batch by batch
	lines        int  // edge-list lines per measured second (file workload)
	steady       int  // steady batches per measured second
	batch        int  // updates per steady batch
	queryEvery   int  // a query round follows every queryEvery-th batch
	queries      int  // query batches per round
	pairs        int  // pairs per query batch

	// In-steady lifecycle of the durable session (0 = none).
	ckptEvery, restartEvery, resizeEvery int

	maxDeltaChain int
	setups        int // setup is repeated this many times; setup_s is the median
	tailCycles    int
	tailBatch     int // updates per tail batch: fits MaxBatch at both machine counts
	otherMachines int // the machine count resizes alternate with
}

// specs returns the four workloads at the given scale.
func specs(scale string) []spec {
	window := func(n int, seed uint64) workload.Generator { return workload.NewSlidingWindow(n, 0, seed, 0) }
	// serve-reads never deletes: every one of its small batches stays on the
	// cheap insert path, so the queries, not the replacement search, fill
	// the run, and no seed gets a different mix of cheap and dear batches
	// than another.
	grow := mustScenario("grow")
	hubs := mustScenario("powerlaw")
	if scale == "smoke" {
		return []spec{
			{name: "serve-window", http: true, n: 256, phi: 0.6, gen: window, prefillEdges: 768, steady: 3, batch: 14,
				queryEvery: 1, queries: 2, pairs: 16, maxDeltaChain: 8, setups: 2, tailCycles: 1, tailBatch: 8, otherMachines: 6},
			{name: "serve-reads", http: true, n: 256, phi: 0.6, gen: grow, prefillEdges: 512, steady: 3, batch: 4,
				queryEvery: 1, queries: 4, pairs: 32, maxDeltaChain: 8, setups: 2, tailCycles: 1, tailBatch: 8, otherMachines: 6},
			{name: "ingest-grow", n: 256, phi: 0.75, lines: 600, batch: 32, queryEvery: 4, queries: 1, pairs: 64,
				maxDeltaChain: 8, setups: 2, tailCycles: 1, tailBatch: 32, otherMachines: 3},
			{name: "recover-churn", n: 256, phi: 0.5, gen: hubs, prefillEdges: 512, bootstrap: true, steady: 3, batch: 8,
				queryEvery: 1, queries: 1, pairs: 64, ckptEvery: 4, restartEvery: 12, resizeEvery: 24,
				maxDeltaChain: 2, setups: 2, tailCycles: 1, tailBatch: 8, otherMachines: 9},
		}
	}
	return []spec{
		{name: "serve-window", http: true, n: 4096, phi: 0.6, gen: window, prefillEdges: 3 * 4096, steady: 45, batch: 74,
			queryEvery: 1, queries: 8, pairs: 64, maxDeltaChain: 8, setups: 3, tailCycles: 5, tailBatch: 64, otherMachines: 15},
		{name: "serve-reads", http: true, n: 4096, phi: 0.6, gen: grow, prefillEdges: 32768, steady: 120, batch: 8,
			queryEvery: 1, queries: 40, pairs: 256, maxDeltaChain: 8, setups: 3, tailCycles: 5, tailBatch: 64, otherMachines: 15},
		{name: "ingest-grow", n: 4096, phi: 0.75, lines: 170000, batch: 256, queryEvery: 4, queries: 1, pairs: 1024,
			maxDeltaChain: 8, setups: 3, tailCycles: 5, tailBatch: 256, otherMachines: 5},
		{name: "recover-churn", n: 4096, phi: 0.5, gen: hubs, prefillEdges: 16384, bootstrap: true, steady: 25, batch: 32,
			queryEvery: 1, queries: 1, pairs: 1024, ckptEvery: 10, restartEvery: 40, resizeEvery: 80,
			maxDeltaChain: 8, setups: 3, tailCycles: 5, tailBatch: 32, otherMachines: 33},
	}
}

func mustScenario(name string) func(n int, seed uint64) workload.Generator {
	sc, err := workload.Get(name)
	if err != nil {
		panic(err)
	}
	return sc.New
}

// frontend is one of the program's real entry paths. Every method is a call
// into the program plus the child spans around it; root spans, the oracle
// and all bookkeeping belong to the run.
type frontend interface {
	setup(sc *script) error
	discard() error // tear down a set-up that will not be measured further
	applyBatch(st *step) (graph.Batch, error)
	queryBatch(q *query) (answer, error)
	checkpoint() (kind string, err error) // reports its duration through sampleCheckpoint
	kill()
	recover() error
	verifyRestored() error
	resize(machines int) error
	// fullCheckpointSeconds is the time the program has spent writing full
	// checkpoints so far, as far as this front-end can tell.
	fullCheckpointSeconds() (float64, error)
	machines() int
	labels() ([]int, error)
	counters() (counters, error)
	close()
}

// answer is a query reply; an HTTP reply is decoded after its span closed.
type answer struct {
	body      []byte
	connected []bool
	comps     int
}

func (a *answer) decode() error {
	if a.body == nil {
		return nil
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(a.body, &qr); err != nil {
		return err
	}
	a.connected, a.comps = qr.Connected, qr.Components
	return nil
}

// samples holds the root-span durations (seconds) the metrics are computed
// from. setup, batch and query are wall time; setupRef is setup in reference
// time, and batchAt/queryAt name the host-speed probe each steady span
// started after (see hostspeed.go).
type samples struct {
	setup, setupRef, batch, query []float64
	batchAt, queryAt              []int
	full, delta, recover, resize  []float64
	firstAnswer                   []float64
	batchUpdates                  []int // updates of each steady batch, aligned with batch
}

// run is one execution of one workload.
type run struct {
	spec spec
	seed uint64
	dir  string
	tr   *tracer
	host *hostSpeed
	fe   frontend
	sm   samples

	opID      int // id of the operation in progress, shared by its spans
	attempted int
	failed    int
	firstErr  error

	cur *step // last applied step: what the program's state must equal

	// Cache counts survive neither a restart nor a resize inside the
	// program, so the run sums them across instances.
	cacheHits, cacheMisses, baseHits, baseMisses float64
}

// span times one call into the program; the span is recorded only in a
// traced run.
func (r *run) span(name string, id int, fn func() error) (time.Duration, error) {
	start := time.Now()
	i := r.tr.begin(name, id, start)
	err := fn()
	end := time.Now()
	r.tr.end(i, end)
	return end.Sub(start), err
}

// check counts one verified outcome.
func (r *run) check(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return false
	}
	return true
}

// fatal is for errors after which the program's state is unknown.
type fatal struct{ err error }

func (r *run) must(err error) {
	if !r.check(err) {
		panic(fatal{err})
	}
}

// timedOp runs one lifecycle operation: garbage from earlier work is
// collected first so that the span pays only for its own.
func (r *run) timedOp(name string, fn func() error) time.Duration {
	runtime.GC()
	d, err := r.span(name, r.opID, fn)
	r.must(err)
	return d
}

func (r *run) applyStep(st *step, steady bool) {
	r.opID++
	at := r.host.at()
	var got graph.Batch
	d, err := r.span("batch", r.opID, func() (err error) {
		got, err = r.fe.applyBatch(st)
		return err
	})
	r.must(err)
	if !sameBatch(got, st.batch) {
		r.must(fmt.Errorf("batch %d: the replayed trace disagrees with the edge list it was converted from", r.opID))
	}
	r.cur = st
	if steady {
		r.sm.batch = append(r.sm.batch, d.Seconds())
		r.sm.batchAt = append(r.sm.batchAt, at)
		r.sm.batchUpdates = append(r.sm.batchUpdates, len(st.batch))
	}
}

func sameBatch(a, b graph.Batch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ask sends one query batch as an operation of its own.
func (r *run) ask(q *query) time.Duration {
	r.opID++
	return r.askIn(q)
}

// askIn sends one query batch under the current operation id and checks
// every answer against the oracle.
func (r *run) askIn(q *query) time.Duration {
	var a answer
	d, err := r.span("query", r.opID, func() (err error) {
		a, err = r.fe.queryBatch(q)
		return err
	})
	r.must(err)
	r.must(a.decode())
	err = nil
	if len(a.connected) != len(q.want) {
		err = fmt.Errorf("query %d: %d answers for %d pairs", r.opID, len(a.connected), len(q.want))
	}
	for i := 0; err == nil && i < len(q.want); i++ {
		if a.connected[i] != q.want[i] {
			err = fmt.Errorf("query %d: pair %v answered %v, oracle says %v", r.opID, q.pairs[i], a.connected[i], q.want[i])
		}
	}
	if err == nil && a.comps >= 0 && a.comps != q.comps {
		err = fmt.Errorf("query %d: %d components, oracle says %d", r.opID, a.comps, q.comps)
	}
	r.check(err)
	return d
}

// verifyLabels compares the program's component of every vertex with the
// oracle's, as partitions (the two sides name components differently).
func (r *run) verifyLabels() {
	got, err := r.fe.labels()
	r.must(err)
	want := r.cur.labels
	if want == nil {
		panic("bench: script kept no labels for a verification point")
	}
	err = nil
	if len(got) != len(want) {
		err = fmt.Errorf("label readout has %d vertices, want %d", len(got), len(want))
	}
	fwd, back := map[int]int{}, map[int]int{}
	for v := 0; err == nil && v < len(want); v++ {
		g, gok := fwd[got[v]]
		w, wok := back[want[v]]
		switch {
		case !gok && !wok:
			fwd[got[v]], back[want[v]] = want[v], got[v]
		case !gok || !wok || g != want[v] || w != got[v]:
			err = fmt.Errorf("after batch %d the program's components disagree with the oracle at vertex %d", r.opID, v)
		}
	}
	r.check(err)
}

func (r *run) noteCache() {
	c, err := r.fe.counters()
	r.must(err)
	r.cacheHits += c.cacheHits - r.baseHits
	r.cacheMisses += c.cacheMisses - r.baseMisses
	r.baseHits, r.baseMisses = c.cacheHits, c.cacheMisses
}

func (r *run) rebaseCache() {
	c, err := r.fe.counters()
	r.must(err)
	r.baseHits, r.baseMisses = c.cacheHits, c.cacheMisses
}

// opCheckpoint cuts one checkpoint of the live instance.
func (r *run) opCheckpoint() {
	r.opID++
	r.timedOp("checkpoint", func() error {
		_, err := r.fe.checkpoint()
		return err
	})
}

// sampleCheckpoint is called by the front-ends for every checkpoint they
// time, including the full one a resize ends with.
func (r *run) sampleCheckpoint(kind string, d time.Duration) {
	if kind == snapshot.KindFull {
		r.sm.full = append(r.sm.full, d.Seconds())
	} else {
		r.sm.delta = append(r.sm.delta, d.Seconds())
	}
}

// opRestart is the crash path of every front-end: checkpoint so that the
// state at the kill is the chain's tip, drop the instance, build a fresh one,
// restore base and deltas into it, and ask it the first question — inside
// the span, so that "recovered" means "answering again".
func (r *run) opRestart(q *query) {
	r.noteCache()
	r.opCheckpoint()
	r.fe.kill()
	r.opID++
	var first time.Duration
	d := r.timedOp("recover", func() error {
		if err := r.fe.recover(); err != nil {
			return err
		}
		first = r.askIn(q)
		return nil
	})
	r.sm.recover = append(r.sm.recover, d.Seconds())
	r.sm.firstAnswer = append(r.sm.firstAnswer, first.Seconds())
	r.check(r.fe.verifyRestored())
	r.verifyLabels()
	r.rebaseCache()
}

func (r *run) opResize(q *query) {
	r.noteCache()
	runtime.GC()
	target := r.spec.otherMachines
	if r.fe.machines() == target {
		target = r.homeMachines()
	}
	r.opID++
	var first time.Duration
	ckpt0, err := r.fe.fullCheckpointSeconds()
	r.must(err)
	nfull := len(r.sm.full)
	d := r.timedOp("resize", func() error {
		if err := r.fe.resize(target); err != nil {
			return err
		}
		first = r.askIn(q)
		return nil
	})
	ckpt1, err := r.fe.fullCheckpointSeconds()
	r.must(err)
	// A resize ends by re-basing the checkpoint chain: a full checkpoint,
	// i.e. an 82 MB write and its fsync. That wait belongs to the disk, is
	// reported as checkpoint_full_s, and is taken out of resize_s.
	r.sm.resize = append(r.sm.resize, d.Seconds()-(ckpt1-ckpt0))
	if len(r.sm.full) == nfull {
		// The front-end could not time the checkpoint itself (it happened
		// inside the server's resize handler): take the server's word.
		r.sm.full = append(r.sm.full, ckpt1-ckpt0)
	}
	r.sm.firstAnswer = append(r.sm.firstAnswer, first.Seconds())
	r.verifyLabels()
	r.rebaseCache()
}

func (r *run) homeMachines() int {
	return coreConfig(r.spec, r.seed).MachineCount()
}

// script is the whole pre-generated input of a run.
type script struct {
	prefill, steady, tail []*step
	initial               []graph.Edge // the prefilled graph, where setup bootstraps from it
	edgeList              []byte
}

// lifecycleAfter reports which in-steady lifecycle operations follow steady
// batch i (0-based).
func (sp spec) lifecycleAfter(i int) (ckpt, restart, resize bool) {
	every := func(k int) bool { return k > 0 && (i+1)%k == 0 }
	return every(sp.ckptEvery), every(sp.restartEvery), every(sp.resizeEvery)
}

func buildScript(sp spec, seed uint64, secs int) *script {
	sc := &script{}
	var src scripter
	steady := sp.steady * secs
	tail := 2 * sp.tailCycles
	if sp.gen != nil {
		src = newGenScripter(sp.gen(sp.n, seed), sp.n, seed, sp.http)
		max := coreConfig(sp, seed).MaxBatch()
		for left := sp.prefillEdges; left > 0; {
			size := max
			if left < size {
				size = left
			}
			st := src.next(size, 0, 0, false)
			// Churn generators emit deletions too, so a batch's net growth
			// can fall short of its size; count what is actually live.
			ins := 0
			for _, u := range st.batch {
				if u.Op == graph.Insert {
					ins++
				} else {
					ins--
				}
			}
			if ins <= 0 {
				ins = 1
			}
			left -= ins
			sc.prefill = append(sc.prefill, st)
		}
		if sp.bootstrap {
			// The churn stream's own batches carry deletions and cost a
			// replacement search each; a session is loaded with the graph
			// they leave behind instead.
			sc.initial, sc.prefill = append([]graph.Edge(nil), src.(*genScripter).live...), nil
		}
	} else {
		var es *edgeScripter
		sc.edgeList, es = newEdgeList(sp.n, sp.lines*secs, seed)
		src = es
		steady = es.batches(sp.batch) - tail
		if steady < 1 {
			panic("bench: edge list too short for its tail")
		}
	}
	for i := 0; i < steady; i++ {
		nq := 0
		if (i+1)%sp.queryEvery == 0 {
			nq = sp.queries
		}
		_, restart, resize := sp.lifecycleAfter(i)
		probes := 0
		if restart {
			probes++
		}
		if resize {
			probes++
		}
		if i == steady-1 {
			probes++ // the tail's first resize asks it
		}
		st := src.next(sp.batch, nq+probes, sp.pairs, probes > 0)
		st.queries, st.probes = st.queries[:nq], st.queries[nq:]
		sc.steady = append(sc.steady, st)
	}
	for i := 0; i < tail; i++ {
		st := src.next(sp.tailBatch, 2, sp.pairs, true)
		st.queries, st.probes = nil, st.queries
		sc.tail = append(sc.tail, st)
	}
	return sc
}

func coreConfig(sp spec, seed uint64) core.Config {
	return core.Config{N: sp.n, Phi: sp.phi, Seed: seed, Parallelism: 1}
}
