package harness

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"syscall"
	"testing"
	"testing/iotest"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

const (
	modelN           = 48
	modelSteps       = 30
	modelDeltas      = 3 // the chain's cap before it compacts
	modelMaxMachines = 7
)

var modelSeeds = []uint64{1, 2}

// An op is one step of the model. The last four are store faults: the write
// faults hit the next checkpoint, the read fault the next Open.
type op int

const (
	opApply op = iota
	opQuery
	opCheckpoint
	opKill    // the process dies: session.Open on the store
	opRestore // the state dies in a live process: Session.Restore
	opResize
	opLoss       // machines die mid-batch: RecoverOnto fewer, then the batch
	opApplyFails // ApplyBatch fails with half the batch taken: RecoverOnto the same fleet, then the batch
	opNoSpace    // ENOSPC before anything is written
	opShortWrite // the write stops half way
	opLostPut    // the container is written but the rename or fsync fails
	opReadError  // the base read fails on Open
	numOps
)

var opNames = [numOps]string{"apply", "query", "checkpoint", "kill", "restore", "resize", "machine loss",
	"failed apply", "ENOSPC", "short write", "lost put", "read error"}

// opWeights is how many cards of each op a deck holds.
var opWeights = [numOps]int{6, 3, 6, 2, 1, 1, 2, 1, 1, 1, 1, 1}

// faultStore fails the next Put or Open the way armed says, once.
type faultStore struct {
	snapshot.Store
	armed op
}

// Unwrap exposes the store beneath, so a chain on a FileStore sweeps the
// temps of interrupted writes through the wrapper.
func (f *faultStore) Unwrap() snapshot.Store { return f.Store }

func (f *faultStore) take(kinds ...op) op {
	if !slices.Contains(kinds, f.armed) {
		return 0
	}
	k := f.armed
	f.armed = 0
	return k
}

func (f *faultStore) Put(name string, write func(io.Writer) error) error {
	switch f.take(opNoSpace, opShortWrite, opLostPut) {
	case opNoSpace:
		return syscall.ENOSPC
	case opShortWrite:
		return f.Store.Put(name, func(w io.Writer) error { return write(shortWriter{w}) })
	case opLostPut:
		if err := write(io.Discard); err != nil {
			return err
		}
		return syscall.EIO
	}
	return f.Store.Put(name, write)
}

func (f *faultStore) Open(name string) (io.ReadCloser, error) {
	r, err := f.Store.Open(name)
	if err == nil && f.take(opReadError) != 0 {
		r = struct {
			io.Reader
			io.Closer
		}{io.MultiReader(io.LimitReader(r, 64), iotest.ErrReader(syscall.EIO)), r}
	}
	return r, err
}

// shortWriter writes half of what it is handed and fails.
type shortWriter struct{ io.Writer }

func (s shortWriter) Write(p []byte) (int, error) {
	n, _ := s.Writer.Write(p[:len(p)/2])
	return n, io.ErrShortWrite
}

// subject is one session the model drives, at a parallelism on a store.
type subject struct {
	name  string
	cfg   session.Config // the chain and mirror are set by reopen
	store *faultStore
	path  string
	sess  *session.Session
	chain *snapshot.Chain
}

// reopen opens a new session on the store, as a process does after a kill.
func (s *subject) reopen() (*session.Session, *snapshot.Chain, error) {
	cfg := s.cfg
	cfg.Chain, cfg.Mirror = snapshot.OpenChainIn(s.store, s.path, modelDeltas), session.NewMirror(modelN)
	sess, err := session.Open(cfg)
	return sess, cfg.Chain, err
}

func (s *subject) inst() Instance { return s.sess.State().(Instance) }

// point is a state as the model tells states apart: batches applied, the
// mirror's edges and the solution's fingerprint.
type point struct {
	applied     int
	edges, solo string
}

// action is what a kill re-runs of the steps since the last durable
// checkpoint: a batch, a query, emptying the label cache (cold), or a check
// (which queries too).
type action struct {
	batch graph.Batch
	pairs []core.Pair
	cold  bool
}

// modelRun is one seeded op sequence, run in lockstep on three subjects —
// p1 and p8 on a MemStore, p1 on a FileStore — beside one twin: a volatile
// session that takes the same batches, queries and checks and resizes
// wherever the subjects resize or recover, and nothing else.
type modelRun struct {
	t        *testing.T
	gen      workload.Generator
	rnd      *hash.PRG
	deck     []op
	size     int
	subjects []*subject
	twin     *session.Session
	log      []action // since the last durable checkpoint
	applied  int
	old      point           // what the stores hold
	inChain  snapshot.Replay // what the chains' deltas journal
	cycles   uint64
	based    bool // the stores hold a base
	unlinked bool // a write failed since the chains were opened or written
	last     string
	n        int // the step
	ops      [numOps]int
	minFleet bool                 // a machine loss left the minimum fleet
	restored [modelDeltas + 1]int // kills by the chain length they restored
	compact  int
}

// TestLifecycleModel draws seeded sequences of apply, query, checkpoint,
// kill, restore, resize, machine loss, failed apply and store faults for
// every registered algorithm over every compatible scenario, and runs each
// on three sessions: at parallelism 1 and 8 on a MemStore, and at
// parallelism 1 on a FileStore, each store wrapped in a faultStore. A
// session keeps a Mirror and checkpoints into a chain capped at three
// deltas. A kill opens the store again with session.Open (a restore calls
// Session.Restore in the live process) and re-runs every action since the
// last durable checkpoint, queries and checks included. After every step, for
// every session:
//   - Instance.Check holds the state to the generator's mirror, and the
//     session's mirror is that mirror;
//   - the fingerprint equals the twin's, on a batch size every fleet takes
//     whole;
//   - Stats and the cache hit or miss of every connectivity query equal the
//     twin's (a recovery replays no queries: once its solution is checked,
//     the twin reopens the re-based store);
//   - Applied, RestoreCycles and Counters carry across every replacement;
//   - after a failed write the store restores to the old or the new complete
//     state, and the next checkpoint is a full base.
//
// The three stores end holding the same container bytes. The test fails if
// any op or store fault never fired for an algorithm, a chain of some length
// up to the cap was never restored, no chain compacted, or an algorithm
// never recovered onto two machines.
func TestLifecycleModel(t *testing.T) {
	var mu sync.Mutex
	runs := map[string][]*modelRun{}
	t.Run("runs", func(t *testing.T) {
		for _, name := range AlgorithmNames() {
			algo, err := GetAlgorithm(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, scName := range workload.Names() {
				sc, err := workload.Get(scName)
				if err != nil {
					t.Fatal(err)
				}
				if Compatible(algo, sc) != nil {
					continue
				}
				for _, seed := range modelSeeds {
					t.Run(fmt.Sprintf("%s/%s/seed%d", name, scName, seed), func(t *testing.T) {
						t.Parallel()
						r := newModelRun(t, algo, sc, seed)
						for step := range modelSteps {
							r.step(step)
						}
						want := r.subjects[0].containers(t)
						for _, s := range r.subjects[1:] {
							if !reflect.DeepEqual(s.containers(t), want) {
								t.Errorf("%s holds other containers than %s", s.name, r.subjects[0].name)
							}
						}
						mu.Lock()
						defer mu.Unlock()
						runs[name] = append(runs[name], r)
					})
				}
			}
		}
	})
	if t.Failed() {
		return
	}
	var restored [modelDeltas + 1]int
	compactions := 0
	for _, name := range AlgorithmNames() {
		var ops [numOps]int
		twoMachines := false
		for _, r := range runs[name] {
			for k := range numOps {
				ops[k] += r.ops[k]
			}
			twoMachines = twoMachines || r.minFleet
			for l, k := range r.restored {
				restored[l] += k
			}
			compactions += r.compact
		}
		for k := range numOps {
			if ops[k] == 0 {
				t.Errorf("%s: no %s", name, opNames[k])
			}
		}
		if !twoMachines {
			t.Errorf("%s: no recovery ended on the two-machine fleet", name)
		}
	}
	for l, k := range restored {
		if k == 0 {
			t.Errorf("no kill restored a chain of %d deltas (restored %v)", l, restored)
		}
	}
	if compactions == 0 {
		t.Error("no chain compacted")
	}
	t.Logf("kills restored chains of 0 to %d deltas %v times; %d chains compacted", modelDeltas, restored, compactions)
}

func newModelRun(t *testing.T, algo Algorithm, sc workload.Scenario, seed uint64) *modelRun {
	h := fnv.New64a()
	fmt.Fprint(h, algo.Name, sc.Name)
	r := &modelRun{t: t, gen: sc.New(modelN, seed+1), rnd: hash.NewPRG(seed ^ h.Sum64())}
	for _, v := range []struct {
		par  int
		file bool
	}{{1, false}, {8, false}, {1, true}} {
		s := &subject{name: fmt.Sprintf("p%d MemStore", v.par), path: "model",
			cfg:   sessionConfig(algo, Options{N: modelN, Seed: seed, Parallelism: v.par}.withDefaults()),
			store: &faultStore{Store: snapshot.NewMemStore()}}
		if v.file {
			s.name, s.store.Store, s.path = fmt.Sprintf("p%d FileStore", v.par), snapshot.FileStore{}, filepath.Join(t.TempDir(), "model")
		}
		var err error
		if s.sess, s.chain, err = s.reopen(); err != nil {
			t.Fatal(err)
		}
		r.subjects = append(r.subjects, s)
	}
	cfg := r.subjects[0].cfg
	// Every batch fits the widest fleet's MaxBatch, the smallest, so no fleet
	// cuts one.
	widest, err := core.ResizeConfig(cfg.Shape, modelMaxMachines)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cfg.New(widest)
	if err != nil {
		t.Fatal(err)
	}
	r.size, r.last = st.MaxBatch(), fingerprint(t, st.(Instance))
	r.old = point{edges: edgesOf(graph.New(modelN)), solo: r.last}
	if r.twin, err = session.Open(cfg); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *modelRun) fatalf(s *subject, format string, args ...any) {
	r.t.Helper()
	name := "twin"
	if s != nil {
		name = s.name
	}
	r.t.Fatalf("%s, step %d (%d machines, %d applied): "+format,
		append([]any{name, r.n, r.twin.Shape().MachineCount(), r.applied}, args...)...)
}

// draw deals the next op from a shuffled deck that holds each op as often
// as its weight, so every op fires once the first deck is dealt.
func (r *modelRun) draw() op {
	if len(r.deck) == 0 {
		for k, w := range opWeights {
			for range w {
				r.deck = append(r.deck, op(k))
			}
		}
		for i := len(r.deck) - 1; i > 0; i-- {
			j := r.rnd.NextN(uint64(i + 1))
			r.deck[i], r.deck[j] = r.deck[j], r.deck[i]
		}
	}
	k := r.deck[len(r.deck)-1]
	r.deck = r.deck[:len(r.deck)-1]
	return k
}

func (r *modelRun) step(i int) {
	r.n = i
	kind := r.draw()
	r.ops[kind]++
	cold := false
	switch kind {
	case opApply:
		r.apply(r.gen.Next(r.size))
	case opQuery:
		cold = r.query()
	case opCheckpoint:
		r.checkpoint()
	case opKill, opRestore:
		r.kill(kind == opRestore)
	case opReadError:
		if !r.based {
			r.checkpoint()
		}
		for _, s := range r.subjects {
			s.store.armed = opReadError
			if _, _, err := s.reopen(); err == nil || s.store.armed != 0 {
				r.fatalf(s, "Open over a failing read: %v", err)
			}
		}
		r.kill(false)
	case opResize:
		to := 2 + int(r.rnd.NextN(modelMaxMachines-1))
		for _, s := range r.subjects {
			before := s.sess.Counters()
			if _, err := s.sess.Resize(to); err != nil {
				r.fatalf(s, "resize to %d: %v", to, err)
			}
			if got := s.sess.Counters(); !reflect.DeepEqual(got, before) {
				r.fatalf(s, "a resize moved Counters from %+v to %+v", before, got)
			}
		}
		r.follow()
		r.durable(snapshot.KindFull)
	case opLoss, opApplyFails:
		b := r.gen.Next(r.size)
		machines := r.twin.Shape().MachineCount()
		if kind == opLoss {
			machines -= 1 + int(r.rnd.NextN(uint64(machines)))
			r.minFleet = r.minFleet || machines <= 2
		}
		since := r.since()
		for _, s := range r.subjects {
			before := s.sess.Counters()
			if kind == opApplyFails && len(b) > 1 {
				if err := s.sess.State().ApplyBatch(b[:len(b)/2]); err != nil {
					r.fatalf(s, "half a batch: %v", err)
				}
			}
			if _, err := s.sess.RecoverOnto(machines, since); err != nil {
				r.fatalf(s, "recover onto %d machines: %v", machines, err)
			}
			if got := s.sess.Shape().MachineCount(); got != max(machines, 2) {
				r.fatalf(s, "recovered onto %d machines, want %d", got, max(machines, 2))
			}
			// The replay runs searches but no query.
			got := s.sess.Counters()
			if got.CacheHits != before.CacheHits || got.CacheMisses != before.CacheMisses ||
				got.Searches != nil && got.Searches.Searches < before.Searches.Searches {
				r.fatalf(s, "a recovery moved Counters from %+v to %+v", before, got)
			}
		}
		r.follow()
		r.durable(snapshot.KindFull)
		r.apply(b)
		r.check(false)
		r.retwin()
	default: // a write fault
		for _, s := range r.subjects {
			s.store.armed = kind
			if _, err := s.sess.Checkpoint(); err == nil || s.store.armed != 0 {
				r.fatalf(s, "a checkpoint through a %s: %v", opNames[kind], err)
			}
			r.probe(s)
		}
		r.unlinked = true
	}
	r.check(true)
	if cold {
		r.chill()
	}
}

// apply admits b into every session's mirror and applies it to every
// session and the twin.
func (r *modelRun) apply(b graph.Batch) {
	if len(b) == 0 {
		return // a stalled generator
	}
	for _, s := range r.subjects {
		if err := s.sess.Mirror().Admit(b); err != nil {
			r.fatalf(s, "admit: %v", err)
		}
		if err := s.sess.Apply(b); err != nil {
			r.fatalf(s, "apply: %v", err)
		}
	}
	if err := r.twin.Apply(b); err != nil {
		r.fatalf(nil, "apply: %v", err)
	}
	r.applied++
	r.log = append(r.log, action{batch: b})
}

// query asks a connectivity state random pairs, and reports whether it did;
// any other state has its solution read by the check that ends the step.
// Every check warms the whole label cache, so the step of a query ends with
// the cache emptied (chill), for the next checkpoint to write a warm set
// other than all of it.
func (r *modelRun) query() bool {
	twin, ok := r.twin.State().(connectivityInstance)
	if !ok {
		return false
	}
	pairs := make([]core.Pair, 1+r.rnd.NextN(12))
	for i := range pairs {
		pairs[i] = core.Pair{U: int(r.rnd.NextN(modelN)), V: int(r.rnd.NextN(modelN))}
	}
	hits, misses := twin.QueryCacheStats()
	want := twin.ConnectedAll(pairs)
	h, m := twin.QueryCacheStats()
	hits, misses = h-hits, m-misses
	for _, s := range r.subjects {
		dc := s.inst().(connectivityInstance)
		h, m := dc.QueryCacheStats()
		if got := dc.ConnectedAll(pairs); !slices.Equal(got, want) {
			r.fatalf(s, "answers %v, twin %v", got, want)
		}
		h2, m2 := dc.QueryCacheStats()
		if h2-h != hits || m2-m != misses {
			r.fatalf(s, "query was %d hit / %d miss, on the twin %d / %d", h2-h, m2-m, hits, misses)
		}
	}
	r.log = append(r.log, action{pairs: pairs})
	return true
}

// chill empties every label cache.
func (r *modelRun) chill() {
	for _, s := range r.subjects {
		s.inst().(connectivityInstance).InvalidateQueryCache()
	}
	r.twin.State().(connectivityInstance).InvalidateQueryCache()
	r.log = append(r.log, action{cold: true})
}

func (r *modelRun) checkpoint() {
	var kind string
	for i, s := range r.subjects {
		deltas := s.chain.Len()
		cut, err := s.sess.Checkpoint()
		if err != nil {
			r.fatalf(s, "checkpoint: %v", err)
		}
		if r.unlinked && cut.Kind != snapshot.KindFull {
			r.fatalf(s, "the first checkpoint after a failed write is a %s", cut.Kind)
		}
		if i == 0 {
			kind = cut.Kind
			if kind == snapshot.KindFull && deltas == modelDeltas {
				r.compact++
			}
		} else if cut.Kind != kind {
			r.fatalf(s, "a %s checkpoint where %s wrote a %s", cut.Kind, r.subjects[0].name, kind)
		}
	}
	r.durable(kind)
}

// durable records that the stores now hold the live state, in a container
// of the given kind.
func (r *modelRun) durable(kind string) {
	if kind == snapshot.KindFull {
		r.inChain = snapshot.Replay{}
	}
	for _, b := range r.since() {
		if kind == snapshot.KindDelta {
			r.inChain.Batches++
			r.inChain.Updates += len(b)
		}
	}
	s := r.subjects[0].sess
	r.old = point{s.Applied(), edgesOf(s.Mirror().Graph()), r.last}
	r.cycles, r.based, r.unlinked = s.RestoreCycles(), true, false
	r.log = r.log[:0]
}

// follow resizes the twin onto the subjects' fleet.
func (r *modelRun) follow() {
	if sh := r.subjects[0].sess.Shape(); sh.MachineCount() != r.twin.Shape().MachineCount() {
		if _, err := r.twin.Resize(sh.MachineCount()); err != nil {
			r.fatalf(nil, "resize to %d: %v", sh.MachineCount(), err)
		}
	}
}

// since is the batches applied after the last durable checkpoint.
func (r *modelRun) since() []graph.Batch {
	var out []graph.Batch
	for _, a := range r.log {
		if a.batch != nil {
			out = append(out, a.batch)
		}
	}
	return out
}

// kill drops every session's state and restores what the store holds — in
// a new process (session.Open), or in the live one (Session.Restore), which
// keeps the counters of the state it drops — then re-runs what the store
// does not hold.
func (r *modelRun) kill(inProcess bool) {
	if inProcess && !r.based {
		r.checkpoint()
	}
	wantCycles := uint64(0)
	if r.based {
		wantCycles = r.cycles + 1
	}
	for i, s := range r.subjects {
		before, err := s.sess.Counters(), error(nil)
		if inProcess {
			if ok, err := s.sess.Restore(); !ok || err != nil {
				r.fatalf(s, "Restore = (%v, %v)", ok, err)
			}
		} else if s.sess, s.chain, err = s.reopen(); err != nil {
			r.fatalf(s, "Open: %v", err)
		}
		if i == 0 && r.based {
			r.restored[s.chain.Len()]++
		}
		if got := s.sess.Applied(); got != r.old.applied || s.sess.RestoreCycles() != wantCycles {
			r.fatalf(s, "restored %d batches applied after %d restores, the store holds %d after %d",
				got, s.sess.RestoreCycles(), r.old.applied, wantCycles)
		}
		if got := s.chain.Replayed(); got != r.inChain {
			r.fatalf(s, "the restore replayed %+v, the chain's deltas journal %+v", got, r.inChain)
		}
		c := s.sess.Counters()
		if inProcess && !reflect.DeepEqual(c, before) ||
			!inProcess && (c.CacheHits+c.CacheMisses != 0 || c.Searches != nil && *c.Searches != core.SearchStats{}) {
			r.fatalf(s, "restored with counters %+v (before: %+v)", c, before)
		}
		r.rerun(s, s.sess)
	}
	r.unlinked = false
}

// rerun runs the log on sess, reopened from s's store (nil: the twin).
func (r *modelRun) rerun(s *subject, sess *session.Session) {
	for _, a := range r.log {
		switch {
		case a.batch != nil:
			if err := sess.Mirror().Admit(a.batch); err != nil {
				r.fatalf(s, "re-run: admit: %v", err)
			}
			if err := sess.Apply(a.batch); err != nil {
				r.fatalf(s, "re-run: %v", err)
			}
		case a.pairs != nil:
			sess.State().(connectivityInstance).ConnectedAll(a.pairs)
		case a.cold:
			sess.State().(connectivityInstance).InvalidateQueryCache()
		default:
			r.inspect(s, sess, sess.Mirror().Graph())
		}
	}
}

// retwin hands the twin the recovered state. A recovery replays batches
// without their queries, so the subjects' Stats and label caches part from
// the twin's: the twin opens the first subject's store, re-runs the log and
// goes volatile, and every later step compares Stats and cache hits again.
func (r *modelRun) retwin() {
	twin, _, err := r.subjects[0].reopen()
	if err != nil {
		r.fatalf(nil, "Open on the recovered store: %v", err)
	}
	twin.SetChain(nil)
	r.rerun(nil, twin)
	r.twin = twin
}

// probe opens a second session on s's store after a failed write: it must
// restore, to the state the store held or to the one the write was for.
func (r *modelRun) probe(s *subject) {
	sess, _, err := s.reopen()
	if err != nil {
		r.fatalf(s, "the store is wedged after a failed write: %v", err)
	}
	got := point{sess.Applied(), edgesOf(sess.Mirror().Graph()), fingerprint(r.t, sess.State().(Instance))}
	if now := (point{r.applied, edgesOf(r.gen.Mirror()), r.last}); got != r.old && got != now {
		r.fatalf(s, "after a failed write the store restores to %+v, neither the old %+v nor the new %+v", got, r.old, now)
	}
}

// inspect checks sess's state against g and returns its fingerprint. The
// check and the fingerprint query the state, so they are an action too.
func (r *modelRun) inspect(s *subject, sess *session.Session, g *graph.Graph) string {
	inst := sess.State().(Instance)
	if err := inst.Check(g); err != nil {
		r.fatalf(s, "check: %v", err)
	}
	return fingerprint(r.t, inst)
}

// check ends every step. A recovery checks its solution before the twin
// takes the recovered state, and not its Stats, which differ until then.
func (r *modelRun) check(withStats bool) {
	g := r.gen.Mirror()
	want := r.inspect(nil, r.twin, g)
	stats := SumStats(r.twin.State().(Instance).Clusters())
	for _, s := range r.subjects {
		if m := s.sess.Mirror().Graph(); !sameEdges(m, g) {
			r.fatalf(s, "the session's mirror holds %s, the generator's %s", edgesOf(m), edgesOf(g))
		}
		if got := r.inspect(s, s.sess, g); got != want {
			r.fatalf(s, "the state differs from the twin's:\n  got  %s\n  twin %s", got, want)
		}
		if s.sess.Applied() != r.applied {
			r.fatalf(s, "Applied = %d", s.sess.Applied())
		}
		if c := s.sess.Counters(); c.Searches != nil && c.Searches.Exhausted != 0 {
			r.fatalf(s, "%d replacement searches exhausted", c.Searches.Exhausted)
		}
		if got := SumStats(s.inst().Clusters()); withStats && !reflect.DeepEqual(got, stats) {
			r.fatalf(s, "Stats\n  got  %+v\n  twin %+v", got, stats)
		}
	}
	r.log = append(r.log, action{})
	r.last = want
}

// containers reads every container s's store holds, by name past the path.
func (s *subject) containers(t *testing.T) map[string][]byte {
	out := map[string][]byte{}
	for i := range modelDeltas + 1 {
		name := s.path
		if i > 0 {
			name = fmt.Sprintf("%s.delta-%03d", s.path, i)
		}
		if f, err := s.store.Store.Open(name); err == nil {
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(f); err != nil {
				t.Fatal(err)
			}
			f.Close()
			out[filepath.Ext(name)] = buf.Bytes()
		}
	}
	return out
}

// sameEdges reports whether a and b hold the same weighted edges.
func sameEdges(a, b *graph.Graph) bool {
	if a.M() != b.M() {
		return false
	}
	for _, e := range a.Edges() {
		if w, ok := b.Weight(e.U, e.V); !ok || w != e.Weight {
			return false
		}
	}
	return true
}

// edgesOf renders a graph's edge set in edge order.
func edgesOf(g *graph.Graph) string {
	edges := g.Edges()
	slices.SortFunc(edges, func(a, b graph.WeightedEdge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	return fmt.Sprint(edges)
}
