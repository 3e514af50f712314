package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/mpc"
	"repro/internal/sketch"
	"repro/internal/sketchcodec"
	"repro/internal/snapshot"
)

// Extra machine-store slots used by DynamicConnectivity.
const (
	slotSketch = "s" // sketchShard, on vertex machines
	slotWork   = "w" // coordinator workspace during replacement search
)

// sketchShard holds the AGM vertex sketches of one machine's vertex range,
// backed by one contiguous sketch arena (one allocation per shard, not one
// per vertex).
type sketchShard struct {
	lo    int
	n     int
	arena *sketch.Arena
}

// Words implements mpc.Sized.
func (s *sketchShard) Words() int { return s.arena.Words() + 1 }

func (s *sketchShard) of(v int) sketch.VertexSketch { return s.arena.VertexAt(v-s.lo, s.n) }

// sShard returns machine mm's sketch shard, or nil for the coordinator.
func sShard(mm *mpc.Machine) *sketchShard {
	s, _ := mm.Get(slotSketch).(*sketchShard)
	return s
}

// searchWindow returns how many sketch copies a replacement search fetches
// at a time: a quarter of the t copies, at least 4. A search reads a handful
// (levels of Borůvka depth plus a retry for every second query), so the first
// window nearly always suffices; the rest of the t exist for the
// with-high-probability bound and are fetched when a search gets that far.
func searchWindow(t int) int { return min(t, max(4, t/4)) }

// workspace is the coordinator's state during one replacement search, and
// the part of findReplacements that runs on the coordinator alone: the
// supernodes (unions of fragments, named by their root in supernodes), and
// for every non-passive one the sum of its fragments' sketches over the
// window of copies [lo, hi) currently held — views into the aggregated batch
// buffer — and a cursor, the next copy it may read.
//
// The cursor invariant: a supernode never reads a copy that it or any
// supernode merged into it has read (the independence rule of
// sketch.Sketch.Query: what a supernode's vector is depends on what those
// reads returned). A supernode reads at its cursor and moves it up, a union
// continues from the larger of its two cursors, installing a later window
// lifts every cursor to the window's first copy, and nothing ever lowers
// one.
type workspace struct {
	space      *sketch.Space
	n          int // vertices: candidate edge ids decode against it
	lo, hi     int
	sketches   map[int]sketch.Sketch
	cursor     map[int]int
	supernodes graph.MinUnion
	// passive and active are keyed by supernode root. Active supernodes still
	// query; a non-passive one that is not active has learned that no edge
	// leaves it.
	passive, active map[int]bool
	replacements    []graph.WeightedEdge
	reps            []int
	stats           *searchCounters
}

// newWorkspace starts a search next to the given passive fragments; the
// first install names the others.
func newWorkspace(space *sketch.Space, n int, passiveComps []int, stats *searchCounters) *workspace {
	ws := &workspace{
		space: space, n: n,
		sketches: map[int]sketch.Sketch{},
		cursor:   map[int]int{},
		passive:  make(map[int]bool, len(passiveComps)),
		active:   map[int]bool{},
		stats:    stats,
	}
	for _, c := range passiveComps {
		ws.passive[c] = true
	}
	return ws
}

// Words implements mpc.Sized: the windows held.
func (ws *workspace) Words() int {
	if len(ws.sketches) == 0 {
		return 0
	}
	return len(ws.sketches) * ws.space.WindowWords(ws.lo, ws.hi)
}

// install makes [lo, hi) the window held, the previous one having been
// cleared out of sketches: sums, the per-fragment sums of those copies, are
// re-summed by the supernode each fragment now belongs to, and no cursor
// stays below lo. The first window (lo = 0) is where every fragment summed
// starts out active.
func (ws *workspace) install(sums map[int]sketch.Sketch, lo, hi int) {
	ws.lo, ws.hi = lo, hi
	for label, sk := range sums {
		root := ws.supernodes.Find(label)
		if ws.passive[root] {
			continue
		}
		if lo == 0 {
			ws.active[root] = true
		}
		if cur, ok := ws.sketches[root]; ok {
			cur.Add(sk)
		} else {
			ws.sketches[root] = sk
		}
	}
	for root := range ws.sketches {
		ws.cursor[root] = max(ws.cursor[root], lo)
	}
}

// query runs one level's reads: every active supernode, in ascending order,
// reads copies from its cursor on until one returns an edge (a candidate) or
// Empty (no edge leaves it: it is done), or the window ends. A Fail costs
// the supernode a copy and nothing else. stalled reports that an active
// supernode is waiting at the end of the window.
func (ws *workspace) query() (candidates []graph.Edge, stalled bool) {
	ws.reps = ws.reps[:0]
	for c := range ws.active {
		ws.reps = append(ws.reps, c)
	}
	sort.Ints(ws.reps)
	for _, rep := range ws.reps {
		sk := ws.sketches[rep]
	read:
		for {
			c := ws.cursor[rep]
			if c >= ws.hi {
				stalled = true
				break
			}
			ws.cursor[rep] = c + 1
			switch e, res := sk.Query(c); res {
			case sketch.Empty:
				delete(ws.active, rep) // no edges leave this supernode: done
				break read
			case sketch.Found:
				candidates = append(candidates, graph.EdgeFromID(e, ws.n))
				break read
			case sketch.Fail:
				ws.stats.queryFails.Add(1)
			}
		}
	}
	return candidates, stalled
}

// merge contracts the candidates of one level, given the fragment labels of
// their endpoints (two per candidate, in order): an edge between two
// supernodes joins the replacement forest and unites them.
func (ws *workspace) merge(candidates []graph.Edge, labels []int) {
	for i, e := range candidates {
		ra, rb, ok := ws.supernodes.Union(labels[2*i], labels[2*i+1])
		if !ok {
			continue
		}
		ws.replacements = append(ws.replacements, graph.WeightedEdge{Edge: e})
		delete(ws.active, rb)
		if ws.passive[ra] || ws.passive[rb] {
			ws.passive[ra] = true
			delete(ws.active, ra)
			delete(ws.sketches, ra)
			delete(ws.sketches, rb)
			continue
		}
		ws.cursor[ra] = max(ws.cursor[ra], ws.cursor[rb])
		skB, okB := ws.sketches[rb]
		if skA, okA := ws.sketches[ra]; okA && okB {
			skA.Add(skB)
		}
		delete(ws.sketches, rb)
		// The union may revive a supernode previously thought done; a
		// merged supernode keeps querying while edges remain.
		ws.active[ra] = true
	}
}

// DynamicConnectivity maintains connectivity and a spanning forest of an
// evolving graph under batches of edge insertions and deletions
// (Theorem 1.1 / Theorem 6.7): O(1/φ)-round updates on an MPC with
// O(n^φ)-vertex local memory and Õ(n) total memory.
//
// Three deviations from the paper are made explicit. Constructing the
// replacement forest F_H (Lemma 6.5) requires resolving the fragment of the
// second endpoint of every sketched replacement edge, which this
// implementation performs with one O(1)-round distributed lookup per
// Borůvka level, adding O(log k) rounds to a deletion batch of k tree
// edges; a query that fails costs no level, the supernode retries on its
// next sketch copy at the coordinator. Lemma 6.5 merges the sketches of every
// fragment, whereas here the largest fragment of every split tour stays
// passive: its sketches are neither summed nor queried, the other fragments
// of its old component find the edges that reach it, and the work of a
// search follows the smaller sides of the cuts (see findReplacements for why
// no answer changes). And it merges all t copies of them, whereas here a
// search is shipped a window of the copies at a time and fetches the next,
// with the same aggregation, only when it has read through the one it holds.
// Every supernode keeps a cursor into the copies, under one invariant (stated
// at workspace): no supernode ever reads a copy that it, or a supernode
// merged into it, has read. See README.md ("Deviations") for the discussion.
//
// All per-machine callbacks below obey the mpc.StepFunc concurrency
// contract (machine-local mutation only; broadcast payloads are read-only),
// so the algorithm runs unchanged at any Config.Parallelism.
type DynamicConnectivity struct {
	f      *Forest
	space  *sketch.Space
	search searchCounters
	// journal holds the batches ApplyBatch took since the last acknowledged
	// checkpoint: what a delta checkpoint ships and a restore replays (see
	// snapshot.go). It is bounded at one update per vertex — a restore pays
	// roughly an apply per journaled update, so past that a full base is the
	// better checkpoint — which also bounds it in a process that never
	// checkpoints.
	journal snapshot.Journal
}

// NewDynamicConnectivity builds the distributed state for an initially
// empty graph on cfg.N vertices.
func NewDynamicConnectivity(cfg Config) (*DynamicConnectivity, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	prg := hash.NewPRG(cfg.Seed)
	space := sketch.NewGraphSpace(cfg.N, cfg.defaultSketchCopies(), prg)
	f, err := newForest(cfg, false, space.SketchWords()+8)
	if err != nil {
		return nil, err
	}
	dc := &DynamicConnectivity{f: f, space: space}
	f.cl.LocalAll(func(mm *mpc.Machine) {
		vs := vShard(mm)
		if vs == nil {
			return
		}
		sh := &sketchShard{lo: vs.lo, n: cfg.N, arena: space.NewArena(vs.hi - vs.lo)}
		mm.Set(slotSketch, sh)
	})
	return dc, nil
}

// Forest exposes the underlying forest engine (read-only use: queries,
// snapshots, cluster metering).
func (dc *DynamicConnectivity) Forest() *Forest { return dc.f }

// Cluster exposes the MPC cluster for metering.
func (dc *DynamicConnectivity) Cluster() *mpc.Cluster { return dc.f.cl }

// Config returns the instance's configuration.
func (dc *DynamicConnectivity) Config() Config { return dc.f.cfg }

// MaxBatch returns the largest accepted update batch.
func (dc *DynamicConnectivity) MaxBatch() int { return dc.f.cfg.MaxBatch() }

// sketchUpdate tells the vertex shards a batch of edge updates to apply to
// their sketches.
type sketchUpdate struct {
	edges []graph.Edge
	op    graph.Op
}

func (u sketchUpdate) Words() int { return 2*len(u.edges) + 1 }

// updateSketches applies the batch to the sketches of all endpoint vertices
// with one Tell (Section 6.1: "updating the sketches").
func (dc *DynamicConnectivity) updateSketches(edges []graph.Edge, op graph.Op) {
	dc.f.tell(sketchUpdate{edges: edges, op: op}, func(mm *mpc.Machine, payload mpc.Sized) {
		vs := vShard(mm)
		if vs == nil {
			return
		}
		sh := mm.Get(slotSketch).(*sketchShard)
		u := payload.(sketchUpdate)
		for _, e := range u.edges {
			for _, v := range []int{e.U, e.V} {
				if vs.owns(v) {
					sh.of(v).ApplyEdge(v, e, u.op)
				}
			}
		}
	})
}

// ApplyBatch processes one phase's updates: insertions first, then
// deletions (Section 1.2 allows treating them as two consecutive
// sub-batches). The batch must be valid against the current graph: no
// duplicate insertions, deletions only of present edges, no self loops.
//
// An applied batch is journaled for the next delta checkpoint; a batch that
// failed may have been applied in part, so the journal no longer describes
// the state and is dropped.
func (dc *DynamicConnectivity) ApplyBatch(b graph.Batch) error {
	if err := dc.applyBatch(b); err != nil {
		dc.journal.Drop()
		return err
	}
	dc.journal.Record(b, dc.f.cfg.N)
	return nil
}

// applyBatch is ApplyBatch less the journal: what a delta restore replays
// journaled batches through.
func (dc *DynamicConnectivity) applyBatch(b graph.Batch) error {
	if len(b) > dc.MaxBatch() {
		return fmt.Errorf("core: batch of %d exceeds MaxBatch %d", len(b), dc.MaxBatch())
	}
	var ins, del []graph.Edge
	for _, u := range b {
		switch u.Op {
		case graph.Insert:
			ins = append(ins, u.Edge.Canonical())
		case graph.Delete:
			del = append(del, u.Edge.Canonical())
		default:
			return fmt.Errorf("core: unknown op %v", u.Op)
		}
	}
	if err := dc.insert(ins); err != nil {
		return err
	}
	return dc.delete(del)
}

// insert processes a batch of insertions (Section 6.1).
func (dc *DynamicConnectivity) insert(edges []graph.Edge) error {
	if len(edges) == 0 {
		return nil
	}
	dc.updateSketches(edges, graph.Insert)
	labels, _ := dc.f.labelsInto(nil, endpointsOf(edges))
	// F_H: greedily keep the edges that merge two still-distinct components
	// (a spanning forest of the auxiliary graph H). The rest are non-tree
	// edges and require nothing beyond the sketch update.
	var merged graph.MinUnion
	var forest []graph.WeightedEdge
	for i, e := range edges {
		if _, _, ok := merged.Union(labels[2*i], labels[2*i+1]); ok {
			forest = append(forest, graph.WeightedEdge{Edge: e})
		}
	}
	return dc.f.Link(forest)
}

// delete processes a batch of deletions (Section 6.3).
func (dc *DynamicConnectivity) delete(edges []graph.Edge) error {
	if len(edges) == 0 {
		return nil
	}
	dc.updateSketches(edges, graph.Delete)
	report, err := dc.f.Cut(edges)
	if err != nil {
		return err
	}
	if len(report.TreeRecords) == 0 {
		return nil
	}
	replacements := dc.findReplacements(report.PassiveComps)
	// Insert the replacement forest; chunked to respect the batch cap (a
	// subset of a forest over components is still a forest over components).
	chunk := dc.f.cfg.MaxBatch()
	for len(replacements) > 0 {
		cut := min(len(replacements), chunk)
		if err := dc.f.Link(replacements[:cut]); err != nil {
			return err
		}
		replacements = replacements[cut:]
	}
	return nil
}

// aggregateFragmentSketches merges copies [lo, hi) of the vertex sketches of
// every fragment the preceding Cut left active (keyed by the fragment's fresh
// component id) and delivers them to the coordinator: Lemma 6.5's
// sketch-merging step, O(1/φ) rounds through the aggregation tree, restricted
// to the fragments that will query and to the copies they are about to read.
// Vertices of a passive fragment — the largest of its split tour —
// contribute nothing, so the words summed and shipped are proportional to
// the smaller sides of the cuts, not to the components cut. Sketches travel
// as [label, cells...] frames of the batched message codec and come back as
// views into the final batch buffer, valid until release is called.
//
// The first window is the step that follows every Cut, so the shards sum it
// unasked; a later one they are told to, which costs the broadcast.
func (dc *DynamicConnectivity) aggregateFragmentSketches(lo, hi int) (sums map[int]sketch.Sketch, release func()) {
	if lo > 0 {
		dc.f.tell(mpc.Ints{lo, hi}, func(*mpc.Machine, mpc.Sized) {})
	}
	return sketchcodec.AggregateByLabel(dc.f.cl, dc.f.coord, dc.space, lo, hi,
		func(mm *mpc.Machine, add func(label int, sk sketch.Sketch)) {
			vs := vShard(mm)
			if vs == nil || len(vs.frag) == 0 {
				return
			}
			sh := mm.Get(slotSketch).(*sketchShard)
			summed := 0
			for v, k := range vs.frag {
				if vs.passive[k] {
					continue
				}
				add(vs.compOf(v), sh.of(v).Sketch)
				summed++
			}
			dc.search.sketchesSummed.Add(uint64(summed))
			dc.search.sketchesSkipped.Add(uint64(len(vs.frag) - summed))
		})
}

// findReplacements runs the AGM-style Borůvka over the fragments at the
// coordinator and returns the replacement forest edges. A level is one round
// of Borůvka: every active supernode comes up with a candidate edge, one
// distributed component lookup resolves all their endpoints, the supernodes
// they join are united. What runs on the coordinator alone is workspace's.
//
// Only active supernodes hold a sketch and query it. The fragments named in
// passiveComps never do, and a supernode that merges with a passive one
// turns passive itself: its sketch is dropped and it stops querying. This
// loses nothing. Fragments of one old component have edges only among
// themselves; an active supernode either finds an edge leaving it or learns
// (Empty) that it is a whole component; and every edge leaving a passive
// supernode is an edge leaving some active one. So once no active supernode
// is left, the supernodes are exactly the components.
//
// The search holds a window of the t sketch copies (searchWindow), and every
// supernode reads through it at its own pace under the cursor invariant
// stated at workspace: a query that fails is retried on the supernode's next
// copy at once, at the coordinator, and costs no round. Only when no
// supernode found an edge and some are waiting at the end of the window is
// the next window fetched — the same aggregation over the next copy range,
// counted in SearchStats.Refills.
//
// A search in which a supernode has read through copy t-1 and is still
// active may return too few edges (a too-fine partition); it is counted in
// SearchStats.Exhausted, not repaired.
func (dc *DynamicConnectivity) findReplacements(passiveComps []int) []graph.WeightedEdge {
	dc.search.searches.Add(1)
	defer dc.f.dropPassive()
	ws := newWorkspace(dc.space, dc.f.cfg.N, passiveComps, &dc.search)
	// Register the workspace on the coordinator so its memory is metered.
	dc.f.cl.LocalAt(dc.f.coord, func(mm *mpc.Machine) { mm.Set(slotWork, ws) })
	defer dc.f.cl.LocalAt(dc.f.coord, func(mm *mpc.Machine) { mm.Delete(slotWork) })

	// fetch swaps the window held for copies [lo, hi): the one aggregation,
	// for the first window and for every refill.
	release := func() {}
	fetch := func(lo, hi int) {
		clear(ws.sketches)
		release()
		var sums map[int]sketch.Sketch
		sums, release = dc.aggregateFragmentSketches(lo, hi)
		ws.install(sums, lo, hi)
	}
	defer func() { release() }()

	t, w := dc.space.Copies(), searchWindow(dc.space.Copies())
	fetch(0, w)
	var labels []int
	for len(ws.active) > 0 {
		candidates, stalled := ws.query()
		switch {
		case len(candidates) > 0:
			// Resolve candidate endpoints to current components (the
			// documented O(1)-round lookup per level).
			dc.search.levels.Add(1)
			labels, _ = dc.f.labelsInto(labels, endpointsOf(candidates))
			ws.merge(candidates, labels)
		case !stalled:
			// Every query came back Empty: no supernode is active now.
		case ws.hi == t:
			dc.search.exhausted.Add(1)
			return ws.replacements
		default:
			dc.search.refills.Add(1)
			fetch(ws.hi, min(ws.hi+w, t))
		}
	}
	return ws.replacements
}

// SearchStats counts the work of the replacement searches since the
// instance was built; see DynamicConnectivity.SearchStats.
type SearchStats struct {
	// Searches is the number of replacement searches run (deletion batches
	// that cut at least one tree edge) and Levels the Borůvka levels they
	// ran, one distributed endpoint lookup each.
	Searches, Levels uint64
	// QueryFails counts sketch queries that returned Fail (the supernode
	// retries on its next copy at once, within the level).
	QueryFails uint64
	// Refills counts the windows of sketch copies fetched beyond the first of
	// each search: aggregations that ran because a supernode had read through
	// the window held. Rare at the default copy count.
	Refills uint64
	// Exhausted counts searches in which a supernode read all t sketch copies
	// and was still active: the with-high-probability failure event, after
	// which the maintained partition may be too fine.
	Exhausted uint64
	// SketchesSummed counts the vertex sketches summed into fragment
	// sketches, SketchesSkipped those of passive fragments, left alone: once
	// per window fetched.
	SketchesSummed, SketchesSkipped uint64
}

// searchCounters is the live form of SearchStats: written by the update
// path (the sketch counts from per-machine callbacks), read by scrapes.
type searchCounters struct {
	searches, levels, queryFails, refills, exhausted atomic.Uint64
	sketchesSummed, sketchesSkipped                  atomic.Uint64
}

// reset zeroes the counters in place (they are atomics: never copied).
func (c *searchCounters) reset() {
	for _, x := range []*atomic.Uint64{&c.searches, &c.levels, &c.queryFails, &c.refills, &c.exhausted, &c.sketchesSummed, &c.sketchesSkipped} {
		x.Store(0)
	}
}

// SearchStats reports the replacement-search counters. Like the query-cache
// hit/miss pair they are process-lifetime observability, not algorithm
// state: never checkpointed, zero on a restored or re-sharded instance (a
// delta restore zeroes what its replay counted). Safe to call concurrently
// with updates.
func (dc *DynamicConnectivity) SearchStats() SearchStats {
	c := &dc.search
	return SearchStats{
		Searches:        c.searches.Load(),
		Levels:          c.levels.Load(),
		QueryFails:      c.queryFails.Load(),
		Refills:         c.refills.Load(),
		Exhausted:       c.exhausted.Load(),
		SketchesSummed:  c.sketchesSummed.Load(),
		SketchesSkipped: c.sketchesSkipped.Load(),
	}
}

// Connected reports whether u and v are currently in the same component:
// an O(1/φ)-round MPC query on a label-cache miss, zero rounds between
// updates once both endpoints are cached. Batches of queries should use
// ConnectedAll, which resolves all misses in one collective.
func (dc *DynamicConnectivity) Connected(u, v int) bool { return dc.f.Connected(u, v) }

// NumComponents counts the current components (cached between updates, so
// repeated readouts cost zero rounds).
func (dc *DynamicConnectivity) NumComponents() int { return dc.f.NumComponents() }

// SnapshotComponents reads out all component labels (driver-level readout).
func (dc *DynamicConnectivity) SnapshotComponents() []int { return dc.f.SnapshotComponents() }

// SnapshotForest reads out the maintained spanning forest (driver-level
// readout).
func (dc *DynamicConnectivity) SnapshotForest() []graph.Edge {
	wes := dc.f.SnapshotForest()
	out := make([]graph.Edge, len(wes))
	for i, we := range wes {
		out[i] = we.Edge
	}
	return out
}

// SpaceWords reports the per-vertex sketch footprint, used by experiments to
// report memory in comparable units.
func (dc *DynamicConnectivity) SpaceWords() int { return dc.space.SketchWords() }

// Bootstrap loads an initial graph into a freshly created instance by
// replaying it as insertion batches. The paper notes a pre-computation
// phase can instead solve the initial instance with a static O(log n)-round
// algorithm (Section 1.1); this convenience method favours simplicity and
// reports the rounds it spent so experiments can separate preprocessing
// from steady-state cost.
func (dc *DynamicConnectivity) Bootstrap(edges []graph.Edge) (rounds int, err error) {
	dc.journal.Drop() // loaded, not applied batch by batch: the next checkpoint is a full one
	before := dc.f.cl.Stats().Rounds
	k := dc.MaxBatch()
	for i := 0; i < len(edges); i += k {
		end := i + k
		if end > len(edges) {
			end = len(edges)
		}
		if err := dc.insert(edges[i:end]); err != nil {
			return dc.f.cl.Stats().Rounds - before, err
		}
	}
	return dc.f.cl.Stats().Rounds - before, nil
}
