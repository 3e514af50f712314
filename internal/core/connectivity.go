package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/eulertour"
	"repro/internal/graph"
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
				ws.stats.queryFails++
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
// search is shipped a window of the copies at a time — the first with the
// Cut's fragment-min aggregation — and fetches the next only when it has read
// through the one it holds.
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
	space, err := cfg.NewSketchSpace()
	if err != nil {
		return nil, err
	}
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
		mm.Set(slotSketch, newSketchShard(space, cfg.N, vs.lo, vs.hi))
	})
	return dc, nil
}

// Forest exposes the underlying forest engine (read-only use: queries,
// snapshots, cluster metering).
func (dc *DynamicConnectivity) Forest() *Forest { return dc.f }

// Cluster exposes the MPC cluster for metering.
func (dc *DynamicConnectivity) Cluster() *mpc.Cluster { return dc.f.cl }

// Clusters returns the one cluster the instance runs on.
func (dc *DynamicConnectivity) Clusters() []*mpc.Cluster { return []*mpc.Cluster{dc.f.cl} }

// Config returns the instance's configuration.
func (dc *DynamicConnectivity) Config() Config { return dc.f.cfg }

// MaxBatch returns the largest accepted update batch.
func (dc *DynamicConnectivity) MaxBatch() int { return dc.f.cfg.MaxBatch() }

// ApplyBatch processes one phase's updates: insertions first, then
// deletions (Section 1.2 allows treating them as two consecutive
// sub-batches). The batch must be valid against the current graph: no
// duplicate insertions, deletions only of present edges, no self loops.
// Whatever its mix, a batch pays no broadcast for its sketch update, which
// rides the first one the batch sends (see apply), and an empty batch sends
// nothing.
//
// A list vertex (see sketchShard) checks what it can: it refuses the
// deletion of an edge it does not hold and the insertion of one it holds,
// leaving its list as it was, and the batch returns an error naming the
// first such update. A promoted vertex cannot check, since its edges exist
// only inside its sketch: it absorbs such an update silently, and its
// sketch is then wrong. The front doors validate first: server admission
// and the mpcstream replay with graph.Graph.Check, the harness's generators
// delete only edges of their own graph, and a delta restore's replay is
// refused by the session's mirror, an endpoint's list or the fingerprint
// comparison.
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

// applyBatch is ApplyBatch less the journal: it splits the batch into its
// canonical insertions and deletions for apply, and is what a delta restore
// replays journaled batches through.
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
	return dc.apply(ins, del)
}

// apply runs a batch's insertions, then its deletions: the one path of
// ApplyBatch and a delta replay. The batch's sketch update rides
// its first broadcast — a label Ask, the Link's, the Cut's record lookup — or
// is told by the flush on return when the batch sends none: only a
// replacement search reads a sketch, and it runs after the Cut's record
// lookup. An empty batch sends nothing. Once the update has landed, an
// update a list vertex refused fails the batch (refusals).
func (dc *DynamicConnectivity) apply(ins, del []graph.Edge) error {
	if len(ins) == 0 && len(del) == 0 {
		return nil
	}
	dc.f.ride(sketchUpdate{ins: ins, del: del}, applySketchUpdate)
	err := dc.link(ins)
	if err == nil {
		err = dc.delete(del)
	}
	dc.f.flush()
	if err == nil {
		err = dc.refusals(ins, del)
	}
	return err
}

// link links the inserted edges that join two components.
func (dc *DynamicConnectivity) link(edges []graph.Edge) error {
	if len(edges) == 0 {
		return nil
	}
	labels, _ := dc.f.labelsInto(phaseLinkLabels, nil, endpointsOf(edges))
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
	first := dc.newFirstWindow()
	report, err := dc.f.cut(edges, first)
	if err != nil {
		return err
	}
	// Cache entries the Cut parked wait for the replacement Links below to
	// reunite their components; whatever they leave apart is dropped here.
	defer dc.f.cache.dropParked()
	if len(report.TreeRecords) == 0 {
		return nil
	}
	replacements, stats := dc.findReplacements(report.PassiveComps, first)
	// Insert the replacement forest; chunked to respect the batch cap (a
	// subset of a forest over components is still a forest over components).
	// The first chunk links between the Cut's fragments, so it takes their
	// sizes from the split plan and its endpoints' stats from the search's
	// lookups; a later chunk joins what the first merged, and asks.
	known := &linkFacts{stats: stats, sizes: report.FragmentSizes}
	chunk := dc.f.cfg.MaxBatch()
	for len(replacements) > 0 {
		cut := min(len(replacements), chunk)
		if err := dc.f.link(replacements[:cut], known); err != nil {
			return err
		}
		replacements, known = replacements[cut:], nil
	}
	return nil
}

// sumActive lays out one vertex machine's frames of window w, one for each
// fragment on its shard in key order (vs.mins), and adds into them the
// window of every vertex of a fragment the last Cut left active: the
// contribution of Lemma 6.5's sketch-merging step, restricted to the
// fragments that will query. A frame is the first head words of the
// fragment's [key, min vertex] pair, then the window's cells. The frame of
// a passive fragment — the largest of its split tour — carries no cells,
// and is laid out only with the min vertex (head 2, the fragment-min pass
// of the first window). So the words summed and shipped are proportional to
// the smaller sides of the cuts, not to the components cut. It counts the
// vertex sketches summed and skipped.
func sumActive(mm *mpc.Machine, vs *vertexShard, w sketchcodec.Window, head int, c *searchCounters) *mpc.MessageBatch {
	sh := sShard(mm)
	b, sums := w.Layout(mm, len(vs.mins), func(i int) ([]uint64, bool) {
		active := !vs.passive[vs.mins[i][0]]
		if !active && head < 2 {
			return nil, false
		}
		return vs.mins[i][:head], active
	}, sh.sums)
	sh.sums = sums
	summed := 0
	for i, k := range vs.frag {
		if k == 0 || vs.passive[k] {
			continue
		}
		j, _ := slices.BinarySearchFunc(vs.mins, k, func(m [2]uint64, k uint64) int { return cmp.Compare(m[0], k) })
		sh.addWindow(sums[j], i)
		summed++
	}
	clear(sums) // the batch is the caller's: keep no view of it
	c.sketchesSummed.Add(uint64(summed))
	c.sketchesSkipped.Add(uint64(vs.nfrag - summed))
	return b
}

// firstWindow is a replacement search's first window of sketch copies,
// [0, searchWindow(t)), as a deletion batch's Cut delivers it: riding the
// fragment-min aggregation that names the fragments
// (Forest.aggregateFragmentMins) rather than an aggregation of its own, which
// would repeat that pass over the same shards. sums holds, for every
// fragment the Cut left active, the window of its vertices' sketch sum keyed
// by the fragment's component id — views into the aggregated batch, valid
// until release — and comps the component id of every fragment key, by
// which a refill's sums are named.
type firstWindow struct {
	win     sketchcodec.Window
	search  *searchCounters
	sums    map[int]sketch.Sketch
	comps   map[uint64]int
	release func()
}

func (dc *DynamicConnectivity) newFirstWindow() *firstWindow {
	return &firstWindow{
		win:     sketchcodec.Window{Space: dc.space, Hi: searchWindow(dc.space.Copies())},
		search:  &dc.search,
		sums:    map[int]sketch.Sketch{},
		release: func() {},
	}
}

// merge combines colliding [fragment, vertex, cells...] frames: the smaller
// vertex, the sum of the cells (a passive fragment's frame has none).
func (fw *firstWindow) merge(a, b *mpc.MessageBatch) *mpc.MessageBatch {
	return mpc.MergeSortedBatches(a, b, func(dst, src []uint64) {
		if src[1] < dst[1] {
			dst[1] = src[1]
		}
		if len(dst) > 2 {
			fw.win.Merge(dst[2:], src[2:])
		}
	})
}

// refillWindow fetches copies [lo, hi) of the active fragments' sketch sums
// for a search that has read through the window it holds: a Tell asks for
// them, and they travel as [fragment, cells...] frames, laid out and summed
// into as the first window's are, through one aggregation (O(1/φ) rounds).
// They come back as views into the final batch buffer, keyed by the
// fragment's component id (comps) and valid until release is called. Keyed
// by fragment, the frames need nothing of the Tell that closes the Cut.
func (dc *DynamicConnectivity) refillWindow(lo, hi int, comps map[uint64]int) (sums map[int]sketch.Sketch, release func()) {
	dc.f.tell(phaseSearchRefill, mpc.Ints{lo, hi}, func(*mpc.Machine, mpc.Sized) {})
	w := sketchcodec.Window{Space: dc.space, Lo: lo, Hi: hi}
	return sketchcodec.AggregateByLabel(dc.f.cl, dc.f.coord, w,
		func(mm *mpc.Machine) *mpc.MessageBatch {
			if vs := vShard(mm); vs != nil && vs.nfrag > 0 {
				return sumActive(mm, vs, w, 1, &dc.search)
			}
			return nil
		},
		func(frag uint64) int { return comps[frag] })
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
// copy at once, at the coordinator, and costs no round. The first window is
// the one the Cut delivered (firstWindow), so a search that reads no further
// costs only its levels' lookups. Only when no supernode found an edge and
// some are waiting at the end of the window is the next window fetched
// (refillWindow), counted in SearchStats.Refills.
//
// The Tell that closes the Cut rides the search's first lookup or refill
// (or, when there is none, the replacement Link's Ask), and the fragment and
// passive keys are dropped by a rider without words when the search ends.
//
// A level lookup that sends an Ask also asks its candidates' occurrence
// stats (Forest.labelsAndStats), and findReplacements returns them: no
// record moves before the replacement Link, which takes them with the Cut's
// fragment sizes (linkFacts) instead of an Ask of its own.
//
// A search in which a supernode has read through copy t-1 and is still
// active may return too few edges (a too-fine partition); it is counted in
// SearchStats.Exhausted, not repaired.
func (dc *DynamicConnectivity) findReplacements(passiveComps []int, first *firstWindow) ([]graph.WeightedEdge, map[int]eulertour.VertexStats) {
	dc.search.searches++
	defer dc.f.dropFrags()
	ws := newWorkspace(dc.space, dc.f.cfg.N, passiveComps, &dc.search)
	// Register the workspace on the coordinator so its memory is metered.
	dc.f.cl.LocalAt(dc.f.coord, func(mm *mpc.Machine) { mm.Set(slotWork, ws) })
	defer dc.f.cl.LocalAt(dc.f.coord, func(mm *mpc.Machine) { mm.Delete(slotWork) })

	release := first.release
	defer func() { release() }()
	ws.install(first.sums, 0, first.win.Hi)

	t, w := dc.space.Copies(), first.win.Hi
	var labels []int
	stats := map[int]eulertour.VertexStats{}
	for len(ws.active) > 0 {
		candidates, stalled := ws.query()
		switch {
		case len(candidates) > 0:
			// Resolve candidate endpoints to current components (the
			// documented O(1)-round lookup per level), and in the same Ask
			// their stats, which the replacement Link would ask.
			dc.search.levels++
			labels = dc.f.labelsAndStats(labels, endpointsOf(candidates), stats)
			ws.merge(candidates, labels)
		case !stalled:
			// Every query came back Empty: no supernode is active now.
		case ws.hi == t:
			dc.search.exhausted++
			return ws.replacements, stats
		default:
			dc.search.refills++
			clear(ws.sketches)
			release()
			lo, hi := ws.hi, min(ws.hi+w, t)
			var sums map[int]sketch.Sketch
			sums, release = dc.refillWindow(lo, hi, first.comps)
			ws.install(sums, lo, hi)
		}
	}
	return ws.replacements, stats
}

// SearchStats counts the work of the replacement searches since the
// instance was built; see DynamicConnectivity.SearchStats. An algorithm
// that runs several instances reports their sum (SearchStats.Add), and a
// session adds up the states it replaced the same way.
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

// Add adds o's counts to s.
func (s *SearchStats) Add(o SearchStats) {
	s.Searches += o.Searches
	s.Levels += o.Levels
	s.QueryFails += o.QueryFails
	s.Refills += o.Refills
	s.Exhausted += o.Exhausted
	s.SketchesSummed += o.SketchesSummed
	s.SketchesSkipped += o.SketchesSkipped
}

// searchCounters is the live form of SearchStats, written by the update
// path. The sketch counts are atomic because per-machine callbacks add to
// them under the parallel executor; the coordinator counts the rest.
type searchCounters struct {
	searches, levels, queryFails, refills, exhausted uint64
	sketchesSummed, sketchesSkipped                  atomic.Uint64
}

// reset zeroes the counters in place.
func (c *searchCounters) reset() { *c = searchCounters{} }

// SearchStats reports the replacement-search counters. Like the query-cache
// hit/miss pair they are process-lifetime observability, not algorithm
// state: never checkpointed, zero on a restored or re-sharded instance (a
// delta restore zeroes what its replay counted). A session.Session carries
// them across such replacements (session.Session.Counters).
func (dc *DynamicConnectivity) SearchStats() SearchStats {
	c := &dc.search
	return SearchStats{
		Searches:        c.searches,
		Levels:          c.levels,
		QueryFails:      c.queryFails,
		Refills:         c.refills,
		Exhausted:       c.exhausted,
		SketchesSummed:  c.sketchesSummed.Load(),
		SketchesSkipped: c.sketchesSkipped.Load(),
	}
}

// Connected reports whether u and v are currently in the same component:
// an O(1/φ)-round MPC query on a label-cache miss, zero rounds once both
// endpoints are cached (updates keep the cache exact). Batches of queries
// should use ConnectedAll, which resolves all misses in one collective.
func (dc *DynamicConnectivity) Connected(u, v int) bool { return dc.f.Connected(u, v) }

// NumComponents counts the current components (cached, and kept through
// updates, so every readout after the first costs zero rounds).
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
