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

// workspace is the coordinator's transient state during the replacement
// search: the merged sketch of every supernode (views into the aggregated
// batch buffer).
type workspace struct {
	sketches map[int]sketch.Sketch
	perSk    int
}

// Words implements mpc.Sized.
func (w *workspace) Words() int { return len(w.sketches) * w.perSk }

// DynamicConnectivity maintains connectivity and a spanning forest of an
// evolving graph under batches of edge insertions and deletions
// (Theorem 1.1 / Theorem 6.7): O(1/φ)-round updates on an MPC with
// O(n^φ)-vertex local memory and Õ(n) total memory.
//
// Two deviations from the paper are made explicit. Constructing the
// replacement forest F_H (Lemma 6.5) requires resolving the fragment of the
// second endpoint of every sketched replacement edge, which this
// implementation performs with one O(1)-round distributed lookup per
// Borůvka level, adding O(log k) rounds to a deletion batch of k tree
// edges. And Lemma 6.5 merges the sketches of every fragment, whereas here
// the largest fragment of every split tour stays passive: its sketches are
// neither summed nor queried, the other fragments of its old component find
// the edges that reach it, and the work of a search follows the smaller
// sides of the cuts (see findReplacements for why no answer changes). See
// README.md ("Deviations") for the discussion.
//
// All per-machine callbacks below obey the mpc.StepFunc concurrency
// contract (machine-local mutation only; broadcast payloads are read-only),
// so the algorithm runs unchanged at any Config.Parallelism.
type DynamicConnectivity struct {
	f      *Forest
	space  *sketch.Space
	search searchCounters
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
					sh.arena.MarkDirty(v - sh.lo)
				}
			}
		}
	})
}

// ApplyBatch processes one phase's updates: insertions first, then
// deletions (Section 1.2 allows treating them as two consecutive
// sub-batches). The batch must be valid against the current graph: no
// duplicate insertions, deletions only of present edges, no self loops.
func (dc *DynamicConnectivity) ApplyBatch(b graph.Batch) error {
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

// aggregateFragmentSketches merges the vertex sketches of every fragment
// the preceding Cut left active (keyed by the fragment's fresh component id)
// and delivers them to the coordinator: Lemma 6.5's sketch-merging step,
// O(1/φ) rounds through the aggregation tree, restricted to the fragments
// that will query. Vertices of a passive fragment — the largest of its split
// tour — contribute nothing, so the words summed and shipped are
// proportional to the smaller sides of the cuts, not to the components cut.
// The shards drop their passive keys here, their only use. Sketches travel
// as [label, cells...] frames of the batched message codec and come back as
// views into the final batch buffer.
func (dc *DynamicConnectivity) aggregateFragmentSketches() map[int]sketch.Sketch {
	return sketchcodec.AggregateByLabel(dc.f.cl, dc.f.coord, dc.space,
		func(mm *mpc.Machine, add func(label int, sk sketch.Sketch)) {
			vs := vShard(mm)
			if vs == nil {
				return
			}
			passive := vs.passive
			vs.passive = nil
			if len(vs.frag) == 0 {
				return
			}
			sh := mm.Get(slotSketch).(*sketchShard)
			summed := 0
			for v, k := range vs.frag {
				if passive[k] {
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
// coordinator, resolving candidate endpoints with one distributed component
// lookup per level, and returns the replacement forest edges.
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
// A search that spends every sketch copy with an active supernode left may
// return too few edges (a too-fine partition); it is counted in
// SearchStats.Exhausted, not repaired.
func (dc *DynamicConnectivity) findReplacements(passiveComps []int) []graph.WeightedEdge {
	dc.search.searches.Add(1)
	merged := dc.aggregateFragmentSketches()
	if len(merged) == 0 {
		return nil
	}
	// Register the workspace on the coordinator so its memory is metered.
	ws := &workspace{sketches: merged, perSk: dc.space.SketchWords()}
	dc.f.cl.LocalAt(dc.f.coord, func(mm *mpc.Machine) { mm.Set(slotWork, ws) })
	defer dc.f.cl.LocalAt(dc.f.coord, func(mm *mpc.Machine) { mm.Delete(slotWork) })

	var supernodes graph.MinUnion
	// passive and active are keyed by supernode root.
	passive := make(map[int]bool, len(passiveComps))
	for _, c := range passiveComps {
		passive[c] = true
	}
	active := make(map[int]bool, len(merged))
	for c := range merged {
		active[c] = true
	}
	var replacements []graph.WeightedEdge
	var labels []int
	reps := make([]int, 0, len(active))
	for copyIdx := 0; copyIdx < dc.space.Copies() && len(active) > 0; copyIdx++ {
		dc.search.levels.Add(1)
		reps = reps[:0]
		for c := range active {
			reps = append(reps, c)
		}
		sort.Ints(reps)
		var candidates []graph.Edge
		for _, rep := range reps {
			e, res := ws.sketches[rep].Query(copyIdx)
			switch res {
			case sketch.Empty:
				delete(active, rep) // no edges leave this supernode: done
			case sketch.Fail:
				dc.search.queryFails.Add(1)
			case sketch.Found:
				candidates = append(candidates, graph.EdgeFromID(e, dc.f.cfg.N))
			}
		}
		if len(candidates) == 0 {
			continue // every query came back Empty or Fail
		}
		// Resolve candidate endpoints to current components (the documented
		// O(1)-round lookup per level).
		labels, _ = dc.f.labelsInto(labels, endpointsOf(candidates))
		for i, e := range candidates {
			ra, rb, ok := supernodes.Union(labels[2*i], labels[2*i+1])
			if !ok {
				continue
			}
			replacements = append(replacements, graph.WeightedEdge{Edge: e})
			delete(active, rb)
			if passive[ra] || passive[rb] {
				passive[ra] = true
				delete(active, ra)
				delete(ws.sketches, ra)
				delete(ws.sketches, rb)
				continue
			}
			skB, okB := ws.sketches[rb]
			if skA, okA := ws.sketches[ra]; okA && okB {
				skA.Add(skB)
			}
			delete(ws.sketches, rb)
			// The union may revive a supernode previously thought done; a
			// merged supernode keeps querying while edges remain.
			active[ra] = true
		}
	}
	if len(active) > 0 {
		dc.search.exhausted.Add(1)
	}
	return replacements
}

// SearchStats counts the work of the replacement searches since the
// instance was built; see DynamicConnectivity.SearchStats.
type SearchStats struct {
	// Searches is the number of replacement searches run (deletion batches
	// that cut at least one tree edge) and Levels the Borůvka levels they
	// ran, one sketch copy each.
	Searches, Levels uint64
	// QueryFails counts sketch queries that returned Fail (the supernode
	// retries on the next copy).
	QueryFails uint64
	// Exhausted counts searches that spent every sketch copy with an active
	// supernode left: the with-high-probability failure event, after which
	// the maintained partition may be too fine.
	Exhausted uint64
	// SketchesSummed counts the vertex sketches summed into fragment
	// sketches; SketchesSkipped those of passive fragments, left alone.
	SketchesSummed, SketchesSkipped uint64
}

// searchCounters is the live form of SearchStats: written by the update
// path (the sketch counts from per-machine callbacks), read by scrapes.
type searchCounters struct {
	searches, levels, queryFails, exhausted atomic.Uint64
	sketchesSummed, sketchesSkipped         atomic.Uint64
}

// SearchStats reports the replacement-search counters. Like the query-cache
// hit/miss pair they are process-lifetime observability, not algorithm
// state: never checkpointed, zero on a restored or re-sharded instance. Safe
// to call concurrently with updates.
func (dc *DynamicConnectivity) SearchStats() SearchStats {
	c := &dc.search
	return SearchStats{
		Searches:        c.searches.Load(),
		Levels:          c.levels.Load(),
		QueryFails:      c.queryFails.Load(),
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
