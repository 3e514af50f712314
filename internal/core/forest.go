package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/eulertour"
	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/mpc"
)

// Machine store slot names.
const (
	slotVertex = "v"  // vertexShard
	slotEdge   = "e"  // edgeShard
	slotQCache = "qc" // coordinator query-cache meter (cacheMeter)
)

// vertexShard is the per-machine vertex state: the component id of every
// owned vertex and, transiently after a Cut, the fragment key of affected
// vertices.
type vertexShard struct {
	lo, hi int
	comp   []int
	frag   map[int]uint64
	// passive holds the fragment keys the last Cut declared passive (the
	// largest fragment of every split tour, see Cut). It lives only inside
	// one deletion batch — set by tellFragComps, dropped when the replacement
	// search whose sketch aggregations read it ends (dropPassive) or by the
	// next clearFrags — so unlike frag it is never checkpointed. The map is
	// the read-only broadcast payload, shared by every shard.
	passive map[uint64]bool
	// affected holds, from the Tell that splits the tours of a Cut until the
	// fragment push that follows consumes it (pushFragments), the ids of the
	// components being split. Transient and never checkpointed, like passive,
	// and like it the read-only payload shared by every shard.
	affected map[int]bool
	// sketchWords is the footprint of the connectivity sketches stored by
	// the owning DynamicConnectivity (0 for a bare Forest); it is included
	// here so the shard's Words reflect the whole vertex bundle.
	sketchWords int
}

// Words implements mpc.Sized.
func (s *vertexShard) Words() int {
	return len(s.comp) + 2*len(s.frag) + len(s.passive) + len(s.affected) + s.sketchWords + 2
}

func (s *vertexShard) owns(v int) bool { return v >= s.lo && v < s.hi }

func (s *vertexShard) compOf(v int) int { return s.comp[v-s.lo] }

// treeEdge is one tree-edge record plus its weight (weights are carried only
// by weighted forests; zero otherwise).
type treeEdge struct {
	rec    eulertour.Record
	weight int64
}

// edgeShard holds the tree-edge records hash-assigned to one machine.
type edgeShard struct {
	recs map[graph.Edge]*treeEdge
	// newTours holds the ids of the tours a Cut created, from the Tell that
	// splits the old ones until the fragment push that follows consumes it
	// (pushFragments). Transient, never checkpointed, shared and read-only.
	newTours map[eulertour.TourID]bool
}

// Words implements mpc.Sized.
func (s *edgeShard) Words() int { return 8*len(s.recs) + len(s.newTours) + 1 }

// fragment keys combine tours and singleton vertices in one key space.
const fragVertexBit = uint64(1) << 62

func fragKeyOfTour(t eulertour.TourID) uint64 { return uint64(t) }

func fragKeyOfVertex(v int) uint64 { return fragVertexBit | uint64(v) }

// u64Payload is a reusable word-slice question. Unlike mpc.U64s it is
// addressed through a pointer, so asking the same payload object again never
// re-boxes the slice header (zero allocations on the steady-state query
// path).
type u64Payload struct{ xs []uint64 }

// Words implements mpc.Sized.
func (p *u64Payload) Words() int { return len(p.xs) }

// labelCache is the coordinator-side component-label cache. labels[v] is
// valid iff stamp[v] == epoch; every label-mutating collective bumps the
// epoch (an O(1) invalidation of the whole cache). Queries resolve their
// cache misses with one broadcast + one flat-frame aggregation and answer
// everything else coordinator-locally with zero MPC rounds — the repeated-
// query regime between updates. Like nextID, the cache is coordinator-local
// driver state, not machine-store state.
//
// mu implements the single-writer/many-reader contract of the query API
// (see query.go): warm lookups hold the read lock, so any number of reader
// goroutines answer cached queries concurrently; a cache miss (which runs
// an MPC collective and fills labels/stamp) and every invalidation take the
// write lock. Mutating operations (ApplyBatch, Link, Cut, Restore) remain
// exclusive with all queries — the lock protects the cache, not the
// cluster.
type labelCache struct {
	mu     sync.RWMutex
	labels []int
	stamp  []uint32
	epoch  uint32
	miss   []int      // reusable sorted miss list of the current resolve
	query  u64Payload // reusable broadcast payload holding the miss list
	// valid counts the entries stamped in the current epoch, i.e. the
	// resident cache size metered by cacheMeter.
	valid int
	// numComps caches NumComponents per epoch (valid iff numCompsOK).
	numComps   int
	numCompsOK bool
	// hits counts query batches answered entirely from the cache (zero
	// rounds); misses counts batches that ran the cache-fill collective.
	// Atomic so concurrent warm readers can count without taking mu for
	// writing; consumed by Forest.QueryCacheStats (the serving layer's
	// cache-hit-rate metric).
	hits   atomic.Uint64
	misses atomic.Uint64
}

// cacheMeter folds the coordinator's query caches into the MPC memory
// ledger: the epoch-valid label-cache entries (label plus stamp, two words
// each) and the cached NumComponents readout. Without it the cache lives
// outside meterMemory, Stats.PeakTotalWords under-reports, and Strict mode
// cannot catch a cache outgrowing the s-words model. Registered under
// slotQCache on the coordinator machine; Words is read at round
// boundaries only, while the coordinator driver is quiescent, so it needs
// no synchronization.
type cacheMeter struct{ f *Forest }

// Words implements mpc.Sized.
func (c cacheMeter) Words() int {
	lc := &c.f.cache
	w := 2 * lc.valid
	if lc.numCompsOK {
		w++
	}
	return w
}

// Forest is the distributed Euler-tour spanning-forest engine (Sections 5
// and 6 without the sketches). All public operations are executed on the
// MPC cluster in O(1) collective operations, each costing O(1/φ) rounds.
type Forest struct {
	cfg      Config
	cl       *mpc.Cluster
	part     mpc.Partition
	coord    int
	weighted bool
	edgeHash *hash.Family
	nextID   uint64 // coordinator-local tour-id counter
	cache    labelCache
	// answerLabels is the per-machine answer callback of the label resolve,
	// built once so the steady-state query path allocates nothing.
	answerLabels func(mm *mpc.Machine, q mpc.Sized) *mpc.MessageBatch
}

// NewForest creates an unweighted forest engine on n = cfg.N vertices, all
// initially singletons.
func NewForest(cfg Config) (*Forest, error) { return newForest(cfg, false, 0) }

// NewWeightedForest creates a forest engine whose tree edges carry weights,
// as needed by the exact-MSF algorithm of Section 7.1.
func NewWeightedForest(cfg Config) (*Forest, error) { return newForest(cfg, true, 0) }

// newForest builds the cluster and shards; sketchWords reserves per-vertex
// budget for a DynamicConnectivity's sketches.
func newForest(cfg Config, weighted bool, sketchWords int) (*Forest, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	vpm := cfg.verticesPerMachine()
	m := cfg.machines()
	// A vertex bundle: component id, amortized share of edge records and
	// transient fragment entries, plus sketches.
	bundle := 64 + sketchWords
	cl := mpc.NewCluster(mpc.Config{
		Machines:    m,
		LocalMemory: vpm * bundle,
		Strict:      cfg.Strict,
		Parallelism: cfg.Parallelism,
	})
	f := &Forest{
		cfg:      cfg,
		cl:       cl,
		part:     mpc.Partition{N: cfg.N, Machines: m - 1},
		coord:    m - 1,
		weighted: weighted,
		edgeHash: hash.NewPairwise(hash.NewPRG(cfg.Seed ^ 0x9d5f)),
		nextID:   1,
		cache: labelCache{
			labels: make([]int, cfg.N),
			stamp:  make([]uint32, cfg.N),
			epoch:  1,
		},
	}
	f.answerLabels = func(mm *mpc.Machine, payload mpc.Sized) *mpc.MessageBatch {
		vs := vShard(mm)
		if vs == nil {
			return nil
		}
		q := payload.(*u64Payload).xs
		i := sort.Search(len(q), func(i int) bool { return int(q[i]) >= vs.lo })
		b := mpc.AcquireMessageBatch()
		for ; i < len(q) && int(q[i]) < vs.hi; i++ {
			b.Append(q[i], uint64(vs.compOf(int(q[i]))))
		}
		return b
	}
	cl.LocalAll(func(mm *mpc.Machine) {
		if mm.ID != f.coord {
			lo, hi := f.part.Range(mm.ID)
			vs := &vertexShard{
				lo: lo, hi: hi,
				comp: make([]int, hi-lo),
				frag: map[int]uint64{},
			}
			for v := lo; v < hi; v++ {
				vs.comp[v-lo] = v
			}
			mm.Set(slotVertex, vs)
		} else {
			mm.Set(slotQCache, cacheMeter{f})
		}
		mm.Set(slotEdge, &edgeShard{recs: map[graph.Edge]*treeEdge{}})
	})
	return f, nil
}

// MeterCoordinator registers a Sized under a named slot on the coordinator
// machine, folding a driver-level cache (e.g. the exact-MSF weight readout)
// into the cluster's memory ledger alongside the forest's own cacheMeter.
func (f *Forest) MeterCoordinator(slot string, s mpc.Sized) {
	f.cl.Machine(f.coord).Set(slot, s)
}

// Cluster exposes the underlying cluster for metering.
func (f *Forest) Cluster() *mpc.Cluster { return f.cl }

// Config returns the instance configuration.
func (f *Forest) Config() Config { return f.cfg }

// nextTour returns a fresh tour id (coordinator-local state).
func (f *Forest) nextTour() eulertour.TourID {
	id := f.nextID
	f.nextID++
	return eulertour.TourID(id)
}

// vShard returns machine mm's vertex shard, or nil for the coordinator.
func vShard(mm *mpc.Machine) *vertexShard {
	s, _ := mm.Get(slotVertex).(*vertexShard)
	return s
}

func eShard(mm *mpc.Machine) *edgeShard {
	return mm.Get(slotEdge).(*edgeShard)
}

// edgeOwner returns the machine storing (or destined to store) edge e.
func (f *Forest) edgeOwner(e graph.Edge) int {
	return int(f.edgeHash.Hash(e.ID(f.cfg.N)) % uint64(f.cl.Machines()))
}

// ask and tell are the forest's two conversations with the shards, both from
// the coordinator (mpc.Cluster.Ask, mpc.Cluster.Tell): the payload is handed
// to the callback and is gone from every store when the call returns.
func (f *Forest) ask(q mpc.Sized, answer func(mm *mpc.Machine, q mpc.Sized) *mpc.MessageBatch, combine mpc.BatchCombine) *mpc.MessageBatch {
	return f.cl.Ask(f.coord, q, answer, combine)
}

func (f *Forest) tell(msg mpc.Sized, apply func(mm *mpc.Machine, msg mpc.Sized)) {
	f.cl.Tell(f.coord, msg, apply)
}

// The frame combiners of the flat aggregations below (mpc.KeepFirst,
// mpc.SumValues, mergeMin, mergeStats, mergeHeavier) are all merge-joins over
// key-sorted [k, ...] frames into a fresh pooled batch (no operand is mutated
// in place, so pooled buffers cannot alias), and all are commutative per key,
// so the deterministic sender-order fold of the tree yields the same frames
// at every parallelism.

// mergeMin keeps the smaller value word of colliding [k, v] frames.
var mergeMin = func(a, b *mpc.MessageBatch) *mpc.MessageBatch {
	return mpc.MergeSortedBatches(a, b, func(dst, src []uint64) {
		if src[1] < dst[1] {
			dst[1] = src[1]
		}
	})
}

// invalidateCache bumps the label-cache epoch, dropping every cached
// component label and the cached component count in O(1). Called by every
// label-mutating collective (applyRelabels, tellFragComps). It takes
// the cache write lock, so an invalidation is safe to race with concurrent
// warm readers (they see either the old epoch's answers or a miss).
func (f *Forest) invalidateCache() {
	lc := &f.cache
	lc.mu.Lock()
	lc.epoch++
	if lc.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(lc.stamp)
		lc.epoch = 1
	}
	lc.valid = 0
	lc.numCompsOK = false
	lc.mu.Unlock()
}

// InvalidateCache publicly drops the coordinator label cache so the next
// query runs its collective. Updates invalidate automatically; this exists
// for measurement (E15 and the query benchmarks ablate the cache with it).
// Like the query entry points it may race concurrent readers, but not
// mutating operations.
func (f *Forest) InvalidateCache() { f.invalidateCache() }

// QueryCacheStats reports how many query batches were answered entirely
// from the label cache (zero MPC rounds) and how many ran the cache-fill
// collective since construction. Safe to call concurrently with queries.
func (f *Forest) QueryCacheStats() (hits, misses uint64) {
	return f.cache.hits.Load(), f.cache.misses.Load()
}

// checkQueryVertex rejects out-of-range query vertices up front with a
// diagnostic instead of letting the label cache index out of bounds (e.g.
// a stale QueryMix trace replayed against a smaller N).
func (f *Forest) checkQueryVertex(v int) {
	if v < 0 || v >= f.cfg.N {
		panic(fmt.Sprintf("core: query vertex %d out of range [0,%d)", v, f.cfg.N))
	}
}

// resolveMissesLocked runs the cache-fill collective for the miss list
// staged in the cache: one Ask carrying the sorted misses, answered with
// [vertex, comp] frames (O(1/φ) rounds), decoded into the cache. No-op when
// the list is empty. The caller must hold the cache write lock (the
// collective both fills the cache and drives the cluster).
func (f *Forest) resolveMissesLocked() {
	lc := &f.cache
	if len(lc.miss) == 0 {
		return
	}
	sort.Ints(lc.miss)
	q := lc.query.xs[:0]
	for _, v := range lc.miss {
		q = append(q, uint64(v))
	}
	lc.query.xs = q
	if res := f.ask(&lc.query, f.answerLabels, mpc.KeepFirst); res != nil {
		for fr := range res.Frames {
			lc.labels[fr[0]] = int(fr[1])
		}
		res.Release()
	}
}

// compSizes counts the vertices of each listed component (keys sorted and
// distinct) with one Ask answered in [component, count] frames.
func (f *Forest) compSizes(keys []int) map[int]int {
	res := f.ask(mpc.Ints(keys),
		func(mm *mpc.Machine, q mpc.Sized) *mpc.MessageBatch {
			vs := vShard(mm)
			if vs == nil {
				return nil
			}
			want := q.(mpc.Ints)
			counts := make([]uint64, len(want))
			for _, c := range vs.comp {
				if j, ok := slices.BinarySearch(want, c); ok {
					counts[j]++
				}
			}
			return countFrames(want, counts)
		}, mpc.SumValues)
	out := make(map[int]int, len(keys))
	if res != nil {
		for fr := range res.Frames {
			out[int(fr[0])] = int(fr[1])
		}
		res.Release()
	}
	return out
}

// countFrames answers one [key, count] frame per key counted at least once.
func countFrames(keys []int, counts []uint64) *mpc.MessageBatch {
	b := mpc.AcquireMessageBatch()
	for j, c := range counts {
		if c > 0 {
			b.Append(uint64(keys[j]), c)
		}
	}
	return b
}

// collectNumComps emits one [0, heads] frame per vertex machine: with the
// minimum-id convention, a vertex heads a component iff comp[v] == v.
func collectNumComps(mm *mpc.Machine) *mpc.MessageBatch {
	vs := vShard(mm)
	if vs == nil {
		return nil
	}
	n := uint64(0)
	for i := range vs.comp {
		if vs.comp[i] == vs.lo+i {
			n++
		}
	}
	b := mpc.AcquireMessageBatch()
	b.Append(0, n)
	return b
}

// NumComponents counts the components of the maintained graph with one flat
// summing aggregation; the count is cached until the next update, so
// repeated readouts between updates (the bipartiteness test, the approx-MSF
// weight formula) cost zero rounds.
func (f *Forest) NumComponents() int {
	lc := &f.cache
	lc.mu.RLock()
	if lc.numCompsOK {
		n := lc.numComps
		lc.mu.RUnlock()
		return n
	}
	lc.mu.RUnlock()
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.numCompsOK { // raced with another reader's readout
		return lc.numComps
	}
	n := 0
	if res := f.cl.AggregateBatches(f.coord, collectNumComps, mpc.SumValues); res != nil {
		for fr := range res.Frames {
			n = int(fr[1])
		}
		res.Release()
	}
	lc.numComps = n
	lc.numCompsOK = true
	return n
}

// statsQuery is the question of a batched f/l query.
type statsQuery struct{ vertices []int }

func (q statsQuery) Words() int { return len(q.vertices) }

// mergeStats combines colliding [v, tour, f, l] frames: same tour, min f,
// max l.
var mergeStats = func(a, b *mpc.MessageBatch) *mpc.MessageBatch {
	return mpc.MergeSortedBatches(a, b, func(dst, src []uint64) {
		if src[2] < dst[2] {
			dst[2] = src[2]
		}
		if src[3] > dst[3] {
			dst[3] = src[3]
		}
	})
}

// Stats resolves occurrence statistics (tour, f, l) for the given vertices
// with one Ask: the edge shards scan their records and answer [v, tour, f, l]
// frames, min/max-merged along the aggregation tree (O(1/φ) rounds).
// Singleton vertices come back with Tour == NoTour.
func (f *Forest) Stats(vertices []int) map[int]eulertour.VertexStats {
	q := slices.Clone(vertices)
	slices.Sort(q)
	q = slices.Compact(q)
	merged := f.ask(statsQuery{vertices: q},
		func(mm *mpc.Machine, payload mpc.Sized) *mpc.MessageBatch {
			es := eShard(mm)
			query := payload.(statsQuery).vertices
			// Accumulate per query slot (query is sorted, so the emitted
			// frames are key-sorted for free).
			tours := make([]eulertour.TourID, len(query))
			first := make([]eulertour.Pos, len(query))
			last := make([]eulertour.Pos, len(query))
			seen := make([]bool, len(query))
			for _, te := range es.recs {
				for _, v := range [2]int{te.rec.E.U, te.rec.E.V} {
					j := sort.SearchInts(query, v)
					if j == len(query) || query[j] != v {
						continue
					}
					ps := te.rec.PositionsOf(v)
					if !seen[j] {
						seen[j] = true
						tours[j], first[j], last[j] = te.rec.Tour, ps[0], ps[1]
						continue
					}
					if ps[0] < first[j] {
						first[j] = ps[0]
					}
					if ps[1] > last[j] {
						last[j] = ps[1]
					}
				}
			}
			b := mpc.AcquireMessageBatch()
			for j, ok := range seen {
				if ok {
					b.Append(uint64(query[j]), uint64(tours[j]), uint64(first[j]), uint64(last[j]))
				}
			}
			return b
		}, mergeStats)
	out := make(map[int]eulertour.VertexStats, len(q))
	if merged != nil {
		for fr := range merged.Frames {
			out[int(fr[0])] = eulertour.VertexStats{
				Tour: eulertour.TourID(fr[1]),
				F:    eulertour.Pos(fr[2]),
				L:    eulertour.Pos(fr[3]),
			}
		}
		merged.Release()
	}
	for _, v := range q {
		if _, ok := out[v]; !ok {
			out[v] = eulertour.VertexStats{Tour: eulertour.NoTour}
		}
	}
	return out
}

// cutQueryPayload is the question of the stage-2 join query.
type cutQueryPayload struct{ qs []eulertour.CutQuery }

func (q cutQueryPayload) Words() int { return 2 * len(q.qs) }

// minAbove resolves, for each query, the smallest occurrence of the vertex
// strictly above the cut (0 when none). Queries are asked sorted by
// vertex so each machine's [vertex, pos] partials come out key-sorted; the
// tree min-merges them (frames are emitted only when an occurrence was
// found, so every value word is positive).
func (f *Forest) minAbove(qs []eulertour.CutQuery) map[int]eulertour.Pos {
	if len(qs) == 0 {
		return map[int]eulertour.Pos{}
	}
	sorted := make([]eulertour.CutQuery, len(qs))
	copy(sorted, qs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Vertex < sorted[j].Vertex })
	res := f.ask(cutQueryPayload{qs: sorted},
		func(mm *mpc.Machine, payload mpc.Sized) *mpc.MessageBatch {
			es := eShard(mm)
			queries := payload.(cutQueryPayload).qs
			best := make([]eulertour.Pos, len(queries))
			for _, te := range es.recs {
				for j, q := range queries {
					if !te.rec.E.Has(q.Vertex) {
						continue
					}
					for _, p := range te.rec.PositionsOf(q.Vertex) {
						if p > q.Cut && (best[j] == 0 || p < best[j]) {
							best[j] = p
						}
					}
				}
			}
			b := mpc.AcquireMessageBatch()
			// Queries sharing a vertex fold into one frame (min), keeping
			// the batch strictly key-sorted for the merge-join.
			for j := 0; j < len(queries); {
				p := best[j]
				k := j + 1
				for ; k < len(queries) && queries[k].Vertex == queries[j].Vertex; k++ {
					if best[k] != 0 && (p == 0 || best[k] < p) {
						p = best[k]
					}
				}
				if p != 0 {
					b.Append(uint64(queries[j].Vertex), uint64(p))
				}
				j = k
			}
			return b
		}, mergeMin)
	out := make(map[int]eulertour.Pos, len(qs))
	for _, q := range qs {
		out[q.Vertex] = 0 // "no occurrence above the cut" is a valid answer
	}
	if res != nil {
		for fr := range res.Frames {
			out[int(fr[0])] = eulertour.Pos(fr[1])
		}
		res.Release()
	}
	return out
}

// relabelPayload tells every machine a batch of relabel descriptors and,
// for a Link, the component re-labeling; for a Cut, the records to drop and
// the two sets the fragment push that follows reads. Everything a machine
// learns from the coordinator here is on the payload and counted.
type relabelPayload struct {
	relabels []eulertour.Relabel
	compMap  map[int]int               // old comp id -> new comp id (joins)
	drop     map[graph.Edge]bool       // tree-edge records to delete (cuts)
	newTours map[eulertour.TourID]bool // tours created by the split (cuts)
	affected map[int]bool              // components being split (cuts)

	// set indexes relabels by tour. It is a pure function of relabels that
	// every machine could build for itself, so it carries no words; the
	// simulator builds it once (applyRelabels) and the machines share it
	// read-only.
	set *eulertour.RelabelSet
}

func (p relabelPayload) Words() int {
	return 5*len(p.relabels) + 2*len(p.compMap) + 2*len(p.drop) + len(p.newTours) + len(p.affected)
}

// recordsPayload carries new tree-edge records to their shard owners.
type recordsPayload struct {
	records []treeEdge
}

func (p recordsPayload) Words() int { return 8 * len(p.records) }

// Link inserts a batch of tree edges. Every edge must connect two distinct
// current components, and the batch must contain at most one edge per
// component pair and no cycles over components (i.e. it must be a spanning
// forest of the auxiliary graph H, as produced by the connectivity
// algorithm or by MSF's per-pair minimum filter). Weights are stored only by
// weighted forests.
func (f *Forest) Link(edges []graph.WeightedEdge) error {
	if len(edges) == 0 {
		return nil
	}
	if len(edges) > f.cfg.MaxBatch() {
		return fmt.Errorf("core: batch of %d exceeds MaxBatch %d", len(edges), f.cfg.MaxBatch())
	}
	f.clearFrags()
	plainEdges := make([]graph.Edge, len(edges))
	weightOf := map[graph.Edge]int64{}
	for i, e := range edges {
		plainEdges[i] = e.Edge.Canonical()
		weightOf[plainEdges[i]] = e.Weight
	}
	// labels[2i] and labels[2i+1] are the components of plainEdges[i].
	terminals := endpointsOf(plainEdges)
	labels, _ := f.labelsInto(nil, terminals)
	keys := slices.Clone(labels)
	slices.Sort(keys)
	sizes := f.compSizes(slices.Compact(keys))

	planner, err := f.preparePlanner(plainEdges, terminals, labels, sizes)
	if err != nil {
		return err
	}
	res, err := planner.Plan(f.nextTour)
	if err != nil {
		return err
	}
	// Component relabeling: every merged group takes the minimum member key.
	compMap := map[int]int{}
	for _, nt := range res.Tours {
		newComp := nt.Comps[0]
		for _, c := range nt.Comps[1:] {
			if c < newComp {
				newComp = c
			}
		}
		for _, c := range nt.Comps {
			compMap[c] = newComp
		}
	}
	f.applyRelabels(relabelPayload{relabels: res.Relabels, compMap: compMap})
	// Route the new records to their shard owners.
	newRecs := res.NewRecords
	f.cl.Scatter(f.coord,
		func(mm *mpc.Machine) []mpc.Message {
			byOwner := map[int][]treeEdge{}
			for _, r := range newRecs {
				byOwner[f.edgeOwner(r.E)] = append(byOwner[f.edgeOwner(r.E)], treeEdge{rec: r, weight: weightOf[r.E]})
			}
			var out []mpc.Message
			for owner, rs := range byOwner {
				out = append(out, mpc.Message{To: owner, Payload: recordsPayload{records: rs}})
			}
			return out
		},
		func(mm *mpc.Machine, msg mpc.Message) {
			es := eShard(mm)
			for _, te := range msg.Payload.(recordsPayload).records {
				cp := te
				es.recs[te.rec.E] = &cp
			}
		},
	)
	return nil
}

// endpointsOf lists the endpoints of edges, U then V, in edge order.
func endpointsOf(edges []graph.Edge) []int {
	out := make([]int, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e.U, e.V)
	}
	return out
}

// preparePlanner runs the planner's staged distributed queries. terminals
// are the endpoints of edges and labels their components, position by
// position.
func (f *Forest) preparePlanner(edges []graph.Edge, terminals, labels []int, sizes map[int]int) (*eulertour.JoinPlanner, error) {
	stats := f.Stats(terminals)
	var comps []eulertour.CompInfo
	labelOf := make(map[int]int, len(terminals))
	seen := map[int]bool{}
	for i, v := range terminals {
		c := labels[i]
		labelOf[v] = c
		if seen[c] {
			continue
		}
		seen[c] = true
		info := eulertour.CompInfo{Key: c, Size: sizes[c], Tour: eulertour.NoTour}
		if info.Size > 1 {
			// Any terminal of the component knows its tour.
			for j, w := range terminals {
				if labels[j] == c && stats[w].Tour != eulertour.NoTour {
					info.Tour = stats[w].Tour
					break
				}
			}
			if info.Tour == eulertour.NoTour {
				return nil, fmt.Errorf("core: component %d of size %d has no tour", c, info.Size)
			}
		}
		comps = append(comps, info)
	}
	planner, err := eulertour.NewJoinPlanner(comps, edges, func(v int) int { return labelOf[v] })
	if err != nil {
		return nil, err
	}
	if err := planner.SetStats(stats); err != nil {
		return nil, err
	}
	planner.SetMinAbove(f.minAbove(planner.CutQueries()))
	return planner, nil
}

// applyRelabels tells every machine the payload and applies it: the listed
// records are dropped, the relabel descriptors applied to the surviving ones
// and the component map to the vertex shards. A Cut's newTours and affected
// sets stay behind on the edge and vertex shards for pushFragments.
func (f *Forest) applyRelabels(payload relabelPayload) {
	f.invalidateCache()
	payload.set = eulertour.NewRelabelSet(payload.relabels)
	f.tell(payload, func(mm *mpc.Machine, msg mpc.Sized) {
		p := msg.(relabelPayload)
		es := eShard(mm)
		es.newTours = p.newTours
		for e, te := range es.recs {
			if p.drop[e] {
				delete(es.recs, e)
				continue
			}
			if !p.set.Touches(te.rec.Tour) {
				continue
			}
			if err := p.set.ApplyToRecord(&te.rec); err != nil {
				panic(fmt.Sprintf("core: %v", err))
			}
		}
		vs := vShard(mm)
		if vs == nil {
			return
		}
		vs.affected = p.affected
		if len(p.compMap) > 0 {
			for i, c := range vs.comp {
				if nc, ok := p.compMap[c]; ok {
					vs.comp[i] = nc
				}
			}
		}
	})
}

// clearFrags drops the transient fragment maps left by the previous Cut.
func (f *Forest) clearFrags() {
	f.cl.LocalAll(func(mm *mpc.Machine) {
		vs := vShard(mm)
		if vs == nil {
			return
		}
		vs.passive = nil
		if len(vs.frag) > 0 {
			vs.frag = map[int]uint64{}
		}
	})
}

// dropPassive drops the passive fragment keys the last Cut left on the
// vertex shards: the replacement search that read them is over.
func (f *Forest) dropPassive() {
	f.cl.LocalAll(func(mm *mpc.Machine) {
		if vs := vShard(mm); vs != nil {
			vs.passive = nil
		}
	})
}

// CutReport describes the outcome of a batch Cut.
type CutReport struct {
	// TreeRecords are the pre-split records of the deleted edges that were
	// tree edges (with their weights for weighted forests).
	TreeRecords []eulertour.Record
	// TreeWeights holds the weight of each tree record, aligned with
	// TreeRecords.
	TreeWeights []int64
	// NonTree lists the deleted edges that were not in the forest.
	NonTree []graph.Edge
	// AffectedComps are the component ids (before the cut) of the split
	// components.
	AffectedComps []int
	// FragmentComps are the component ids (after the cut) of the resulting
	// fragments, including singletons.
	FragmentComps []int
	// PassiveComps are the members of FragmentComps declared passive: for
	// every split tour, its largest fragment (the first in plan order among
	// equals), unless that fragment is a single vertex. The replacement
	// search neither sums nor queries the sketches of a passive fragment;
	// the other fragments of its old component find the edges that reach it.
	PassiveComps []int
}

// edgeListPayload carries a set of edges.
type edgeListPayload struct{ edges []graph.Edge }

func (p edgeListPayload) Words() int { return 2 * len(p.edges) }

// Cut deletes a batch of edges from the forest. Edges not currently in the
// forest are reported as NonTree and otherwise ignored (the caller updates
// any side structures such as sketches). Tree edges are removed, the
// affected Euler tours are split into fragments in O(1) collective
// operations, and component ids are re-assigned per fragment. The transient
// vertex->fragment mapping stays on the vertex shards until the next Link or
// Cut. The closing broadcast also leaves them the keys of the fragments
// declared passive — the largest fragment of every split tour, which
// PlanSplit's fragment lengths name for free (CutReport.PassiveComps) — for
// the sketch aggregation of a replacement search to skip.
func (f *Forest) Cut(edges []graph.Edge) (*CutReport, error) {
	if len(edges) == 0 {
		return &CutReport{}, nil
	}
	if len(edges) > f.cfg.MaxBatch() {
		return nil, fmt.Errorf("core: batch of %d exceeds MaxBatch %d", len(edges), f.cfg.MaxBatch())
	}
	f.clearFrags()
	canon := make([]graph.Edge, len(edges))
	for i, e := range edges {
		canon[i] = e.Canonical()
	}
	// Locate (and implicitly claim) the tree records among the deletions.
	// The query travels sorted by edge id so each shard's found records come
	// out as key-sorted [eid, tour, up0, up1, vp0, vp1, weight] frames; an
	// edge lives on exactly one shard, so the merge-join never combines.
	n := f.cfg.N
	byID := make([]graph.Edge, len(canon))
	copy(byID, canon)
	sort.Slice(byID, func(i, j int) bool { return byID[i].ID(n) < byID[j].ID(n) })
	gathered := f.ask(edgeListPayload{edges: byID}, func(mm *mpc.Machine, payload mpc.Sized) *mpc.MessageBatch {
		es := eShard(mm)
		b := mpc.AcquireMessageBatch()
		for _, e := range payload.(edgeListPayload).edges {
			if te, ok := es.recs[e]; ok {
				fr := b.Grow(7)
				fr[0] = e.ID(n)
				fr[1] = uint64(te.rec.Tour)
				fr[2], fr[3] = uint64(te.rec.UPos[0]), uint64(te.rec.UPos[1])
				fr[4], fr[5] = uint64(te.rec.VPos[0]), uint64(te.rec.VPos[1])
				fr[6] = uint64(te.weight)
			}
		}
		return b
	}, mpc.KeepFirst)
	report := &CutReport{}
	deletedByEdge := map[graph.Edge]treeEdge{}
	if gathered != nil {
		for fr := range gathered.Frames {
			e := graph.EdgeFromID(fr[0], n)
			deletedByEdge[e] = treeEdge{
				rec: eulertour.Record{
					E:    e,
					Tour: eulertour.TourID(fr[1]),
					UPos: [2]eulertour.Pos{eulertour.Pos(fr[2]), eulertour.Pos(fr[3])},
					VPos: [2]eulertour.Pos{eulertour.Pos(fr[4]), eulertour.Pos(fr[5])},
				},
				weight: int64(fr[6]),
			}
		}
		gathered.Release()
	}
	var deletedRecs []eulertour.Record
	for _, e := range canon {
		if te, ok := deletedByEdge[e]; ok {
			report.TreeRecords = append(report.TreeRecords, te.rec)
			report.TreeWeights = append(report.TreeWeights, te.weight)
			deletedRecs = append(deletedRecs, te.rec)
		} else {
			report.NonTree = append(report.NonTree, e)
		}
	}
	if len(deletedRecs) == 0 {
		return report, nil
	}
	// Affected components: the components of the deleted tree edges.
	endpoints := make([]int, 0, 2*len(deletedRecs))
	for _, r := range deletedRecs {
		endpoints = append(endpoints, r.E.U, r.E.V)
	}
	labels, _ := f.labelsInto(nil, endpoints)
	affected := map[int]bool{}
	for _, c := range labels {
		affected[c] = true
	}
	report.AffectedComps = sortedKeys(affected)
	// Tour lengths: remaining records per tour, plus the deleted ones.
	delPerTour := map[eulertour.TourID]int{}
	for _, r := range deletedRecs {
		delPerTour[r.Tour]++
	}
	tourList := make([]int, 0, len(delPerTour))
	for t := range delPerTour {
		tourList = append(tourList, int(t))
	}
	sort.Ints(tourList)
	res := f.ask(mpc.Ints(tourList), func(mm *mpc.Machine, payload mpc.Sized) *mpc.MessageBatch {
		want := payload.(mpc.Ints)
		counts := make([]uint64, len(want))
		for _, te := range eShard(mm).recs {
			if j, ok := slices.BinarySearch(want, int(te.rec.Tour)); ok {
				counts[j]++
			}
		}
		return countFrames(want, counts)
	}, mpc.SumValues)
	tourLens := map[eulertour.TourID]int{}
	if res != nil {
		for fr := range res.Frames {
			// The records are still present at count time, so the count is
			// the full pre-split edge count of the tour.
			tourLens[eulertour.TourID(fr[0])] = 4 * int(fr[1])
		}
		res.Release()
	}
	for t := range delPerTour {
		if _, ok := tourLens[t]; !ok {
			tourLens[t] = 0
		}
	}
	plan, err := eulertour.PlanSplit(tourLens, deletedRecs, f.nextTour)
	if err != nil {
		return nil, err
	}
	// Tell the relabels; drop deleted records; apply to survivors; then push
	// fragment membership from edge shards to vertex shards.
	drop := make(map[graph.Edge]bool, len(deletedRecs))
	for _, r := range deletedRecs {
		drop[r.E] = true
	}
	newTours := map[eulertour.TourID]bool{}
	for _, fr := range plan.Fragments {
		if fr.Tour != eulertour.NoTour {
			newTours[fr.Tour] = true
		}
	}
	f.applyRelabels(relabelPayload{relabels: plan.Relabels, drop: drop, newTours: newTours, affected: affected})
	f.pushFragments()
	// Assign fragment component ids: min vertex id per fragment.
	fragMin := f.aggregateFragmentMins()
	compByFrag := map[uint64]int{}
	for k, minV := range fragMin {
		compByFrag[k] = minV
	}
	fragComps := map[int]bool{}
	for _, c := range compByFrag {
		fragComps[c] = true
	}
	report.FragmentComps = sortedKeys(fragComps)
	passive := passiveFragments(plan.Fragments)
	for k := range passive {
		report.PassiveComps = append(report.PassiveComps, compByFrag[k])
	}
	sort.Ints(report.PassiveComps)
	f.tellFragComps(compByFrag, passive)
	return report, nil
}

// passiveFragments picks the fragment keys that sit out the replacement
// search: the longest-tour (largest) fragment of every split tour, the first
// in plan order among equals. The coordinator reads this off the split plan
// at no cost. A tour that falls apart into single vertices has no passive
// fragment (Len 0 means Tour == NoTour: there is no key to name it by, and
// nothing to save).
func passiveFragments(frags []eulertour.Fragment) map[uint64]bool {
	largest := map[eulertour.TourID]eulertour.Fragment{}
	for _, fr := range frags {
		if cur, ok := largest[fr.OldTour]; !ok || fr.Len > cur.Len {
			largest[fr.OldTour] = fr
		}
	}
	passive := make(map[uint64]bool, len(largest))
	for _, fr := range largest {
		if fr.Tour != eulertour.NoTour {
			passive[fragKeyOfTour(fr.Tour)] = true
		}
	}
	return passive
}

// pushFragments has edge shards announce, for every record now on a fresh
// tour, the fragment of its endpoints; vertex shards record the mapping and
// mark message-less affected vertices as singletons. Which tours are fresh
// and which components are affected is what the preceding applyRelabels
// left on the shards; each set is dropped by the step that reads it. The
// (vertex, fragment) pairs travel as two-word frames of the batched message
// codec: one packed buffer per (edge shard, vertex owner) pair. One round:
// the vertex shards land the push.
func (f *Forest) pushFragments() {
	// The round: edge shards emit deduplicated (vertex, frag) pairs.
	f.cl.Step(func(mm *mpc.Machine, inbox []mpc.Message) []mpc.Message {
		es := eShard(mm)
		newTours := es.newTours
		es.newTours = nil
		byOwner := map[int]map[uint64]uint64{}
		for _, te := range es.recs {
			if !newTours[te.rec.Tour] {
				continue
			}
			key := fragKeyOfTour(te.rec.Tour)
			for _, v := range []int{te.rec.E.U, te.rec.E.V} {
				owner := f.part.Owner(v)
				if byOwner[owner] == nil {
					byOwner[owner] = map[uint64]uint64{}
				}
				byOwner[owner][uint64(v)] = key
			}
		}
		var out []mpc.Message
		for owner, pairs := range byOwner {
			b := mpc.AcquireMessageBatch()
			for v, k := range pairs {
				b.Append(v, k)
			}
			out = append(out, mpc.Message{To: owner, Payload: b})
		}
		return out
	})
	// Landing: vertex shards absorb the mapping and recycle the buffers.
	f.cl.Land(func(mm *mpc.Machine, inbox []mpc.Message) {
		vs := vShard(mm)
		if vs == nil {
			return
		}
		affectedComps := vs.affected
		vs.affected = nil
		for _, msg := range inbox {
			b := msg.Payload.(*mpc.MessageBatch)
			for pr := range b.Frames {
				vs.frag[int(pr[0])] = pr[1]
			}
			b.Release()
		}
		// Affected vertices with no fragment message are singletons now.
		for i := range vs.comp {
			v := vs.lo + i
			if affectedComps[vs.comp[i]] {
				if _, ok := vs.frag[v]; !ok {
					vs.frag[v] = fragKeyOfVertex(v)
				}
			}
		}
	})
}

// aggregateFragmentMins computes min vertex id per fragment key with one
// flat min-merging [fragment, vertex] aggregation.
func (f *Forest) aggregateFragmentMins() map[uint64]int {
	res := f.cl.AggregateBatches(f.coord,
		func(mm *mpc.Machine) *mpc.MessageBatch {
			vs := vShard(mm)
			if vs == nil || len(vs.frag) == 0 {
				return nil
			}
			keys := make([]uint64, 0, len(vs.frag))
			minBy := make(map[uint64]int, len(vs.frag))
			for v, k := range vs.frag {
				if cur, ok := minBy[k]; !ok || v < cur {
					if !ok {
						keys = append(keys, k)
					}
					minBy[k] = v
				}
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			b := mpc.AcquireMessageBatch()
			for _, k := range keys {
				b.Append(k, uint64(minBy[k]))
			}
			return b
		}, mergeMin)
	out := map[uint64]int{}
	if res != nil {
		for fr := range res.Frames {
			out[fr[0]] = int(fr[1])
		}
		res.Release()
	}
	return out
}

// fragCompsPayload is the Tell closing a Cut: the component id of every
// fragment key, and the keys of the passive fragments riding along.
type fragCompsPayload struct {
	compByFrag map[uint64]int
	passive    map[uint64]bool
}

func (p fragCompsPayload) Words() int { return 2*len(p.compByFrag) + len(p.passive) }

// tellFragComps assigns comp[v] = compByFrag[frag[v]] on all shards and
// leaves the passive fragment keys with them.
func (f *Forest) tellFragComps(compByFrag map[uint64]int, passive map[uint64]bool) {
	f.invalidateCache()
	f.tell(fragCompsPayload{compByFrag: compByFrag, passive: passive}, func(mm *mpc.Machine, payload mpc.Sized) {
		vs := vShard(mm)
		if vs == nil {
			return
		}
		p := payload.(fragCompsPayload)
		for v, k := range vs.frag {
			if c, ok := p.compByFrag[k]; ok {
				vs.comp[v-vs.lo] = c
			}
		}
		vs.passive = p.passive
	})
}

// pathQuery carries a batch of Identify-Path requests: vertex pairs with
// their occurrence intervals.
type pathQuery struct {
	pairs []pathPair
}

type pathPair struct {
	idx            int
	tour           eulertour.TourID
	fu, lu, fv, lv eulertour.Pos
}

func (q pathQuery) Words() int { return 6 * len(q.pairs) }

// HeaviestOnPaths executes a batch of Identify-Path operations (Section 7.1,
// Lemma 7.2): for each pair (u, v) in the same tree, it returns the
// maximum-weight edge on the unique tree path between them. Pairs in
// different trees or equal pairs yield no entry. Costs O(1) collective
// operations.
func (f *Forest) HeaviestOnPaths(pairs [][2]int) (map[int]graph.WeightedEdge, error) {
	if len(pairs) == 0 {
		return map[int]graph.WeightedEdge{}, nil
	}
	if len(pairs) > f.cfg.MaxBatch() {
		return nil, fmt.Errorf("core: batch of %d exceeds MaxBatch %d", len(pairs), f.cfg.MaxBatch())
	}
	var vertices []int
	for _, p := range pairs {
		vertices = append(vertices, p[0], p[1])
	}
	stats := f.Stats(vertices)
	q := pathQuery{}
	for i, p := range pairs {
		su, sv := stats[p[0]], stats[p[1]]
		if su.Tour == eulertour.NoTour || su.Tour != sv.Tour {
			continue
		}
		q.pairs = append(q.pairs, pathPair{
			idx: i, tour: su.Tour, fu: su.F, lu: su.L, fv: sv.F, lv: sv.L,
		})
	}
	res := f.ask(q,
		func(mm *mpc.Machine, payload mpc.Sized) *mpc.MessageBatch {
			es := eShard(mm)
			query := payload.(pathQuery)
			best := make([]graph.WeightedEdge, len(query.pairs))
			found := make([]bool, len(query.pairs))
			for _, te := range es.recs {
				for j, pr := range query.pairs {
					if te.rec.Tour != pr.tour {
						continue
					}
					if !eulertour.OnPath(te.rec.ChildF(), te.rec.ChildL(), pr.fu, pr.lu, pr.fv, pr.lv) {
						continue
					}
					cand := graph.WeightedEdge{Edge: te.rec.E, Weight: te.weight}
					if !found[j] || heavier(cand, best[j]) {
						found[j], best[j] = true, cand
					}
				}
			}
			// query.pairs is built in ascending idx order, so the frames
			// [idx, weight, u, v] are key-sorted for the merge-join.
			b := mpc.AcquireMessageBatch()
			for j, ok := range found {
				if ok {
					b.Append(uint64(query.pairs[j].idx), uint64(best[j].Weight), uint64(best[j].U), uint64(best[j].V))
				}
			}
			return b
		}, mergeHeavier)
	out := map[int]graph.WeightedEdge{}
	if res != nil {
		for fr := range res.Frames {
			out[int(fr[0])] = graph.WeightedEdge{
				Edge:   graph.Edge{U: int(fr[2]), V: int(fr[3])},
				Weight: int64(fr[1]),
			}
		}
		res.Release()
	}
	return out, nil
}

// mergeHeavier keeps the heavier candidate of colliding [idx, weight, u, v]
// frames, with the same canonical tie-break as heavier.
var mergeHeavier = func(a, b *mpc.MessageBatch) *mpc.MessageBatch {
	return mpc.MergeSortedBatches(a, b, func(dst, src []uint64) {
		d := graph.WeightedEdge{Edge: graph.Edge{U: int(dst[2]), V: int(dst[3])}, Weight: int64(dst[1])}
		s := graph.WeightedEdge{Edge: graph.Edge{U: int(src[2]), V: int(src[3])}, Weight: int64(src[1])}
		if heavier(s, d) {
			copy(dst[1:], src[1:])
		}
	})
}

// heavier orders weighted edges by weight, breaking ties canonically so the
// maintained MSF is deterministic.
func heavier(a, b graph.WeightedEdge) bool {
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	if a.U != b.U {
		return a.U > b.U
	}
	return a.V > b.V
}

// SnapshotComponents reads out every vertex's component id. This is a
// driver-level readout of the collectively stored output (the solution is
// already materialized across machines, Section 1.2), not an MPC operation.
func (f *Forest) SnapshotComponents() []int {
	out := make([]int, f.cfg.N)
	f.cl.LocalAll(func(mm *mpc.Machine) {
		vs := vShard(mm)
		if vs == nil {
			return
		}
		for i, c := range vs.comp {
			out[vs.lo+i] = c
		}
	})
	return out
}

// SnapshotForest reads out the maintained forest edges (driver-level
// readout of the collectively stored solution). Each machine drains its
// shard into its own bucket — appending to one shared slice would race
// under a parallel executor — and the buckets are concatenated afterwards.
func (f *Forest) SnapshotForest() []graph.WeightedEdge {
	buckets := make([][]graph.WeightedEdge, f.cl.Machines())
	f.cl.LocalAll(func(mm *mpc.Machine) {
		es := eShard(mm)
		for e, te := range es.recs {
			buckets[mm.ID] = append(buckets[mm.ID], graph.WeightedEdge{Edge: e, Weight: te.weight})
		}
	})
	var out []graph.WeightedEdge
	for _, b := range buckets {
		out = append(out, b...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// ReportForest materializes the solution in the model's output convention
// (Section 1.2): the forest edges are globally sorted by edge id (the O(1)-
// round distributed sample sort) and then compacted onto a prefix of the
// machines, each holding up to its output capacity. It returns the
// per-machine edge counts of the output layout.
func (f *Forest) ReportForest() []int {
	n := f.cfg.N
	const slotOut = "out"
	f.cl.SortByKey(
		func(mm *mpc.Machine) []uint64 {
			es := eShard(mm)
			keys := make([]uint64, 0, len(es.recs))
			for e := range es.recs {
				keys = append(keys, e.ID(n))
			}
			return keys
		},
		func(mm *mpc.Machine, keys []uint64) {
			if len(keys) == 0 {
				mm.Delete(slotOut)
				return
			}
			mm.Set(slotOut, mpc.U64s(keys))
		},
		2,
	)
	// Compact onto a machine prefix: aggregate counts, broadcast prefix
	// offsets, route each item to floor(globalRank / capacity).
	capacity := f.cl.LocalMemory() / 4
	if capacity < 1 {
		capacity = 1
	}
	countsRes := f.cl.AggregateBatches(f.coord, func(mm *mpc.Machine) *mpc.MessageBatch {
		v, ok := mm.Get(slotOut).(mpc.U64s)
		if !ok {
			return nil
		}
		b := mpc.AcquireMessageBatch()
		b.Append(uint64(mm.ID), uint64(len(v)))
		return b
	}, mpc.KeepFirst)
	// offsets lists [machine, rank of its first key] pairs.
	var offsets mpc.Ints
	run := 0
	if countsRes != nil {
		for fr := range countsRes.Frames {
			offsets = append(offsets, int(fr[0]), run)
			run += int(fr[1])
		}
		countsRes.Release()
	}
	// Every machine keeps the one offset that is its own, by machine id.
	offsetOf := make([]int, f.cl.Machines())
	f.tell(offsets, func(mm *mpc.Machine, msg mpc.Sized) {
		for p := msg.(mpc.Ints); len(p) > 0; p = p[2:] {
			if p[0] == mm.ID {
				offsetOf[mm.ID] = p[1]
			}
		}
	})
	f.cl.Step(func(mm *mpc.Machine, inbox []mpc.Message) []mpc.Message {
		keys, ok := mm.Get(slotOut).(mpc.U64s)
		if !ok {
			return nil
		}
		mm.Delete(slotOut)
		off := offsetOf[mm.ID]
		byDest := map[int][]uint64{}
		for i, k := range keys {
			byDest[(off+i)/capacity] = append(byDest[(off+i)/capacity], k)
		}
		var out []mpc.Message
		for dst, ks := range byDest {
			out = append(out, mpc.Message{To: dst, Payload: mpc.U64s(ks)})
		}
		return out
	})
	final := make([]int, f.cl.Machines())
	f.cl.Land(func(mm *mpc.Machine, inbox []mpc.Message) {
		var keys []uint64
		for _, msg := range inbox {
			keys = append(keys, msg.Payload.(mpc.U64s)...)
		}
		if len(keys) > 0 {
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			mm.Set(slotOut, mpc.U64s(keys))
			final[mm.ID] = len(keys)
			// The output stays resident only for the duration of the report;
			// drop it so steady-state memory is unaffected.
			mm.Delete(slotOut)
		}
	})
	return final
}
