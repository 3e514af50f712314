package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/eulertour"
	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/mpc"
	"repro/internal/sketchcodec"
)

// Machine store slot names.
const (
	slotVertex = "v"  // vertexShard
	slotEdge   = "e"  // edgeShard
	slotQCache = "qc" // coordinator query-cache meter (cacheMeter)
)

// vertexShard is the per-machine vertex state: the component id of every
// owned vertex and, transiently after a Cut, the fragment key of affected
// vertices — pushed by the edge shards for the small fragments of a split
// tour, filled in from the Cut's relabel Tell for its largest fragment and
// for the vertices it leaves alone.
type vertexShard struct {
	lo, hi int
	comp   []int
	// frag is a dense column over [lo, hi): frag[v-lo] is the fragment key of
	// vertex v if a Cut affected it, from the Cut's fragment push until the
	// deletion that made them is over (dropFrags): the replacement search has
	// ended, or the public Cut returns. 0 means "no fragment" and is never a
	// key (tour keys start at 1, vertex keys carry fragVertexBit). nfrag
	// counts the set entries. All zero between operations, so never
	// checkpointed.
	frag  []uint64
	nfrag int
	// mins is aggregateFragmentMins' scratch, reused across deletions.
	mins [][2]uint64
	// passive holds the fragment keys the last Cut declared passive (the
	// largest fragment of every split tour, see Cut). Set by the Cut's
	// relabel Tell, since the split plan names them before the fragment push,
	// and dropped with frag. The map is the payload's read-only index of
	// them, shared by every shard.
	passive map[uint64]bool
	// passiveOf and alone hold, from the Tell that splits the tours of a Cut
	// until the fragment push that follows consumes them (pushFragments), the
	// passive key of every component being split (0 if it has none) and the
	// vertices the split leaves alone, sorted: an affected vertex the push
	// names no fragment is on one of the two. Transient and never
	// checkpointed, like passive, and like it the read-only payload shared by
	// every shard.
	passiveOf map[int]uint64
	alone     []int
}

// Words implements mpc.Sized.
func (s *vertexShard) Words() int {
	return len(s.comp) + 2*s.nfrag + len(s.passive) + 2*len(s.passiveOf) + len(s.alone) + 2
}

// setFrag gives the vertex at column index i fragment key k.
func (s *vertexShard) setFrag(i int, k uint64) {
	if s.frag[i] == 0 {
		s.nfrag++
	}
	s.frag[i] = k
}

func (s *vertexShard) owns(v int) bool { return v >= s.lo && v < s.hi }

func (s *vertexShard) compOf(v int) int { return s.comp[v-s.lo] }

// heads counts the owned vertices that head their component: with the
// minimum-id convention, v does iff comp[v] == v.
func (s *vertexShard) heads() int {
	n := 0
	for i, c := range s.comp {
		if c == s.lo+i {
			n++
		}
	}
	return n
}

// treeEdge is one tree-edge record plus its weight (weights are carried only
// by weighted forests; zero otherwise).
type treeEdge struct {
	rec    eulertour.Record
	weight int64
}

// edgeShard holds the tree-edge records hash-assigned to one machine, in one
// slice sorted by edge (edge-id order): lookups binary-search it (find),
// scans walk it by index.
//
// A shard holds exactly the edges edgeOwner names for its machine: a Link
// routes each new record there, and a load or re-shard places every record
// there (TestShardTablesStayFlat checks it after every batch and every load).
// So a shard looks up only the edges it owns; any other lookup would miss.
type edgeShard struct {
	recs []treeEdge
	// pairs holds, from the relabel Tell that splits a Cut's tours until the
	// fragment push that follows sends them (pushFragments), the [vertex, key]
	// pairs of every record the split put on a fresh tour that is not
	// passive; reused across deletions. held is what the Tell told the push,
	// in words: the fresh range and the passive keys. The shard is metered
	// for those, not for the pairs it derived from them. Transient, never
	// checkpointed.
	pairs [][2]uint64
	held  int
	// stats is answerStats' scratch, one slot per queried vertex.
	stats []eulertour.VertexStats
}

// Words implements mpc.Sized.
func (s *edgeShard) Words() int { return 8*len(s.recs) + s.held + 1 }

func cmpEdge(a, b graph.Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) }

// find returns the index of e's record, or where it would be inserted.
func (s *edgeShard) find(e graph.Edge) (int, bool) {
	return slices.BinarySearchFunc(s.recs, e, func(te treeEdge, e graph.Edge) int { return cmpEdge(te.rec.E, e) })
}

// relabel applies a relabel Tell to the shard in one walk over its records:
// it drops the records a Cut deletes, found by lookup among the edges the
// shard owns, rewrites the others through one eulertour.Applier, and
// collects for the fragment push both endpoints of every record that lands
// on a fresh tour that is not passive, testing each tour once per run.
func (s *edgeShard) relabel(p relabelPayload, owns func(graph.Edge) bool) {
	for e := range p.drop {
		if !owns(e) {
			continue
		}
		if i, ok := s.find(e); ok {
			s.recs[i].rec.Tour = eulertour.NoTour // no record is on no tour
		}
	}
	var fresh [2]eulertour.TourID // [lo, hi); empty for a Link
	copy(fresh[:], p.fresh)
	s.held = len(p.fresh) + len(p.passive)
	a := p.set.Applier()
	pairs := s.pairs[:0]
	last, key, push := eulertour.NoTour, uint64(0), false
	w := 0
	for i := range s.recs {
		te := &s.recs[i]
		if te.rec.Tour == eulertour.NoTour {
			continue
		}
		if err := a.ApplyToRecord(&te.rec); err != nil {
			panic(fmt.Sprintf("core: %v", err))
		}
		if t := te.rec.Tour; t != last {
			last, key = t, fragKeyOfTour(t)
			push = t >= fresh[0] && t < fresh[1] && !p.passive[key]
		}
		if push {
			pairs = append(pairs, [2]uint64{uint64(te.rec.E.U), key}, [2]uint64{uint64(te.rec.E.V), key})
		}
		if w != i {
			s.recs[w] = *te
		}
		w++
	}
	s.recs = s.recs[:w]
	s.pairs = pairs
}

// land merges records that arrived in one message into the sorted slice:
// one sort of the arrivals and one backward merge pass, whatever the shard's
// size. The message's slice is scratch from here on.
func (s *edgeShard) land(recs []treeEdge) {
	slices.SortFunc(recs, func(a, b treeEdge) int { return cmpEdge(a.rec.E, b.rec.E) })
	i, j := len(s.recs)-1, len(recs)-1
	s.recs = append(s.recs, recs...)
	for w := len(s.recs) - 1; j >= 0; w-- {
		if i >= 0 && cmpEdge(s.recs[i].rec.E, recs[j].rec.E) > 0 {
			s.recs[w], i = s.recs[i], i-1
		} else {
			s.recs[w], j = recs[j], j-1
		}
	}
}

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
// valid iff stamp[v] == epoch. Queries resolve their cache misses with one
// broadcast + one flat-frame aggregation and answer everything else
// coordinator-locally with zero MPC rounds. Like nextID, the cache is
// coordinator-local driver state, not machine-store state.
//
// The cache stays exact across updates, rewritten from what the coordinator
// tells the shards: a Link's component map rewrites the labels it merges away
// (relink), a Cut's fragment labels those of the components it splits
// (split). A cached vertex of a component the Cut leaves in several tours
// cannot be placed from the Cut alone, so it is parked — unstamped and held
// in pend until the Links that follow reunite the component's fragments. Only
// InvalidateCache bumps the epoch (an O(1) drop of the whole cache); a
// restore stamps the checkpoint's warm set in the current one (installWarm).
// It has no lock: the one goroutine that drives the Forest owns it.
type labelCache struct {
	labels []int
	stamp  []uint32
	epoch  uint32 // never 0, so a zero stamp is never valid
	// mark is relink's and split's scratch, indexed by component id: nonzero
	// for the components the rewrite changes (relink: 1 + the new label).
	// All zero between rewrites.
	mark  []int32
	miss  []int      // reusable sorted miss list of the current resolve
	query u64Payload // reusable broadcast payload holding the miss list
	// valid counts the entries stamped in the current epoch, i.e. the
	// resident cache size metered by cacheMeter.
	valid int
	// numComps caches NumComponents (valid iff numCompsOK), kept through
	// every Link and Cut.
	numComps   int
	numCompsOK bool
	// pend holds the entries a Cut parked, keyed by the component it split.
	// They live only inside the update that parked them: the end of a
	// deletion batch and the next Cut drop what is left (dropParked).
	pend map[int]*parkedComp
	// hits counts query batches answered entirely from the cache (zero
	// rounds); misses counts batches that ran the cache-fill collective.
	// Read by Forest.QueryCacheStats.
	hits, misses uint64
}

// parkedComp is one component a Cut split into several tours while the cache
// held some of its vertices: the current labels of its tour fragments, and
// the vertices waiting for those labels to become one.
type parkedComp struct {
	frags    []int
	vertices []int
}

// relink follows a Link's component map: every entry, cached count and parked
// fragment label the Link merged away takes its group's label, and a parked
// component whose fragments now share one label has its vertices stamped with
// it. One coordinator-local scan of the cache.
func (lc *labelCache) relink(compMap map[int]int) {
	for c, nc := range compMap {
		if c != nc {
			lc.mark[c] = int32(nc) + 1
			if lc.numCompsOK {
				lc.numComps--
			}
		}
	}
	for v, s := range lc.stamp {
		if s == lc.epoch {
			if m := lc.mark[lc.labels[v]]; m != 0 {
				lc.labels[v] = int(m - 1)
			}
		}
	}
	for c, p := range lc.pend {
		one := true
		for i, l := range p.frags {
			if m := lc.mark[l]; m != 0 {
				p.frags[i] = int(m - 1)
			}
			one = one && p.frags[i] == p.frags[0]
		}
		if one {
			for _, v := range p.vertices {
				if lc.stamp[v] != lc.epoch { // a search's lookup may have refilled it
					lc.stamp[v] = lc.epoch
					lc.valid++
				}
				lc.labels[v] = p.frags[0]
			}
			delete(lc.pend, c)
		}
	}
	for c := range compMap {
		lc.mark[c] = 0
	}
}

// split follows a Cut's closing Tell. affected are the components it splits
// (the keys of the Cut's passiveOf), compByFrag the label of every fragment,
// tourFrags the labels of each affected component's tour fragments. A cached
// vertex of an affected component left on its own is its own label; one of a
// component left in one tour takes that tour's label; any other is parked.
// One coordinator-local scan of the cache.
func (lc *labelCache) split(affected map[int]uint64, compByFrag map[uint64]int, tourFrags map[int][]int) {
	if lc.numCompsOK {
		lc.numComps += len(compByFrag) - len(affected)
	}
	for c := range affected {
		lc.mark[c] = 1
	}
	for v, s := range lc.stamp {
		if s != lc.epoch || lc.mark[lc.labels[v]] == 0 {
			continue
		}
		c := lc.labels[v]
		if _, single := compByFrag[fragKeyOfVertex(v)]; single {
			lc.labels[v] = v
			continue
		}
		if frags := tourFrags[c]; len(frags) == 1 {
			lc.labels[v] = frags[0]
			continue
		}
		lc.stamp[v] = 0
		lc.valid--
		p := lc.pend[c]
		if p == nil {
			p = &parkedComp{frags: tourFrags[c]}
			lc.pend[c] = p
		}
		p.vertices = append(p.vertices, v)
	}
	for c := range affected {
		lc.mark[c] = 0
	}
}

// dropParked forgets the entries still parked: their vertices stay misses.
func (lc *labelCache) dropParked() { clear(lc.pend) }

// cacheMeter folds the coordinator's query caches into the MPC memory
// ledger: the epoch-valid label-cache entries (label plus stamp, two words
// each), the parked ones (a word per vertex and per fragment label, one per
// component) and the cached NumComponents readout. Without it the cache lives
// outside the memory meter, Stats.PeakTotalWords under-reports, and no
// violation records a cache outgrowing the s-words model. Registered under
// slotQCache on the coordinator machine; Words is read at round
// boundaries only, while the coordinator driver is quiescent, so it needs
// no synchronization.
type cacheMeter struct{ lc *labelCache }

// Words implements mpc.Sized.
func (c cacheMeter) Words() int {
	lc := c.lc
	w := 2 * lc.valid
	if lc.numCompsOK {
		w++
	}
	for _, p := range lc.pend {
		w += 1 + len(p.frags) + len(p.vertices)
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
	// pending holds the riders waiting for the forest's next broadcast (see
	// ride).
	pending carrier
}

// rider is a Tell whose effect nothing reads before the forest's next
// broadcast, so it rides that broadcast instead of paying one of its own.
type rider struct {
	msg   mpc.Sized
	apply func(mm *mpc.Machine, msg mpc.Sized)
}

// carrier is a broadcast with the pending riders ahead of it: every machine
// applies the riders, in the order they were queued, and then answers or
// applies the broadcast's own payload. Its words are all of theirs, so what
// the riders tell is counted on the broadcast that carries it.
type carrier struct {
	riders []rider
	msg    mpc.Sized
	answer func(mm *mpc.Machine, q mpc.Sized) *mpc.MessageBatch
	apply  func(mm *mpc.Machine, msg mpc.Sized)
}

// Words implements mpc.Sized.
func (c *carrier) Words() int { return c.msg.Words() + c.riderWords() }

func (c *carrier) riderWords() int {
	w := 0
	for _, r := range c.riders {
		w += r.msg.Words()
	}
	return w
}

// land applies the riders on one machine.
func (c *carrier) land(mm *mpc.Machine) {
	for _, r := range c.riders {
		r.apply(mm, r.msg)
	}
}

// reset empties the carrier once its broadcast has been consumed.
func (c *carrier) reset() {
	clear(c.riders)
	c.riders = c.riders[:0]
	c.msg, c.answer, c.apply = nil, nil, nil
}

func answerCarried(mm *mpc.Machine, p mpc.Sized) *mpc.MessageBatch {
	c := p.(*carrier)
	c.land(mm)
	return c.answer(mm, c.msg)
}

func applyCarried(mm *mpc.Machine, p mpc.Sized) {
	c := p.(*carrier)
	c.land(mm)
	c.apply(mm, c.msg)
}

// NewForest creates an unweighted forest engine on n = cfg.N vertices, all
// initially singletons.
func NewForest(cfg Config) (*Forest, error) { return newForest(cfg, false, 0) }

// NewWeightedForest creates a forest engine whose tree edges carry weights,
// as needed by the exact-MSF algorithm of Section 7.1.
func NewWeightedForest(cfg Config) (*Forest, error) { return newForest(cfg, true, 0) }

// vertexWords is the forest's share of a vertex bundle: the component id, an
// amortized share of edge records and transient fragment entries.
const vertexWords = 64

// newForest builds the cluster and shards; sketchWords reserves per-vertex
// budget for a DynamicConnectivity's sketches.
func newForest(cfg Config, weighted bool, sketchWords int) (*Forest, error) {
	fl, err := cfg.NewFleet(vertexWords + sketchWords)
	if err != nil {
		return nil, err
	}
	cl := fl.Cluster
	f := &Forest{
		cfg:      cfg,
		cl:       cl,
		part:     fl.Part,
		coord:    fl.Coord,
		weighted: weighted,
		edgeHash: hash.NewPairwise(hash.NewPRG(cfg.Seed ^ 0x9d5f)),
		nextID:   1,
		cache: labelCache{
			labels: make([]int, cfg.N),
			stamp:  make([]uint32, cfg.N),
			mark:   make([]int32, cfg.N),
			epoch:  1,
			pend:   map[int]*parkedComp{},
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
				frag: make([]uint64, hi-lo),
			}
			for v := lo; v < hi; v++ {
				vs.comp[v-lo] = v
			}
			mm.Set(slotVertex, vs)
		} else {
			mm.Set(slotQCache, cacheMeter{&f.cache})
		}
		mm.Set(slotEdge, &edgeShard{})
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
// to the callback and is gone from every store when the call returns. Both
// send through the carrier, so every broadcast the forest makes has one
// shape: the pending riders, if any, which every machine applies first, then
// the payload.
func (f *Forest) ask(q mpc.Sized, answer func(mm *mpc.Machine, q mpc.Sized) *mpc.MessageBatch, combine mpc.BatchCombine) *mpc.MessageBatch {
	c := &f.pending
	c.msg, c.answer = q, answer
	res := f.cl.Ask(f.coord, c, answerCarried, combine)
	c.reset()
	return res
}

func (f *Forest) tell(msg mpc.Sized, apply func(mm *mpc.Machine, msg mpc.Sized)) {
	c := &f.pending
	c.msg, c.apply = msg, apply
	f.cl.Tell(f.coord, c, applyCarried)
	c.reset()
}

// ride queues a Tell for the forest's next ask or tell: for a message whose
// effect nothing reads before then, the broadcast it would have paid. Every
// other collective flushes first, and every public mutating entry point
// returns with nothing pending.
func (f *Forest) ride(msg mpc.Sized, apply func(mm *mpc.Machine, msg mpc.Sized)) {
	f.pending.riders = append(f.pending.riders, rider{msg: msg, apply: apply})
}

// noWords is the payload of a broadcast that carries riders only.
var noWords = mpc.Ints(nil)

// flush lands the pending riders: with a Tell of their own when they carry
// words, as local work between rounds when they carry none (dropFrags, which
// costs no broadcast).
func (f *Forest) flush() {
	c := &f.pending
	switch {
	case len(c.riders) == 0:
	case c.riderWords() > 0:
		f.tell(noWords, func(*mpc.Machine, mpc.Sized) {})
	default:
		f.cl.LocalAll(c.land)
		c.reset()
	}
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

// InvalidateCache drops the coordinator label cache — every cached component
// label, the parked ones and the cached component count — in O(1) by bumping
// its epoch, so the next query runs its collective. Updates keep the cache
// exact and never call it; it exists for measurement (E15 and the query
// benchmarks ablate the cache with it).
func (f *Forest) InvalidateCache() {
	lc := &f.cache
	lc.epoch++
	if lc.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(lc.stamp)
		lc.epoch = 1
	}
	lc.valid = 0
	lc.numCompsOK = false
	clear(lc.pend)
}

// QueryCacheStats reports how many query batches were answered entirely
// from the label cache (zero MPC rounds) and how many ran the cache-fill
// collective since construction.
func (f *Forest) QueryCacheStats() (hits, misses uint64) {
	return f.cache.hits, f.cache.misses
}

// checkQueryVertex rejects out-of-range query vertices up front with a
// diagnostic instead of letting the label cache index out of bounds (e.g.
// a stale QueryMix trace replayed against a smaller N).
func (f *Forest) checkQueryVertex(v int) {
	if v < 0 || v >= f.cfg.N {
		panic(fmt.Sprintf("core: query vertex %d out of range [0,%d)", v, f.cfg.N))
	}
}

// resolveMisses runs the cache-fill collective for the miss list staged in
// the cache: one Ask carrying the sorted misses, answered with [vertex, comp]
// frames (O(1/φ) rounds), decoded into the cache. No-op when the list is
// empty.
func (f *Forest) resolveMisses() {
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

// countFrames appends one [tag|key, count] frame per key counted at least
// once.
func countFrames(b *mpc.MessageBatch, tag uint64, keys []int, counts []uint64) *mpc.MessageBatch {
	for j, c := range counts {
		if c > 0 {
			b.Append(tag|uint64(keys[j]), c)
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
	b := mpc.AcquireMessageBatch()
	b.Append(0, uint64(vs.heads()))
	return b
}

// NumComponents counts the components of the maintained graph with one flat
// summing aggregation; the count is cached and kept through every Link and
// Cut, so every later readout (the bipartiteness test, the approx-MSF weight
// formula) costs zero rounds.
func (f *Forest) NumComponents() int {
	lc := &f.cache
	if lc.numCompsOK {
		return lc.numComps
	}
	f.flush()
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

// statsQuery is the question of a batched f/l query and, for a Link, of the
// sizes of the components it joins: vertices and comps are sorted and
// distinct.
type statsQuery struct{ vertices, comps []int }

func (q statsQuery) Words() int { return len(q.vertices) + len(q.comps) }

// sizeTag marks the [sizeTag|comp, count] frames of a Link's answer: a key
// range of its own (bit 62, as fragKeyOfVertex's), above every [v, tour, f,
// l] frame's, so each machine's answer is key-sorted with the stats first.
const sizeTag = uint64(1) << 62

// mergeStats combines colliding [v, tour, f, l] frames — same tour, min f,
// max l — and sums colliding [sizeTag|comp, count] ones.
var mergeStats = func(a, b *mpc.MessageBatch) *mpc.MessageBatch {
	return mpc.MergeSortedBatches(a, b, func(dst, src []uint64) {
		if dst[0]&sizeTag != 0 {
			dst[1] += src[1]
			return
		}
		if src[2] < dst[2] {
			dst[2] = src[2]
		}
		if src[3] > dst[3] {
			dst[3] = src[3]
		}
	})
}

// answerStats answers a statsQuery on one machine: the edge shard scans its
// records for [v, tour, f, l] frames, the vertex shard counts the listed
// components' vertices.
func answerStats(mm *mpc.Machine, payload mpc.Sized) *mpc.MessageBatch {
	q := payload.(statsQuery)
	query := q.vertices
	// Accumulate per query slot (query is sorted, so the emitted frames are
	// key-sorted for free). A slot's F is 0 until a record names its vertex:
	// positions start at 1.
	es := eShard(mm)
	stats := slices.Grow(es.stats[:0], len(query))[:len(query)]
	clear(stats)
	es.stats = stats
	for i := range es.recs {
		te := &es.recs[i]
		for _, v := range [2]int{te.rec.E.U, te.rec.E.V} {
			j := sort.SearchInts(query, v)
			if j == len(query) || query[j] != v {
				continue
			}
			ps, st := te.rec.PositionsOf(v), &stats[j]
			if st.F == 0 {
				st.Tour, st.F, st.L = te.rec.Tour, ps[0], ps[1]
				continue
			}
			if ps[0] < st.F {
				st.F = ps[0]
			}
			if ps[1] > st.L {
				st.L = ps[1]
			}
		}
	}
	b := mpc.AcquireMessageBatch()
	for j, st := range stats {
		if st.F != 0 {
			b.Append(uint64(query[j]), uint64(st.Tour), uint64(st.F), uint64(st.L))
		}
	}
	vs := vShard(mm)
	if vs == nil || len(q.comps) == 0 {
		return b
	}
	counts := make([]uint64, len(q.comps))
	for _, c := range vs.comp {
		if j, ok := slices.BinarySearch(q.comps, c); ok {
			counts[j]++
		}
	}
	return countFrames(b, sizeTag, q.comps, counts)
}

// Stats resolves occurrence statistics (tour, f, l) for the given vertices
// with one Ask: the edge shards scan their records and answer [v, tour, f, l]
// frames, min/max-merged along the aggregation tree (O(1/φ) rounds).
// Singleton vertices come back with Tour == NoTour.
func (f *Forest) Stats(vertices []int) map[int]eulertour.VertexStats {
	stats, _ := f.statsAndSizes(vertices, nil)
	return stats
}

// statsAndSizes is Stats plus, in the same Ask, the vertex count of every
// listed component (sorted and distinct): what a Link asks before it plans.
func (f *Forest) statsAndSizes(vertices, comps []int) (map[int]eulertour.VertexStats, map[int]int) {
	q := slices.Clone(vertices)
	slices.Sort(q)
	q = slices.Compact(q)
	merged := f.ask(statsQuery{vertices: q, comps: comps}, answerStats, mergeStats)
	stats := make(map[int]eulertour.VertexStats, len(q))
	sizes := make(map[int]int, len(comps))
	if merged != nil {
		for fr := range merged.Frames {
			if fr[0]&sizeTag != 0 {
				sizes[int(fr[0]&^sizeTag)] = int(fr[1])
				continue
			}
			stats[int(fr[0])] = eulertour.VertexStats{
				Tour: eulertour.TourID(fr[1]),
				F:    eulertour.Pos(fr[2]),
				L:    eulertour.Pos(fr[3]),
			}
		}
		merged.Release()
	}
	for _, v := range q {
		if _, ok := stats[v]; !ok {
			stats[v] = eulertour.VertexStats{Tour: eulertour.NoTour}
		}
	}
	return stats, sizes
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
			recs := eShard(mm).recs
			queries := payload.(cutQueryPayload).qs
			best := make([]eulertour.Pos, len(queries))
			for i := range recs {
				te := &recs[i]
				for _, v := range [2]int{te.rec.E.U, te.rec.E.V} {
					j := sort.Search(len(queries), func(j int) bool { return queries[j].Vertex >= v })
					for ; j < len(queries) && queries[j].Vertex == v; j++ {
						for _, p := range te.rec.PositionsOf(v) {
							if p > queries[j].Cut && (best[j] == 0 || p < best[j]) {
								best[j] = p
							}
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
// what the fragment push that follows reads: the tour ids the split
// allocated, the key of every split component's passive fragment — the
// largest, which the push leaves out and the aggregations of the replacement
// search skip — and the vertices it leaves alone. Everything a machine learns
// from the coordinator here is on the payload and counted: O(k) words for k
// deletions, whatever the size of the components they split.
type relabelPayload struct {
	relabels  []eulertour.Relabel
	compMap   map[int]int         // old comp id -> new comp id (joins)
	drop      map[graph.Edge]bool // tree-edge records to delete (cuts)
	fresh     []eulertour.TourID  // [lo, hi): the ids the split allocated (cuts)
	passiveOf map[int]uint64      // split comp id -> passive key, 0 if none (cuts)
	alone     []int               // single-vertex fragments, sorted (cuts)

	// set is the flat table of relabels and passive the nonzero keys of
	// passiveOf. Both are pure functions of the payload that every machine
	// could build for itself, so they carry no words; the simulator builds
	// them once and the machines share them read-only.
	set     *eulertour.RelabelSet
	passive map[uint64]bool
}

func (p relabelPayload) Words() int {
	return 5*len(p.relabels) + 2*len(p.compMap) + 2*len(p.drop) + len(p.fresh) + 2*len(p.passiveOf) + len(p.alone)
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
	stats, sizes := f.statsAndSizes(terminals, slices.Compact(keys))

	planner, err := f.preparePlanner(plainEdges, terminals, labels, stats, sizes)
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
	f.flush()
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
			eShard(mm).land(msg.Payload.(recordsPayload).records)
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

// preparePlanner builds the join planner from the Link's one Ask and runs the
// planner's rotation query when it has one. terminals are the endpoints of
// edges and labels their components, position by position.
func (f *Forest) preparePlanner(edges []graph.Edge, terminals, labels []int, stats map[int]eulertour.VertexStats, sizes map[int]int) (*eulertour.JoinPlanner, error) {
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
// and the component map to the vertex shards — and to the label cache. The
// edge shards do it in one walk that also collects the pairs a Cut's
// fragment push sends (edgeShard.relabel); what a Cut tells the vertex shards
// for the push stays behind there for pushFragments, its passive keys for the
// replacement search; its component ids change only at tellFragComps.
func (f *Forest) applyRelabels(payload relabelPayload) {
	if len(payload.compMap) > 0 {
		f.cache.relink(payload.compMap)
	}
	payload.set = eulertour.NewRelabelSet(payload.relabels)
	f.tell(payload, func(mm *mpc.Machine, msg mpc.Sized) {
		p := msg.(relabelPayload)
		eShard(mm).relabel(p, func(e graph.Edge) bool { return f.edgeOwner(e) == mm.ID })
		vs := vShard(mm)
		if vs == nil {
			return
		}
		vs.passiveOf, vs.alone, vs.passive = p.passiveOf, p.alone, p.passive
		if len(p.compMap) > 0 {
			for i, c := range vs.comp {
				if nc, ok := p.compMap[c]; ok {
					vs.comp[i] = nc
				}
			}
		}
	})
}

// dropFrags drops the fragment and passive keys a Cut left on the vertex
// shards: the deletion that made them is over. A rider without words: it
// lands after the Tell that closes the Cut, with the next broadcast or the
// flush that ends the operation, and never forces a flush of its own.
func (f *Forest) dropFrags() {
	f.ride(noWords, func(mm *mpc.Machine, _ mpc.Sized) {
		vs := vShard(mm)
		if vs == nil {
			return
		}
		vs.passive = nil
		if vs.nfrag > 0 {
			clear(vs.frag)
			vs.nfrag = 0
		}
	})
}

// CutReport describes the outcome of a batch Cut.
type CutReport struct {
	// TreeRecords are the pre-split records of the deleted edges that were
	// tree edges.
	TreeRecords []eulertour.Record
	// NonTree lists the deleted edges that were not in the forest.
	NonTree []graph.Edge
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
// operations, and component ids are re-assigned per fragment. The fragment
// of every affected vertex is named on the vertex shards for the closing Tell
// that assigns the component ids, and dropped with it. The closing Tell is
// the one step a DynamicConnectivity's Cut leaves to ride the next broadcast;
// Cut sends it before it returns.
func (f *Forest) Cut(edges []graph.Edge) (*CutReport, error) {
	report, err := f.cut(edges, nil)
	f.dropFrags()
	f.flush()
	return report, err
}

// cut is Cut leaving its closing Tell pending (tellFragComps) and the
// vertex->fragment mapping on the vertex shards, together with the keys of
// the fragments declared passive — the largest fragment of every split tour,
// which PlanSplit's fragment lengths name for free (CutReport.PassiveComps) —
// for the sketch aggregations of a replacement search to skip; the caller
// drops both (dropFrags) when the deletion is over. Given first, its
// fragment-min aggregation also carries the replacement search's first
// window (aggregateFragmentMins).
func (f *Forest) cut(edges []graph.Edge, first *firstWindow) (*CutReport, error) {
	if len(edges) == 0 {
		return &CutReport{}, nil
	}
	if len(edges) > f.cfg.MaxBatch() {
		return nil, fmt.Errorf("core: batch of %d exceeds MaxBatch %d", len(edges), f.cfg.MaxBatch())
	}
	f.cache.dropParked()
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
			if f.edgeOwner(e) != mm.ID {
				continue
			}
			if i, ok := es.find(e); ok {
				te := &es.recs[i]
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
		recs := eShard(mm).recs
		last, j, ok := -1, 0, false // searched once per run of one tour
		for i := range recs {
			if t := int(recs[i].rec.Tour); t != last {
				last = t
				j, ok = slices.BinarySearch(want, t)
			}
			if ok {
				counts[j]++
			}
		}
		return countFrames(mpc.AcquireMessageBatch(), 0, want, counts)
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
	fresh := []eulertour.TourID{eulertour.TourID(f.nextID), 0} // [lo, hi)
	plan, err := eulertour.PlanSplit(tourLens, deletedRecs, f.nextTour)
	if err != nil {
		return nil, err
	}
	fresh[1] = eulertour.TourID(f.nextID)
	// Tell the relabels; drop deleted records; apply to survivors; then push
	// fragment membership from edge shards to vertex shards. A split tour
	// belonged to the component its deleted edges' endpoints were labelled
	// with.
	drop := make(map[graph.Edge]bool, len(deletedRecs))
	compOfTour := make(map[eulertour.TourID]int, len(delPerTour))
	for i, r := range deletedRecs {
		drop[r.E] = true
		compOfTour[r.Tour] = labels[2*i]
	}
	passiveOf := passiveFragments(plan.Fragments, compOfTour)
	passive := map[uint64]bool{}
	for _, k := range passiveOf {
		if k != 0 {
			passive[k] = true
		}
	}
	var alone []int
	for _, fr := range plan.Fragments {
		if fr.Tour == eulertour.NoTour {
			alone = append(alone, fr.Root)
		}
	}
	slices.Sort(alone)
	f.applyRelabels(relabelPayload{relabels: plan.Relabels, drop: drop, fresh: fresh, passiveOf: passiveOf, alone: alone, passive: passive})
	f.pushFragments()
	// Assign fragment component ids: min vertex id per fragment.
	compByFrag := f.aggregateFragmentMins(first)
	fragComps := map[int]bool{}
	for _, c := range compByFrag {
		fragComps[c] = true
	}
	report.FragmentComps = slices.Sorted(maps.Keys(fragComps))
	for k := range passive {
		report.PassiveComps = append(report.PassiveComps, compByFrag[k])
	}
	sort.Ints(report.PassiveComps)
	// The label cache follows the closing Tell.
	tourFrags := map[int][]int{}
	for _, fr := range plan.Fragments {
		if fr.Tour != eulertour.NoTour {
			c := compOfTour[fr.OldTour]
			tourFrags[c] = append(tourFrags[c], compByFrag[fragKeyOfTour(fr.Tour)])
		}
	}
	f.cache.split(passiveOf, compByFrag, tourFrags)
	f.tellFragComps(compByFrag)
	return report, nil
}

// passiveFragments names, for the component of every split tour, the key of
// the fragment that sits out the fragment push and the replacement search:
// its longest-tour (largest) fragment, the first in plan order among equals.
// The coordinator reads this off the split plan at no cost. A tour that falls
// apart into single vertices has no passive fragment, key 0 (Len 0 means
// Tour == NoTour: there is no key to name it by, and nothing to save).
func passiveFragments(frags []eulertour.Fragment, compOfTour map[eulertour.TourID]int) map[int]uint64 {
	largest := map[eulertour.TourID]eulertour.Fragment{}
	for _, fr := range frags {
		if cur, ok := largest[fr.OldTour]; !ok || fr.Len > cur.Len {
			largest[fr.OldTour] = fr
		}
	}
	passiveOf := make(map[int]uint64, len(largest))
	for t, fr := range largest {
		passiveOf[compOfTour[t]] = fragKeyOfTour(fr.Tour)
	}
	return passiveOf
}

// pushFragments has edge shards announce, for every record on a fresh tour
// that is not passive, the fragment of its endpoints; vertex shards record
// the mapping, then name the fragment of every affected vertex the push
// missed: its own key if the split left it alone, else its component's
// passive key. So the push costs words in proportion to the small fragments
// of the split, not to the components it splits, and leaves the same column
// a push of every fresh tour would. What it reads is what the preceding
// applyRelabels left on the shards: the edge shards' pairs, collected by the
// relabel walk, so the push walks no records. Each field is dropped by the
// step that reads it. The (vertex, fragment) pairs travel as two-word frames
// of the batched message codec: one packed buffer per (edge shard, vertex
// owner) pair. One round: the vertex shards land the push.
func (f *Forest) pushFragments() {
	f.flush()
	// The round: edge shards emit deduplicated (vertex, frag) pairs.
	f.cl.Step(func(mm *mpc.Machine, inbox []mpc.Message) []mpc.Message {
		es := eShard(mm)
		es.held = 0
		// A vertex sits on one tour, so its pairs are equal: sorted by vertex
		// and deduplicated, they cut into one batch per owner, as a range
		// partition's owner only grows with the vertex.
		slices.SortFunc(es.pairs, func(a, b [2]uint64) int { return cmp.Compare(a[0], b[0]) })
		es.pairs = slices.Compact(es.pairs)
		var out []mpc.Message
		for i := 0; i < len(es.pairs); {
			owner := f.part.Owner(int(es.pairs[i][0]))
			b := mpc.AcquireMessageBatch()
			for ; i < len(es.pairs) && f.part.Owner(int(es.pairs[i][0])) == owner; i++ {
				b.Append(es.pairs[i][0], es.pairs[i][1])
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
		passiveOf, alone := vs.passiveOf, vs.alone
		vs.passiveOf, vs.alone = nil, nil
		for _, msg := range inbox {
			b := msg.Payload.(*mpc.MessageBatch)
			for pr := range b.Frames {
				vs.setFrag(int(pr[0])-vs.lo, pr[1])
			}
			b.Release()
		}
		j, _ := slices.BinarySearch(alone, vs.lo)
		for ; j < len(alone) && alone[j] < vs.hi; j++ {
			vs.setFrag(alone[j]-vs.lo, fragKeyOfVertex(alone[j]))
		}
		// Every other affected vertex the push missed is on its component's
		// passive fragment: a component without one fell apart into vertices
		// the split left alone.
		for i, c := range vs.comp {
			if vs.frag[i] != 0 {
				continue
			}
			if k := passiveOf[c]; k != 0 {
				vs.setFrag(i, k)
			}
		}
	})
}

// aggregateFragmentMins computes min vertex id per fragment key with one
// flat min-merging [fragment, vertex] aggregation. Given first, the same
// frames carry the replacement search's first window: a non-passive
// fragment's is [fragment, vertex, cells...], the window of its vertices'
// sketch sum, which the merge adds up while it takes the min, and the
// coordinator hands first the sums keyed by the fragment's component id.
// The window is keyed by fragment, not by component, because the component
// ids are assigned only by the Tell that closes the Cut.
func (f *Forest) aggregateFragmentMins(first *firstWindow) map[uint64]int {
	f.flush()
	combine := mergeMin
	if first != nil {
		combine = first.merge
	}
	res := f.cl.AggregateBatches(f.coord,
		func(mm *mpc.Machine) *mpc.MessageBatch {
			vs := vShard(mm)
			if vs == nil || vs.nfrag == 0 {
				return nil
			}
			// [key, vertex] pairs sorted by key, then vertex: the first pair of
			// every key holds its minimum vertex. Only the first vertex of a
			// run of one key in vertex order is a candidate, so a large
			// fragment costs the sort its runs, not its vertices.
			mins := vs.mins[:0]
			var prev uint64
			for i, k := range vs.frag {
				if k != 0 && k != prev {
					mins = append(mins, [2]uint64{k, uint64(vs.lo + i)})
					prev = k
				}
			}
			slices.SortFunc(mins, func(a, b [2]uint64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
			vs.mins = slices.CompactFunc(mins, func(a, b [2]uint64) bool { return a[0] == b[0] })
			var sums *sketchcodec.Sums
			if first != nil {
				sums = first.collect(mm, vs)
			}
			b := mpc.AcquireMessageBatch()
			for _, m := range vs.mins {
				if sums == nil || vs.passive[m[0]] {
					b.Append(m[0], m[1])
					continue
				}
				fr := b.Grow(2 + first.win.Words())
				fr[0], fr[1] = m[0], m[1]
				sums.Put(m[0], fr[2:])
			}
			return b
		}, combine)
	out := map[uint64]int{}
	if res == nil {
		return out
	}
	for fr := range res.Frames {
		out[fr[0]] = int(fr[1])
		if len(fr) > 2 {
			first.sums[int(fr[1])] = first.win.View(fr[2:])
		}
	}
	if first != nil {
		first.release = res.Release
	} else {
		res.Release()
	}
	return out
}

// fragCompsPayload is the Tell closing a Cut: the component id of every
// fragment key.
type fragCompsPayload struct{ compByFrag map[uint64]int }

func (p fragCompsPayload) Words() int { return 2 * len(p.compByFrag) }

// tellFragComps assigns comp[v] = compByFrag[frag[v]] on all shards. It
// rides the next broadcast — the replacement search's first label lookup or
// refill, or the replacement Link's Ask, whichever comes first — since
// everything before that reads the coordinator's labels (split) or keys by
// fragment (the first window), not the shards' component ids.
func (f *Forest) tellFragComps(compByFrag map[uint64]int) {
	f.ride(fragCompsPayload{compByFrag: compByFrag}, func(mm *mpc.Machine, payload mpc.Sized) {
		vs := vShard(mm)
		if vs == nil {
			return
		}
		p := payload.(fragCompsPayload)
		for i, k := range vs.frag {
			if k == 0 {
				continue
			}
			if c, ok := p.compByFrag[k]; ok {
				vs.comp[i] = c
			}
		}
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
			recs := eShard(mm).recs
			query := payload.(pathQuery)
			best := make([]graph.WeightedEdge, len(query.pairs))
			found := make([]bool, len(query.pairs))
			for i := range recs {
				te := &recs[i]
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
	f.flush()
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
	f.flush()
	buckets := make([][]graph.WeightedEdge, f.cl.Machines())
	f.cl.LocalAll(func(mm *mpc.Machine) {
		for _, te := range eShard(mm).recs {
			buckets[mm.ID] = append(buckets[mm.ID], graph.WeightedEdge{Edge: te.rec.E, Weight: te.weight})
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
