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
	// mins is the shard's [fragment, min vertex] pairs sorted by fragment,
	// computed from frag by aggregateFragmentMins: every window of a
	// replacement search lays out its frames in this order. Reused across
	// deletions; like frag, never checkpointed.
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
	// counts is countVertices' scratch, one slot per component asked.
	counts []uint64
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
	// answerLabels and readLabel are the label resolve's answer and decode,
	// and mergeAnswers (over combineFrames) every Ask's combine: built once,
	// so the steady-state query path allocates nothing.
	answerLabels  answerFunc
	readLabel     func(v uint64, frame []uint64)
	combineFrames func(dst, src []uint64)
	mergeAnswers  mpc.BatchCombine
	// pending holds the riders waiting for the forest's next broadcast (see
	// ride) and the questions posed for its next Ask (see pose).
	pending carrier
	// factsTaken, when set, sees what a Link took from its linkFacts instead
	// of asking (a test's check that they are what the Ask would answer).
	factsTaken func(terminals, comps []int, known *linkFacts)
}

// rider is a Tell whose effect nothing reads before the forest's next
// broadcast, so it rides that broadcast instead of paying one of its own.
type rider struct {
	msg   mpc.Sized
	apply func(mm *mpc.Machine, msg mpc.Sized)
}

// A broadcast's question set. An Ask carries one or more questions, each
// tagged by its place in the set: question i answers [i<<tagShift | key, ...]
// frames. Each machine appends every question's frames to one answer batch,
// question by question, so the batch is key-sorted, and one merge-join up the
// tree combines two colliding frames by the rule of the question whose tag
// they carry. Every key a question answers — a vertex, component or edge id,
// below N² — stays below 2^tagShift.
const (
	tagShift = 60
	keyMask  = 1<<tagShift - 1
)

// answerFunc is one question's answer on one machine: it appends the
// machine's frames, their keys or'ed with tag and ascending, to b and returns
// the batch. b is nil while the set's earlier questions have said nothing on
// the machine; the answer then takes a batch of its own (answerBatch), or
// returns nil when it has nothing to say either.
type answerFunc func(mm *mpc.Machine, q mpc.Sized, tag uint64, b *mpc.MessageBatch) *mpc.MessageBatch

// question is one question of a broadcast: its payload, its answer, how a
// frame one machine answered absorbs the src frame another answered for the
// same key (nil keeps the first), and how the coordinator reads each frame of
// the merged answer, handed its key without the tag.
type question struct {
	msg     mpc.Sized
	answer  answerFunc
	combine func(dst, src []uint64)
	read    func(key uint64, frame []uint64)
}

// answerBatch returns b, or, when the set's earlier questions left none, a
// batch of mm's sized for words words.
func answerBatch(mm *mpc.Machine, b *mpc.MessageBatch, words int) *mpc.MessageBatch {
	if b == nil {
		return mm.Batch(words)
	}
	return b
}

// carrier is a broadcast with the pending riders ahead of it: every machine
// applies the riders, in the order they were queued, and then answers the
// broadcast's questions or applies its message. Its words are all of theirs,
// so what the riders tell is counted on the broadcast that carries it.
type carrier struct {
	riders []rider
	qs     []question
	msg    mpc.Sized
	apply  func(mm *mpc.Machine, msg mpc.Sized)
}

// Words implements mpc.Sized.
func (c *carrier) Words() int {
	w := c.riderWords()
	for _, q := range c.qs {
		w += q.msg.Words()
	}
	if c.msg != nil {
		w += c.msg.Words()
	}
	return w
}

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
	clear(c.qs)
	c.qs = c.qs[:0]
	c.msg, c.apply = nil, nil
}

func answerCarried(mm *mpc.Machine, p mpc.Sized) *mpc.MessageBatch {
	c := p.(*carrier)
	c.land(mm)
	var b *mpc.MessageBatch
	for i := range c.qs {
		q := &c.qs[i]
		b = q.answer(mm, q.msg, uint64(i)<<tagShift, b)
	}
	return b
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
	f.answerLabels = func(mm *mpc.Machine, payload mpc.Sized, tag uint64, b *mpc.MessageBatch) *mpc.MessageBatch {
		vs := vShard(mm)
		if vs == nil {
			return b
		}
		q := payload.(*u64Payload).xs
		i := sort.Search(len(q), func(i int) bool { return int(q[i]) >= vs.lo })
		j := sort.Search(len(q), func(j int) bool { return int(q[j]) >= vs.hi })
		b = answerBatch(mm, b, 3*(j-i))
		for ; i < j; i++ {
			b.Append(tag|q[i], uint64(vs.compOf(int(q[i]))))
		}
		return b
	}
	f.readLabel = func(v uint64, fr []uint64) { f.cache.labels[v] = int(fr[1]) }
	f.combineFrames = func(dst, src []uint64) {
		if combine := f.pending.qs[dst[0]>>tagShift].combine; combine != nil {
			combine(dst, src)
		}
	}
	f.mergeAnswers = func(a, b *mpc.MessageBatch) *mpc.MessageBatch {
		return mpc.MergeSortedBatches(a, b, f.combineFrames)
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

// The phases the forest charges its rounds to (mpc.Cluster.Phase): every
// collective names its phase where it is sent, so each round core sends is
// charged to the step of the operation that sent it, the riders a broadcast
// carries included.
const (
	phaseQueryLabels  = "query/labels"
	phaseQueryComps   = "query/num-comps"
	phaseLinkLabels   = "link/labels"
	phaseLinkStats    = "link/stats"
	phaseLinkMinAbove = "link/min-above"
	phaseLinkRelabel  = "link/relabel"
	phaseCutLookup    = "cut/lookup"
	phaseCutRelabel   = "cut/relabel"
	phaseCutPush      = "cut/push"
	phaseCutFragMins  = "cut/fragment-mins"
	phaseSearchLookup = "search/lookup"
	phaseSearchRefill = "search/refill"
	phasePathStats    = "path/stats"
	phasePathHeaviest = "path/heaviest"
	phaseFlush        = "flush"
)

// ask and tell are the forest's two conversations with the shards, both from
// the coordinator (mpc.Cluster.Ask, mpc.Cluster.TellParts), each charged to
// the phase it names: the payload is handed to the callback and is gone from
// every store when the call returns. Both send through the carrier, so every
// broadcast the forest makes has one shape: the pending riders, if any, which
// every machine applies first, then the payload.
//
// ask sends the questions posed so far (pose) and qs as one question set and
// hands every frame of the merged answer to the read of its question.
func (f *Forest) ask(phase string, qs ...question) {
	f.cl.Phase(phase)
	c := &f.pending
	c.qs = append(c.qs, qs...)
	if len(c.qs) > 1<<(64-tagShift) {
		panic(fmt.Sprintf("core: %d questions in one broadcast", len(c.qs)))
	}
	if res := f.cl.Ask(f.coord, c, answerCarried, f.mergeAnswers); res != nil {
		for fr := range res.Frames {
			c.qs[fr[0]>>tagShift].read(fr[0]&keyMask, fr)
		}
		res.Release()
	}
	c.reset()
}

// pose queues a question for the forest's next ask.
func (f *Forest) pose(q question) { f.pending.qs = append(f.pending.qs, q) }

// tell broadcasts msg for apply, and sends records, each a recordsPayload
// for its edgeOwner, in the broadcast's first round: every edge shard lands
// its records after apply has run, so apply never sees one.
func (f *Forest) tell(phase string, msg mpc.Sized, apply func(mm *mpc.Machine, msg mpc.Sized), records ...mpc.Message) {
	c := &f.pending
	c.msg, c.apply = msg, apply
	f.cl.Phase(phase)
	f.cl.TellParts(f.coord, c, records, applyCarried, landRecords)
	c.reset()
}

func landRecords(mm *mpc.Machine, p mpc.Sized) { eShard(mm).land(p.(recordsPayload).records) }

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
		f.tell(phaseFlush, noWords, func(*mpc.Machine, mpc.Sized) {})
	default:
		f.cl.LocalAll(c.land)
		c.reset()
	}
}

// The frame combines below (minValue, widenStats, sumCount, heavierFrame)
// and the aggregations' combines (mpc.KeepFirst, mpc.SumValues, mergeMin)
// are all merge-joins over key-sorted [k, ...] frames into a fresh batch from
// the cluster's free list, sized for both operands (no operand is mutated in
// place, so no two batches share a buffer), and all are commutative per key,
// so the deterministic sender-order fold of the tree yields the same frames
// at every parallelism.

// minValue keeps the smaller value word of colliding [k, v] frames.
func minValue(dst, src []uint64) { dst[1] = min(dst[1], src[1]) }

// mergeMin is minValue's aggregation combine.
var mergeMin = func(a, b *mpc.MessageBatch) *mpc.MessageBatch {
	return mpc.MergeSortedBatches(a, b, minValue)
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

// poseMisses poses the cache-fill question for the miss list staged in the
// cache (the sorted misses, answered with [vertex, comp] frames decoded into
// the cache) and reports whether it did: not when the list is empty.
func (f *Forest) poseMisses() bool {
	lc := &f.cache
	if len(lc.miss) == 0 {
		return false
	}
	sort.Ints(lc.miss)
	q := lc.query.xs[:0]
	for _, v := range lc.miss {
		q = append(q, uint64(v))
	}
	lc.query.xs = q
	f.pose(question{msg: &lc.query, answer: f.answerLabels, read: f.readLabel})
	return true
}

// collectNumComps emits one [0, heads] frame per vertex machine: with the
// minimum-id convention, a vertex heads a component iff comp[v] == v.
func collectNumComps(mm *mpc.Machine) *mpc.MessageBatch {
	vs := vShard(mm)
	if vs == nil {
		return nil
	}
	b := mm.Batch(3)
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
	f.cl.Phase(phaseQueryComps)
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

// statsQuestion asks the occurrence statistics (tour, f, l) of vertices,
// sorted and distinct: the edge shards scan their records and answer [v,
// tour, f, l] frames, merged to the smallest f and the largest l. Every
// listed vertex gets an entry in stats, Tour == NoTour until its frame is
// read: a singleton has no record.
func statsQuestion(vertices []int, stats map[int]eulertour.VertexStats) question {
	for _, v := range vertices {
		stats[v] = eulertour.VertexStats{Tour: eulertour.NoTour}
	}
	return question{msg: mpc.Ints(vertices), answer: occurrenceFrames, combine: widenStats,
		read: func(v uint64, fr []uint64) {
			stats[int(v)] = eulertour.VertexStats{Tour: eulertour.TourID(fr[1]), F: eulertour.Pos(fr[2]), L: eulertour.Pos(fr[3])}
		}}
}

// widenStats combines colliding [v, tour, f, l] frames: same tour, min f,
// max l.
func widenStats(dst, src []uint64) {
	dst[2] = min(dst[2], src[2])
	dst[3] = max(dst[3], src[3])
}

// occurrenceFrames answers statsQuestion on one machine: its edge shard's
// records, scanned once.
func occurrenceFrames(mm *mpc.Machine, payload mpc.Sized, tag uint64, b *mpc.MessageBatch) *mpc.MessageBatch {
	query := payload.(mpc.Ints)
	// Accumulate per query slot (query is sorted, so the emitted frames are
	// key-sorted for free). A slot's F is 0 until a record names its vertex:
	// positions start at 1.
	es := eShard(mm)
	stats := slices.Grow(es.stats[:0], len(query))[:len(query)]
	clear(stats)
	es.stats = stats
	found := 0
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
				found++
				continue
			}
			st.F = min(st.F, ps[0])
			st.L = max(st.L, ps[1])
		}
	}
	b = answerBatch(mm, b, 5*found)
	for j, st := range stats {
		if st.F != 0 {
			b.Append(tag|uint64(query[j]), uint64(st.Tour), uint64(st.F), uint64(st.L))
		}
	}
	return b
}

// sizesQuestion asks the vertex count of every listed component, sorted and
// distinct: each vertex shard counts its vertices of each, and the counts
// are summed up the tree into sizes.
func sizesQuestion(comps []int, sizes map[int]int) question {
	return question{msg: mpc.Ints(comps), answer: countVertices, combine: sumCount,
		read: func(c uint64, fr []uint64) { sizes[int(c)] = int(fr[1]) }}
}

// sumCount adds the counts of colliding [k, count] frames.
func sumCount(dst, src []uint64) { dst[1] += src[1] }

// countVertices answers sizesQuestion on one machine.
func countVertices(mm *mpc.Machine, payload mpc.Sized, tag uint64, b *mpc.MessageBatch) *mpc.MessageBatch {
	comps := payload.(mpc.Ints)
	vs := vShard(mm)
	if vs == nil || len(comps) == 0 {
		return b
	}
	counts := slices.Grow(vs.counts[:0], len(comps))[:len(comps)]
	clear(counts)
	vs.counts = counts
	for _, c := range vs.comp {
		if j, ok := slices.BinarySearch(comps, c); ok {
			counts[j]++
		}
	}
	b = answerBatch(mm, b, 3*len(comps))
	for j, n := range counts {
		if n > 0 {
			b.Append(tag|uint64(comps[j]), n)
		}
	}
	return b
}

// sortedSet returns the distinct members of xs, ascending, in a fresh slice.
func sortedSet(xs []int) []int {
	out := slices.Clone(xs)
	slices.Sort(out)
	return slices.Compact(out)
}

// Stats resolves occurrence statistics (tour, f, l) for the given vertices
// with one Ask (statsQuestion, O(1/φ) rounds), charged to the phase of the
// path queries that ask it (HeaviestSeparating). Singleton vertices come back
// with Tour == NoTour.
func (f *Forest) Stats(vertices []int) map[int]eulertour.VertexStats {
	stats, _ := f.statsAndSizes(phasePathStats, vertices, nil)
	return stats
}

// statsAndSizes is Stats plus, in the same Ask, the vertex count of every
// listed component (sorted and distinct): what a Link asks before it plans.
func (f *Forest) statsAndSizes(phase string, vertices, comps []int) (map[int]eulertour.VertexStats, map[int]int) {
	q := sortedSet(vertices)
	stats := make(map[int]eulertour.VertexStats, len(q))
	sizes := make(map[int]int, len(comps))
	f.ask(phase, statsQuestion(q, stats), sizesQuestion(comps, sizes))
	return stats, sizes
}

// cutQueryPayload is the question of the stage-2 join query.
type cutQueryPayload struct{ qs []eulertour.CutQuery }

func (q cutQueryPayload) Words() int { return 2 * len(q.qs) }

// minAbove resolves, for each query, the smallest occurrence of the vertex
// strictly above the cut (0 when none), with an Ask only when there is a
// query: the planner asks only what its stats do not answer. Queries are
// asked sorted by vertex so each machine's [vertex, pos] partials come out
// key-sorted; the tree min-merges them (frames are emitted only when an
// occurrence was found, so every value word is positive).
func (f *Forest) minAbove(qs []eulertour.CutQuery) map[int]eulertour.Pos {
	out := make(map[int]eulertour.Pos, len(qs))
	if len(qs) == 0 {
		return out
	}
	sorted := make([]eulertour.CutQuery, len(qs))
	copy(sorted, qs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Vertex < sorted[j].Vertex })
	for _, q := range qs {
		out[q.Vertex] = 0 // "no occurrence above the cut" is a valid answer
	}
	f.ask(phaseLinkMinAbove, question{msg: cutQueryPayload{qs: sorted}, answer: firstAboveFrames, combine: minValue,
		read: func(v uint64, fr []uint64) { out[int(v)] = eulertour.Pos(fr[1]) }})
	return out
}

// firstAboveFrames answers minAbove's question on one machine.
func firstAboveFrames(mm *mpc.Machine, payload mpc.Sized, tag uint64, b *mpc.MessageBatch) *mpc.MessageBatch {
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
	b = answerBatch(mm, b, 3*len(queries))
	// Queries sharing a vertex fold into one frame (min), keeping the batch
	// strictly key-sorted for the merge-join.
	for j := 0; j < len(queries); {
		p := best[j]
		k := j + 1
		for ; k < len(queries) && queries[k].Vertex == queries[j].Vertex; k++ {
			if best[k] != 0 && (p == 0 || best[k] < p) {
				p = best[k]
			}
		}
		if p != 0 {
			b.Append(tag|uint64(queries[j].Vertex), uint64(p))
		}
		j = k
	}
	return b
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
// weighted forests. It costs a label Ask when an endpoint's label is not
// cached, one Ask for the endpoints' occurrence stats and their components'
// sizes (statsQuestion, sizesQuestion), a rotation Ask only when the plan
// rotates a tour at an attach terminal and another edge attaches at one of
// that terminal's ancestors, whose stats straddle the rotation's cut and so
// do not place the attachment (eulertour.JoinPlanner.CutQueries), and the
// relabel Tell, whose first round also carries the new records to their
// edge shards: 3 to 7 rounds at depth 1.
func (f *Forest) Link(edges []graph.WeightedEdge) error { return f.link(edges, nil) }

// linkFacts is what a replacement Link would ask, known before it: the
// occurrence stats of the vertices the search's level lookups asked about and
// the size of every fragment its Cut made (CutReport.FragmentSizes). Nothing
// moves a record or a position between those lookups and the Link — the
// Cut's closing Tell rewrites vertex-shard component ids only, a refill's
// Tell nothing — so they are what the Link's Ask would answer.
type linkFacts struct {
	stats map[int]eulertour.VertexStats
	sizes map[int]int
}

// covers reports whether k knows the stats of every terminal and the size of
// every component in comps; when it does not, the Link asks.
func (k *linkFacts) covers(terminals, comps []int) bool {
	if k == nil {
		return false
	}
	for _, v := range terminals {
		if _, ok := k.stats[v]; !ok {
			return false
		}
	}
	for _, c := range comps {
		if _, ok := k.sizes[c]; !ok {
			return false
		}
	}
	return true
}

// link is Link given what it may take instead of its stats Ask (known, nil
// for none): a replacement Link whose facts cover its terminals and their
// components sends only the relabel Tell, with its records, and a rotation
// Ask when it needs one.
func (f *Forest) link(edges []graph.WeightedEdge, known *linkFacts) error {
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
	labels, _ := f.labelsInto(phaseLinkLabels, nil, terminals)
	comps := sortedSet(labels)
	var stats map[int]eulertour.VertexStats
	var sizes map[int]int
	if known.covers(terminals, comps) {
		stats, sizes = known.stats, known.sizes
		if f.factsTaken != nil {
			f.factsTaken(terminals, comps, known)
		}
	} else {
		stats, sizes = f.statsAndSizes(phaseLinkStats, terminals, comps)
	}

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
	// The new records ride the relabel Tell to their shard owners, one part
	// per owner, and land after the relabel walk.
	byOwner := map[int][]treeEdge{}
	for _, r := range res.NewRecords {
		o := f.edgeOwner(r.E)
		byOwner[o] = append(byOwner[o], treeEdge{rec: r, weight: weightOf[r.E]})
	}
	records := make([]mpc.Message, 0, len(byOwner))
	for _, o := range slices.Sorted(maps.Keys(byOwner)) {
		records = append(records, mpc.Message{To: o, Payload: recordsPayload{records: byOwner[o]}})
	}
	f.applyRelabels(phaseLinkRelabel, relabelPayload{relabels: res.Relabels, compMap: compMap}, records...)
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
// replacement search; its component ids change only at tellFragComps. A
// Link's new records ride the Tell (Forest.tell) and land after the walk.
func (f *Forest) applyRelabels(phase string, payload relabelPayload, records ...mpc.Message) {
	if len(payload.compMap) > 0 {
		f.cache.relink(payload.compMap)
	}
	payload.set = eulertour.NewRelabelSet(payload.relabels)
	f.tell(phase, payload, func(mm *mpc.Machine, msg mpc.Sized) {
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
	}, records...)
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
	// FragmentSizes is the vertex count of every fragment, keyed by its
	// component id: Len/4 + 1 for a fragment with a tour of Len positions,
	// 1 for a lone vertex. Read off the split plan, it is what a count of the
	// fragment's vertices would answer.
	FragmentSizes map[int]int
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
// Cut sends it before it returns. Rounds at depth 1: the record lookup's Ask
// 2 (a second Ask, 2 more, only when a deleted tree edge had both endpoints
// cold), the relabel Tell 1, the fragment push 1, the fragment-min
// aggregation 1 and the closing Tell 1.
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
//
// The record lookup is the Cut's one Ask: it asks the tree records among
// the deletions, the labels of their cold endpoints and the sizes of their
// warm endpoints' components, since the deletions that are tree edges are
// known only from its answer. A split tour's length is then 4(s − 1), s its
// component's size; only a tree edge whose endpoints were both cold leaves
// its component unsized, and a sizes Ask follows. The cache is stamped for
// the tree edges' endpoints alone, as a label Ask of those would stamp it.
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
	// One Ask finds what the split needs: the tree records among the
	// deletions, the labels of their cold endpoints and the sizes of the
	// components of their warm ones. A tour holds 4 positions per tree edge
	// and a component of s vertices has s − 1 of them, so a split tour's
	// length is 4(s − 1).
	lc := &f.cache
	var cold, warmComps []int
	for _, e := range canon {
		for _, v := range [2]int{e.U, e.V} {
			switch c := lc.labels[v]; {
			case lc.stamp[v] != lc.epoch:
				cold = append(cold, v)
			case len(warmComps) == 0 || warmComps[len(warmComps)-1] != c:
				warmComps = append(warmComps, c)
			}
		}
	}
	deletedByEdge := map[graph.Edge]treeEdge{}
	f.pose(f.recordsQuestion(canon, deletedByEdge))
	var coldLabels map[int]int
	if len(cold) > 0 {
		q := &u64Payload{}
		for _, v := range sortedSet(cold) {
			q.xs = append(q.xs, uint64(v))
		}
		coldLabels = make(map[int]int, len(q.xs))
		f.pose(question{msg: q, answer: f.answerLabels, read: func(v uint64, fr []uint64) { coldLabels[int(v)] = int(fr[1]) }})
	}
	slices.Sort(warmComps)
	sizes := map[int]int{}
	f.ask(phaseCutLookup, sizesQuestion(slices.Compact(warmComps), sizes))
	report := &CutReport{}
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
	// Affected components: the components of the deleted tree edges. The
	// cache takes the labels of their cold endpoints, as a label Ask of
	// those endpoints would have stamped them.
	labels := make([]int, 0, 2*len(deletedRecs))
	var unsized []int
	for _, r := range deletedRecs {
		for _, v := range [2]int{r.E.U, r.E.V} {
			if lc.stamp[v] != lc.epoch {
				lc.stamp[v] = lc.epoch
				lc.valid++
				lc.labels[v] = coldLabels[v]
			}
			labels = append(labels, lc.labels[v])
		}
		if _, ok := sizes[labels[len(labels)-1]]; !ok {
			unsized = append(unsized, labels[len(labels)-1])
		}
	}
	// A tree edge both of whose endpoints were cold names its component only
	// in the answer: its size takes an Ask of its own.
	if len(unsized) > 0 {
		f.ask(phaseCutLookup, sizesQuestion(sortedSet(unsized), sizes))
	}
	tourLens := make(map[eulertour.TourID]int, len(deletedRecs))
	for i, r := range deletedRecs {
		tourLens[r.Tour] = 4 * (sizes[labels[2*i]] - 1)
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
	compOfTour := make(map[eulertour.TourID]int, len(tourLens))
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
	f.applyRelabels(phaseCutRelabel, relabelPayload{relabels: plan.Relabels, drop: drop, fresh: fresh, passiveOf: passiveOf, alone: alone, passive: passive})
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
	report.FragmentSizes = make(map[int]int, len(plan.Fragments))
	for _, fr := range plan.Fragments {
		if fr.Tour == eulertour.NoTour {
			report.FragmentSizes[compByFrag[fragKeyOfVertex(fr.Root)]] = 1
		} else {
			report.FragmentSizes[compByFrag[fragKeyOfTour(fr.Tour)]] = fr.Len/4 + 1
		}
	}
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

// recordsQuestion asks the records of the listed edges that are tree edges,
// into found. The question travels sorted by edge id so each shard's found
// records come out as key-sorted [eid, tour, up0, up1, vp0, vp1, weight]
// frames; an edge lives on exactly one shard, its edgeOwner, the one shard
// that looks it up, so the merge-join never combines.
func (f *Forest) recordsQuestion(edges []graph.Edge, found map[graph.Edge]treeEdge) question {
	n := f.cfg.N
	byID := slices.Clone(edges)
	slices.SortFunc(byID, func(a, b graph.Edge) int { return cmp.Compare(a.ID(n), b.ID(n)) })
	return question{msg: edgeListPayload{edges: byID},
		answer: func(mm *mpc.Machine, payload mpc.Sized, tag uint64, b *mpc.MessageBatch) *mpc.MessageBatch {
			es := eShard(mm)
			b = answerBatch(mm, b, 0)
			for _, e := range payload.(edgeListPayload).edges {
				if f.edgeOwner(e) != mm.ID {
					continue
				}
				if i, ok := es.find(e); ok {
					te := &es.recs[i]
					fr := b.Grow(7)
					fr[0] = tag | e.ID(n)
					fr[1] = uint64(te.rec.Tour)
					fr[2], fr[3] = uint64(te.rec.UPos[0]), uint64(te.rec.UPos[1])
					fr[4], fr[5] = uint64(te.rec.VPos[0]), uint64(te.rec.VPos[1])
					fr[6] = uint64(te.weight)
				}
			}
			return b
		},
		read: func(id uint64, fr []uint64) {
			e := graph.EdgeFromID(id, n)
			found[e] = treeEdge{
				rec: eulertour.Record{
					E:    e,
					Tour: eulertour.TourID(fr[1]),
					UPos: [2]eulertour.Pos{eulertour.Pos(fr[2]), eulertour.Pos(fr[3])},
					VPos: [2]eulertour.Pos{eulertour.Pos(fr[4]), eulertour.Pos(fr[5])},
				},
				weight: int64(fr[6]),
			}
		}}
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
	f.cl.Phase(phaseCutPush)
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
			j := i + 1
			for j < len(es.pairs) && f.part.Owner(int(es.pairs[j][0])) == owner {
				j++
			}
			b := mm.Batch(3 * (j - i))
			for ; i < j; i++ {
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
// frames carry the replacement search's first window: sumActive lays a
// non-passive fragment's frame out as [fragment, vertex, cells...] and sums
// the window of its vertices' sketches into the cells, which the merge adds
// up while it takes the min. The coordinator hands first the sums, keyed by
// the fragment's component id, and the component id of every fragment, by
// which a refill names its sums. The frames are keyed by fragment, not by
// component, because the component ids are assigned only by the Tell that
// closes the Cut.
func (f *Forest) aggregateFragmentMins(first *firstWindow) map[uint64]int {
	f.flush()
	f.cl.Phase(phaseCutFragMins)
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
			if first != nil {
				return sumActive(mm, vs, first.win, 2, first.search)
			}
			b := mm.Batch(3 * len(vs.mins))
			for _, m := range vs.mins {
				b.Append(m[0], m[1])
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
		first.comps, first.release = out, res.Release
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
// fragment (every window of the search), not the shards' component ids.
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

// TourTerminals is one tour's part of a HeaviestSeparating question: the
// tour and the first occurrences of its terminals, ascending.
type TourTerminals struct {
	Tour eulertour.TourID
	F    []eulertour.Pos
}

// Terminals orders the vertices of stats that lie on a tree as
// HeaviestSeparating indexes them — by tour in id order, each tour's by
// first occurrence — and returns them with the tours to ask about.
func Terminals(stats map[int]eulertour.VertexStats) ([]int, []TourTerminals) {
	var terms []int
	for v, st := range stats {
		if st.Tour != eulertour.NoTour {
			terms = append(terms, v)
		}
	}
	slices.SortFunc(terms, func(a, b int) int {
		return cmp.Or(cmp.Compare(stats[a].Tour, stats[b].Tour), cmp.Compare(stats[a].F, stats[b].F))
	})
	var tours []TourTerminals
	for _, v := range terms {
		if j := len(tours) - 1; j < 0 || tours[j].Tour != stats[v].Tour {
			tours = append(tours, TourTerminals{Tour: stats[v].Tour})
		}
		tours[len(tours)-1].F = append(tours[len(tours)-1].F, stats[v].F)
	}
	return terms, tours
}

// separatingQuery is HeaviestSeparating's question: the tours, where each
// tour's terminals start in the concatenated index (base) and the total T.
// index finds a tour's place; it is derived from the tours, shared read-only
// by every machine, and not metered.
type separatingQuery struct {
	tours []TourTerminals
	base  []int
	total int
	index map[eulertour.TourID]int
}

func (q separatingQuery) Words() int { return q.total + 2*len(q.tours) }

// HeaviestSeparating answers, in one Ask, the heaviest tree edge of every
// run of terminals (Section 7.1's Identify-Path, asked of the terminals'
// virtual tree at once). The terminals of each tour are indexed in the
// order of their first occurrences, and the tours are concatenated. A tree
// edge's child subtree holds exactly the terminals whose first occurrence
// lies in the child's interval, a run [lo, hi) of its tour's indices, and
// the edge separates its tour's terminals when the run holds some of them
// but not all. The separating edges of one run form the tree path of one
// edge of the virtual tree, so the answer, keyed by [lo, hi), names that
// edge's heaviest tree edge (canonical tie-break, heavier). Runs are nested
// or disjoint. A tour of one terminal has no separating edge, so when no
// tour holds two the answer is empty and nothing is asked.
func (f *Forest) HeaviestSeparating(tours []TourTerminals) map[[2]int]graph.WeightedEdge {
	q := separatingQuery{tours: tours, base: make([]int, len(tours)), index: make(map[eulertour.TourID]int, len(tours))}
	for i, t := range tours {
		q.base[i], q.index[t.Tour] = q.total, i
		q.total += len(t.F)
	}
	out := map[[2]int]graph.WeightedEdge{}
	if q.total == len(tours) {
		return out
	}
	span := uint64(q.total + 1)
	f.ask(phasePathHeaviest, question{msg: q, answer: separatingFrames, combine: heavierFrame,
		read: func(run uint64, fr []uint64) {
			out[[2]int{int(run / span), int(run % span)}] = graph.WeightedEdge{Edge: graph.Edge{U: int(fr[2]), V: int(fr[3])}, Weight: int64(fr[1])}
		}})
	return out
}

// separatingFrames answers HeaviestSeparating's question on one machine: the
// heaviest record of its edge shard per run, as [lo·(T+1)+hi, weight, u, v]
// frames, key-sorted for the merge-join.
func separatingFrames(mm *mpc.Machine, payload mpc.Sized, tag uint64, b *mpc.MessageBatch) *mpc.MessageBatch {
	q := payload.(separatingQuery)
	best := map[uint64]graph.WeightedEdge{}
	recs := eShard(mm).recs
	for j := range recs {
		te := &recs[j]
		i, ok := q.index[te.rec.Tour]
		if !ok {
			continue
		}
		fs := q.tours[i].F
		lo, _ := slices.BinarySearch(fs, te.rec.ChildF())
		hi, _ := slices.BinarySearch(fs, te.rec.ChildL()+1)
		if lo == hi || hi-lo == len(fs) {
			continue
		}
		run := uint64(q.base[i]+lo)*uint64(q.total+1) + uint64(q.base[i]+hi)
		cand := graph.WeightedEdge{Edge: te.rec.E, Weight: te.weight}
		if cur, ok := best[run]; !ok || heavier(cand, cur) {
			best[run] = cand
		}
	}
	if len(best) == 0 {
		return b
	}
	b = answerBatch(mm, b, 5*len(best))
	for _, run := range slices.Sorted(maps.Keys(best)) {
		e := best[run]
		b.Append(tag|run, uint64(e.Weight), uint64(e.U), uint64(e.V))
	}
	return b
}

// heavierFrame keeps the heavier candidate of colliding [key, weight, u, v]
// frames, with the same canonical tie-break as heavier.
func heavierFrame(dst, src []uint64) {
	d := graph.WeightedEdge{Edge: graph.Edge{U: int(dst[2]), V: int(dst[3])}, Weight: int64(dst[1])}
	s := graph.WeightedEdge{Edge: graph.Edge{U: int(src[2]), V: int(src[3])}, Weight: int64(src[1])}
	if heavier(s, d) {
		copy(dst[1:], src[1:])
	}
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
