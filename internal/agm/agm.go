// Package agm implements the Ahn–Guha–McGregor sketch-based streaming
// connectivity algorithm as an MPC baseline (Section 2.1 and 4.1 of the
// paper). It maintains only the vertex sketches — no explicit spanning
// forest — so each update batch costs O(1) rounds, but answering a
// spanning-forest query requires O(log n) Borůvka rounds of distributed
// sketch merging. The paper's contribution (package core) removes exactly
// this query cost; experiment E3 measures the two against each other.
package agm

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/mpc"
	"repro/internal/sketch"
	"repro/internal/sketchcodec"
)

// slotShard is the store slot of a machine's shard.
const slotShard = "agm"

// shard is one machine's vertex range: the vertex sketches (one contiguous
// arena) and the transient query labels.
type shard struct {
	lo, hi int
	n      int
	arena  *sketch.Arena
	labels []int
}

// Words implements mpc.Sized.
func (s *shard) Words() int { return s.arena.Words() + len(s.labels) + 2 }

// Connectivity is the AGM baseline instance.
type Connectivity struct {
	n     int
	cl    *mpc.Cluster
	part  mpc.Partition
	coord int
	space *sketch.Space
}

// Config parameterizes the baseline; it mirrors core.Config.
type Config struct {
	N                  int
	Phi                float64
	SketchCopies       int
	Seed               uint64
	Strict             bool
	VerticesPerMachine int
	// Parallelism is passed through to the cluster's execution engine
	// (see mpc.Config.Parallelism).
	Parallelism int
}

// New creates the baseline for an empty graph on cfg.N vertices.
func New(cfg Config) (*Connectivity, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("agm: N = %d", cfg.N)
	}
	if cfg.Phi <= 0 || cfg.Phi > 1 {
		return nil, fmt.Errorf("agm: Phi = %v", cfg.Phi)
	}
	vpm := cfg.VerticesPerMachine
	if vpm == 0 {
		vpm = ceilPow(cfg.N, cfg.Phi)
	}
	t := cfg.SketchCopies
	if t == 0 {
		t = 2*ceilLog2(cfg.N) + 8
	}
	prg := hash.NewPRG(cfg.Seed)
	space := sketch.NewGraphSpace(cfg.N, t, prg)
	m := (cfg.N+vpm-1)/vpm + 1
	cl := mpc.NewCluster(mpc.Config{
		Machines:    m,
		LocalMemory: vpm * (64 + space.SketchWords()),
		Strict:      cfg.Strict,
		Parallelism: cfg.Parallelism,
	})
	c := &Connectivity{
		n:     cfg.N,
		cl:    cl,
		part:  mpc.Partition{N: cfg.N, Machines: m - 1},
		coord: m - 1,
		space: space,
	}
	cl.LocalAll(func(mm *mpc.Machine) {
		if mm.ID == c.coord {
			return
		}
		lo, hi := c.part.Range(mm.ID)
		sh := &shard{lo: lo, hi: hi, n: cfg.N, arena: space.NewArena(hi - lo)}
		mm.Set(slotShard, sh)
	})
	return c, nil
}

// Cluster exposes the cluster for metering.
func (c *Connectivity) Cluster() *mpc.Cluster { return c.cl }

// batchPayload tells the shards an update batch.
type batchPayload struct{ b graph.Batch }

func (p batchPayload) Words() int { return 3 * len(p.b) }

// ApplyBatch updates the sketches for a batch of insertions and deletions:
// one Tell, O(1) rounds — this is all the AGM baseline does per phase.
func (c *Connectivity) ApplyBatch(b graph.Batch) error {
	c.cl.Tell(c.coord, batchPayload{b: b}, func(mm *mpc.Machine, msg mpc.Sized) {
		sh, ok := mm.Get(slotShard).(*shard)
		if !ok {
			return
		}
		for _, u := range msg.(batchPayload).b {
			e := u.Edge.Canonical()
			for _, v := range []int{e.U, e.V} {
				if v >= sh.lo && v < sh.hi {
					sh.arena.VertexAt(v-sh.lo, sh.n).ApplyEdge(v, e, u.Op)
				}
			}
		}
	})
	return nil
}

// QueryComponents extracts the connected components with the O(log n)-round
// Borůvka of Section 4.1: in each round, supernode sketches are merged by
// label, each supernode samples an outgoing edge from its round-r sketch
// copy, endpoint labels are resolved, and supernodes hook onto minimum
// neighbor labels. It returns the vertex labels (minimum vertex id per
// component) and the number of Borůvka rounds executed.
func (c *Connectivity) QueryComponents() ([]int, int) {
	labels, rounds, _ := c.query(false)
	return labels, rounds
}

// QuerySpanningForest additionally returns the forest edges assembled from
// the hooking edges of every Borůvka level (still O(log n) rounds).
func (c *Connectivity) QuerySpanningForest() ([]int, int, []graph.Edge) {
	return c.query(true)
}

// query runs the Borůvka extraction, optionally collecting forest edges.
func (c *Connectivity) query(wantForest bool) ([]int, int, []graph.Edge) {
	// Initialize labels.
	c.cl.LocalAll(func(mm *mpc.Machine) {
		sh, ok := mm.Get(slotShard).(*shard)
		if !ok {
			return
		}
		sh.labels = make([]int, sh.hi-sh.lo)
		for v := sh.lo; v < sh.hi; v++ {
			sh.labels[v-sh.lo] = v
		}
	})
	rounds := 0
	var forest []graph.Edge
	for r := 0; r < c.space.Copies(); r++ {
		rounds++
		merged, release := c.mergeSupernodeSketches(r)
		// Each supernode samples one outgoing edge with its copy-r sketch.
		hooks := map[int]int{}           // label -> candidate neighbor label
		hookEdge := map[int]graph.Edge{} // label -> the sampled edge used
		var candidates []graph.Edge
		var labelsOfCand []int
		hadFail := false
		for _, lab := range sortedIntKeys(merged) {
			e, res := merged[lab].Query(r)
			switch res {
			case sketch.Found:
				candidates = append(candidates, graph.EdgeFromID(e, c.n))
				labelsOfCand = append(labelsOfCand, lab)
			case sketch.Fail:
				hadFail = true
			}
		}
		release()
		if len(candidates) == 0 {
			if hadFail {
				continue // retry with the next independent copy
			}
			break // every supernode is isolated: done
		}
		// Resolve endpoint labels distributively.
		var endpoints []int
		for _, e := range candidates {
			endpoints = append(endpoints, e.U, e.V)
		}
		lab := c.lookupLabels(endpoints)
		for i, e := range candidates {
			a, b := lab[e.U], lab[e.V]
			self := labelsOfCand[i]
			other := a
			if a == self {
				other = b
			}
			if other == self {
				continue
			}
			if cur, ok := hooks[self]; !ok || other < cur {
				hooks[self] = other
				hookEdge[self] = e
			}
		}
		if len(hooks) == 0 {
			continue
		}
		if wantForest {
			// Two supernodes can hook along the same edge, and hooks can
			// form cycles among labels; emit an edge only when it truly
			// merges two supernodes this round.
			var joined graph.MinUnion
			for _, self := range sortedIntKeys(hooks) {
				if _, _, ok := joined.Union(self, hooks[self]); ok {
					forest = append(forest, hookEdge[self])
				}
			}
		}
		// Contract the hook forest locally at the coordinator (its size is
		// bounded by the number of active supernodes) and tell the shards the
		// label remapping.
		c.cl.Tell(c.coord, contractHooks(hooks), func(mm *mpc.Machine, msg mpc.Sized) {
			sh, ok := mm.Get(slotShard).(*shard)
			if !ok {
				return
			}
			m := msg.(labelMap)
			for i, l := range sh.labels {
				if nl, ok := m[l]; ok {
					sh.labels[i] = nl
				}
			}
		})
	}
	// Read out the labels (driver-level readout of the collective output).
	out := make([]int, c.n)
	c.cl.LocalAll(func(mm *mpc.Machine) {
		sh, ok := mm.Get(slotShard).(*shard)
		if !ok {
			return
		}
		for i, l := range sh.labels {
			out[sh.lo+i] = l
		}
	})
	sort.Slice(forest, func(i, j int) bool {
		if forest[i].U != forest[j].U {
			return forest[i].U < forest[j].U
		}
		return forest[i].V < forest[j].V
	})
	return out, rounds, forest
}

// mergeSupernodeSketches sums copy r of the vertex sketches — the one copy
// Borůvka round r reads — by current label and gathers the per-label sums to
// the coordinator as [label, cells...] frames of the batched message codec,
// valid until release is called. (The volume is bounded by the number of
// active supernodes; the experiments use graphs whose supernode count shrinks
// geometrically, the regime AGM is designed for.)
func (c *Connectivity) mergeSupernodeSketches(r int) (sums map[int]sketch.Sketch, release func()) {
	return sketchcodec.AggregateByLabel(c.cl, c.coord, c.space, r, r+1,
		func(mm *mpc.Machine, add func(label int, sk sketch.Sketch)) {
			sh, ok := mm.Get(slotShard).(*shard)
			if !ok {
				return
			}
			for i, l := range sh.labels {
				add(l, sh.arena.At(i))
			}
		})
}

// lookupLabels resolves current labels for the given vertices: one Ask
// carrying the sorted distinct vertices, answered by each owner in
// [vertex, label] frames.
func (c *Connectivity) lookupLabels(vertices []int) map[int]int {
	q := slices.Clone(vertices)
	slices.Sort(q)
	q = slices.Compact(q)
	res := c.cl.Ask(c.coord, mpc.Ints(q),
		func(mm *mpc.Machine, msg mpc.Sized) *mpc.MessageBatch {
			sh, ok := mm.Get(slotShard).(*shard)
			if !ok {
				return nil
			}
			b := mpc.AcquireMessageBatch()
			for _, v := range msg.(mpc.Ints) {
				if v >= sh.lo && v < sh.hi {
					b.Append(uint64(v), uint64(sh.labels[v-sh.lo]))
				}
			}
			return b
		}, mpc.KeepFirst)
	out := make(map[int]int, len(q))
	if res != nil {
		for fr := range res.Frames {
			out[int(fr[0])] = int(fr[1])
		}
		res.Release()
	}
	return out
}

// labelMap is a label remapping (old label -> new label) told to the shards.
type labelMap map[int]int

// Words implements mpc.Sized.
func (m labelMap) Words() int { return 2 * len(m) }

// contractHooks turns the hook graph (label -> neighbor label) into a full
// remapping onto component-minimum labels.
func contractHooks(hooks map[int]int) labelMap {
	var uf graph.MinUnion
	for a, b := range hooks {
		uf.Union(a, b)
	}
	remap := labelMap{}
	for a, b := range hooks {
		// Identity entries are left out to keep the message minimal.
		if r := uf.Find(a); r != a {
			remap[a] = r
		}
		if r := uf.Find(b); r != b {
			remap[b] = r
		}
	}
	return remap
}

func sortedIntKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func ceilLog2(n int) int {
	l := 0
	for v := 1; v < n; v *= 2 {
		l++
	}
	return l
}

func ceilPow(n int, phi float64) int {
	v := int(math.Ceil(math.Pow(float64(n), phi)))
	if v < 2 {
		v = 2
	}
	return v
}
