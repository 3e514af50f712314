// Package nowickionak implements a batch-dynamic maximal matching in the
// MPC model, the black-box substrate of the paper's dynamic matching
// results (Proposition 8.4, after Nowicki and Onak, SODA 2021). It
// maintains a maximal matching — hence a 2-approximate maximum matching —
// of a dynamically evolving graph under batches of edge insertions and
// deletions, using total memory proportional to the graph size and a
// constant number of collective rounds per batch plus a conflict-retry loop
// for re-matching vertices freed by deletions.
//
// The original algorithm's round bound is O(log 1/κ) for batches of size
// s^{1-κ}; this implementation uses a propose/accept/confirm protocol whose
// iteration count is the number of conflict rounds (measured and reported
// by the experiments, and small in practice). Maximality of the result is
// exact and is what Theorem 8.2/8.6 consume.
//
// A Matcher takes a core.Config and is placed by its rule
// (core.Config.NewFleet): contiguous vertex ranges of VerticesPerMachine
// vertices, 128 words each, on all machines but the last, the coordinator;
// it runs at the shape's Parallelism, and a session resizes it like every
// other state.
package nowickionak

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mpc"
)

// Store slots.
const (
	slotShard = "no"
	slotSize  = "sc" // coordinator size-cache meter (sizeMeter)
)

// sizeMeter folds the coordinator's cached matching-size readout into the
// MPC memory ledger (one word while the cache is valid), mirroring the
// label-cache metering of package core.
type sizeMeter struct{ ok *bool }

// Words implements mpc.Sized.
func (s sizeMeter) Words() int {
	if *s.ok {
		return 1
	}
	return 0
}

// shard is one machine's vertex range: adjacency lists (every edge stored
// with both endpoints, with multiplicity — the sparsifiers of Section 8 can
// contribute the same edge through several samplers) and match pointers.
type shard struct {
	lo, hi int
	adj    []map[int]int // neighbor -> multiplicity
	match  []int         // partner vertex or -1
	words  int
	// proposing holds, between the Tell that opens a rematch round and the
	// step that sends the proposals, the owned pending vertices still free.
	proposing []int
}

// Words implements mpc.Sized.
func (s *shard) Words() int { return s.words + 2*(s.hi-s.lo) + len(s.proposing) + 2 }

func (s *shard) owns(v int) bool { return v >= s.lo && v < s.hi }

// Matcher maintains the maximal matching.
type Matcher struct {
	n     int
	cl    *mpc.Cluster
	part  mpc.Partition
	coord int
	// retryRounds counts conflict-retry iterations across all batches.
	retryRounds int
	// size caches the matching size between updates (valid iff sizeOK), so
	// repeated Size readouts cost zero rounds.
	size   int
	sizeOK bool
}

// vertexWords is a vertex bundle of the matcher: its match pointer and room
// for its adjacency multiset.
const vertexWords = 128

// New creates a matcher for an empty graph on cfg.N vertices, placed by the
// shape rule of core.Config.
func New(cfg core.Config) (*Matcher, error) {
	fl, err := cfg.NewFleet(vertexWords)
	if err != nil {
		return nil, err
	}
	cl := fl.Cluster
	m := &Matcher{
		n:     cfg.N,
		cl:    cl,
		part:  fl.Part,
		coord: fl.Coord,
	}
	cl.LocalAll(func(mm *mpc.Machine) {
		if mm.ID == m.coord {
			return
		}
		lo, hi := m.part.Range(mm.ID)
		sh := &shard{lo: lo, hi: hi}
		sh.adj = make([]map[int]int, hi-lo)
		sh.match = make([]int, hi-lo)
		for i := range sh.adj {
			sh.adj[i] = map[int]int{}
			sh.match[i] = -1
		}
		mm.Set(slotShard, sh)
	})
	cl.Machine(m.coord).Set(slotSize, sizeMeter{&m.sizeOK})
	return m, nil
}

// Cluster exposes the cluster for metering.
func (m *Matcher) Cluster() *mpc.Cluster { return m.cl }

// Clusters returns the one cluster the matcher runs on.
func (m *Matcher) Clusters() []*mpc.Cluster { return []*mpc.Cluster{m.cl} }

func getShard(mm *mpc.Machine) *shard {
	s, _ := mm.Get(slotShard).(*shard)
	return s
}

// ApplyBatch applies a batch of updates and restores maximality.
func (m *Matcher) ApplyBatch(b graph.Batch) error {
	if len(b) == 0 {
		return nil
	}
	m.sizeOK = false
	// Phase 1: one Ask carries the batch; shards update adjacency
	// multiplicities and answer which deleted edges vanished entirely.
	vanished := m.applyAndReportVanished(b)
	status := m.matchStatus(batchEndpoints(b))
	// Phase 2 (coordinator-local): unmatch deleted matched edges; greedily
	// match inserted edges among free endpoints.
	free := map[int]bool{}
	var unmatch []graph.Edge
	for _, u := range b {
		if u.Op != graph.Delete {
			continue
		}
		e := u.Edge.Canonical()
		if status[e.U] == e.V && vanished[e] {
			unmatch = append(unmatch, e)
			status[e.U], status[e.V] = -1, -1
			free[e.U], free[e.V] = true, true
		}
	}
	var newMatches []graph.Edge
	for _, u := range b {
		if u.Op != graph.Insert {
			continue
		}
		e := u.Edge.Canonical()
		if status[e.U] == -1 && status[e.V] == -1 {
			newMatches = append(newMatches, e)
			status[e.U], status[e.V] = e.V, e.U
			delete(free, e.U)
			delete(free, e.V)
		}
	}
	m.applyMatchChanges(unmatch, newMatches)
	// Phase 3: re-match freed vertices against the existing graph.
	freed := make([]int, 0, len(free))
	for v := range free {
		freed = append(freed, v)
	}
	sort.Ints(freed)
	return m.rematch(freed)
}

// applyAndReportVanished asks every shard to apply the batch to its adjacency
// lists and then to answer, as the owner of the smaller endpoint, with one
// [edge id] frame per deleted batch edge whose multiplicity is now zero.
func (m *Matcher) applyAndReportVanished(b graph.Batch) map[graph.Edge]bool {
	res := m.cl.Ask(m.coord, b, func(mm *mpc.Machine, msg mpc.Sized) *mpc.MessageBatch {
		sh := getShard(mm)
		if sh == nil {
			return nil
		}
		batch := msg.(graph.Batch)
		for _, u := range batch {
			e := u.Edge.Canonical()
			for _, v := range []int{e.U, e.V} {
				if !sh.owns(v) {
					continue
				}
				o := e.Other(v)
				if u.Op == graph.Insert {
					if sh.adj[v-sh.lo][o] == 0 {
						sh.words += 2
					}
					sh.adj[v-sh.lo][o]++
				} else if sh.adj[v-sh.lo][o] > 0 {
					sh.adj[v-sh.lo][o]--
					if sh.adj[v-sh.lo][o] == 0 {
						delete(sh.adj[v-sh.lo], o)
						sh.words -= 2
					}
				}
			}
		}
		var gone []uint64
		for _, u := range batch {
			e := u.Edge.Canonical()
			if u.Op == graph.Delete && sh.owns(e.U) && sh.adj[e.U-sh.lo][e.V] == 0 {
				gone = append(gone, e.ID(m.n))
			}
		}
		slices.Sort(gone)
		gone = slices.Compact(gone)
		out := mm.Batch(2 * len(gone))
		for _, id := range gone {
			out.Append(id)
		}
		return out
	}, mpc.KeepFirst)
	out := map[graph.Edge]bool{}
	if res != nil {
		for fr := range res.Frames {
			out[graph.EdgeFromID(fr[0], m.n)] = true
		}
		res.Release()
	}
	return out
}

func batchEndpoints(b graph.Batch) []int {
	var out []int
	for _, u := range b {
		out = append(out, u.Edge.U, u.Edge.V)
	}
	return out
}

// matchStatus resolves the current partner (-1 if free) of each vertex: one
// Ask carrying the sorted distinct vertices, answered by each owner in
// [vertex, partner] frames.
func (m *Matcher) matchStatus(vertices []int) map[int]int {
	q := slices.Clone(vertices)
	slices.Sort(q)
	q = slices.Compact(q)
	res := m.cl.Ask(m.coord, mpc.Ints(q), func(mm *mpc.Machine, msg mpc.Sized) *mpc.MessageBatch {
		sh := getShard(mm)
		if sh == nil {
			return nil
		}
		b := mm.Batch(0)
		for _, v := range msg.(mpc.Ints) {
			if sh.owns(v) {
				b.Append(uint64(v), uint64(int64(sh.match[v-sh.lo])))
			}
		}
		return b
	}, mpc.KeepFirst)
	out := map[int]int{}
	if res != nil {
		for fr := range res.Frames {
			out[int(fr[0])] = int(int64(fr[1]))
		}
		res.Release()
	}
	return out
}

// matchChange tells the shards matching mutations.
type matchChange struct {
	unmatch []graph.Edge
	match   []graph.Edge
}

func (c matchChange) Words() int { return 2 * (len(c.unmatch) + len(c.match)) }

func (m *Matcher) applyMatchChanges(unmatch, match []graph.Edge) {
	if len(unmatch) == 0 && len(match) == 0 {
		return
	}
	m.cl.Tell(m.coord, matchChange{unmatch: unmatch, match: match}, func(mm *mpc.Machine, payload mpc.Sized) {
		sh := getShard(mm)
		if sh == nil {
			return
		}
		c := payload.(matchChange)
		for _, e := range c.unmatch {
			for _, v := range []int{e.U, e.V} {
				if sh.owns(v) {
					sh.match[v-sh.lo] = -1
				}
			}
		}
		for _, e := range c.match {
			if sh.owns(e.U) {
				sh.match[e.U-sh.lo] = e.V
			}
			if sh.owns(e.V) {
				sh.match[e.V-sh.lo] = e.U
			}
		}
	})
}

// rematch restores maximality for the freed vertices with a
// propose/accept/confirm protocol. In each round every still-free pending
// vertex proposes to all neighbors; free targets accept the minimum
// proposer (pending targets defer to smaller ids) and send busy-but-free
// rejections to the rest; proposers confirm their minimum accepter. The
// globally minimum pending vertex with a free neighbor always matches, so
// the loop terminates; pending vertices retry only while some neighbor is
// observably free.
func (m *Matcher) rematch(freed []int) error {
	pending := freed
	for iter := 0; len(pending) > 0; iter++ {
		if iter > 2*len(freed)+8 {
			return fmt.Errorf("nowickionak: rematch did not converge (%d pending)", len(pending))
		}
		m.retryRounds++
		sawFree := m.rematchRound(pending)
		status := m.matchStatus(pending)
		var next []int
		for _, v := range pending {
			if status[v] == -1 && sawFree[v] {
				next = append(next, v)
			}
		}
		pending = next
	}
	return nil
}

// Propose/accept/reject/confirm traffic travels as three-word frames
// [from, to, kind] of the batched message codec: one packed buffer per
// (src, dst) machine pair per protocol step instead of one small payload
// per proposal.
const (
	kindPropose  = 0
	kindAccept   = 1
	kindBusyFree = 2 // busy-but-free rejection
	kindConfirm  = 3
)

// appendProposal adds one [from, to, kind] frame to dst's batch, taking the
// batch from mm's cluster on first use.
func appendProposal(mm *mpc.Machine, byOwner map[int]*mpc.MessageBatch, dst, from, to, kind int) {
	b := byOwner[dst]
	if b == nil {
		b = mm.Batch(0)
		byOwner[dst] = b
	}
	b.Append(uint64(from), uint64(to), uint64(kind))
}

// batchMessages flattens the per-owner batches into outgoing messages.
func batchMessages(byOwner map[int]*mpc.MessageBatch) []mpc.Message {
	if len(byOwner) == 0 {
		return nil
	}
	out := make([]mpc.Message, 0, len(byOwner))
	for owner, b := range byOwner {
		out = append(out, mpc.Message{To: owner, Payload: b})
	}
	return out
}

// rematchRound runs one protocol round and returns, per pending vertex,
// whether it observed a free neighbor (and hence should retry if unmatched).
func (m *Matcher) rematchRound(pending []int) []bool {
	pendSet := map[int]bool{}
	for _, v := range pending {
		pendSet[v] = true
	}
	// The round opens with one Tell of the pending vertices; every shard
	// keeps the ones it owns that are still free.
	m.cl.Tell(m.coord, mpc.Ints(pending), func(mm *mpc.Machine, msg mpc.Sized) {
		sh := getShard(mm)
		if sh == nil {
			return
		}
		for _, v := range msg.(mpc.Ints) {
			if sh.owns(v) && sh.match[v-sh.lo] == -1 {
				sh.proposing = append(sh.proposing, v)
			}
		}
	})
	// abstain[v] is set when pending target v accepts a smaller proposer
	// and must therefore not confirm its own proposals this round. Both
	// marker sets are vertex-indexed slices, not maps: each slot is written
	// only by the machine owning that vertex, which keeps the closures
	// below inside the mpc.StepFunc concurrency contract.
	abstain := make([]bool, m.n)
	sawFree := make([]bool, m.n)
	// Step A: owners of pending vertices propose to every neighbor.
	m.cl.Step(func(mm *mpc.Machine, inbox []mpc.Message) []mpc.Message {
		sh := getShard(mm)
		if sh == nil {
			return nil
		}
		byOwner := map[int]*mpc.MessageBatch{}
		for _, v := range sh.proposing {
			for o := range sh.adj[v-sh.lo] {
				appendProposal(mm, byOwner, m.part.Owner(o), v, o, kindPropose)
			}
		}
		sh.proposing = nil
		return batchMessages(byOwner)
	})
	// Step B: free targets accept the minimum admissible proposer and send
	// busy-but-free rejections to the others.
	m.cl.Step(func(mm *mpc.Machine, inbox []mpc.Message) []mpc.Message {
		sh := getShard(mm)
		if sh == nil {
			return nil
		}
		props := map[int][]int{} // free target -> proposers
		for _, msg := range inbox {
			b := msg.Payload.(*mpc.MessageBatch)
			for p := range b.Frames {
				from, to := int(p[0]), int(p[1])
				if !sh.owns(to) || sh.match[to-sh.lo] != -1 {
					continue
				}
				props[to] = append(props[to], from)
			}
			b.Release()
		}
		byOwner := map[int]*mpc.MessageBatch{}
		for to, froms := range props {
			best := -1
			for _, f := range froms {
				if pendSet[to] && f >= to {
					continue // pending targets defer to smaller proposers
				}
				if best == -1 || f < best {
					best = f
				}
			}
			for _, f := range froms {
				kind := kindBusyFree
				if f == best {
					kind = kindAccept
				}
				appendProposal(mm, byOwner, m.part.Owner(f), to, f, kind)
			}
			if best != -1 && pendSet[to] {
				abstain[to] = true
				sawFree[to] = true
			}
		}
		return batchMessages(byOwner)
	})
	// Step C: proposers confirm their minimum accepter (unless abstaining).
	m.cl.Step(func(mm *mpc.Machine, inbox []mpc.Message) []mpc.Message {
		sh := getShard(mm)
		if sh == nil {
			return nil
		}
		bestAccept := map[int]int{}
		for _, msg := range inbox {
			b := msg.Payload.(*mpc.MessageBatch)
			for p := range b.Frames {
				from, v, kind := int(p[0]), int(p[1]), int(p[2]) // v: the original proposer
				if !sh.owns(v) {
					continue
				}
				sawFree[v] = true // accept or busy-but-free: a free neighbor exists
				if kind != kindAccept || sh.match[v-sh.lo] != -1 || abstain[v] {
					continue
				}
				if cur, ok := bestAccept[v]; !ok || from < cur {
					bestAccept[v] = from
				}
			}
			b.Release()
		}
		byOwner := map[int]*mpc.MessageBatch{}
		for v, u := range bestAccept {
			sh.match[v-sh.lo] = u
			appendProposal(mm, byOwner, m.part.Owner(u), v, u, kindConfirm)
		}
		return batchMessages(byOwner)
	})
	// Landing: accepters finalize.
	m.cl.Land(func(mm *mpc.Machine, inbox []mpc.Message) {
		sh := getShard(mm)
		if sh == nil {
			return
		}
		for _, msg := range inbox {
			b := msg.Payload.(*mpc.MessageBatch)
			for p := range b.Frames {
				from, to, kind := int(p[0]), int(p[1]), int(p[2])
				if kind == kindConfirm && sh.owns(to) && sh.match[to-sh.lo] == -1 {
					sh.match[to-sh.lo] = from
				}
			}
			b.Release()
		}
	})
	return sawFree
}

// Matching reads out the current matching (driver-level readout).
// Per-machine buckets keep the readout within the mpc.StepFunc concurrency
// contract (a shared append would race under a parallel executor).
func (m *Matcher) Matching() []graph.Edge {
	buckets := make([][]graph.Edge, m.cl.Machines())
	m.cl.LocalAll(func(mm *mpc.Machine) {
		sh := getShard(mm)
		if sh == nil {
			return
		}
		for i, p := range sh.match {
			v := sh.lo + i
			if p > v {
				buckets[mm.ID] = append(buckets[mm.ID], graph.Edge{U: v, V: p})
			}
		}
	})
	var out []graph.Edge
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

// Size returns the current matching size via an O(1)-round [0, count] sum,
// cached between updates (a repeated readout costs zero rounds).
func (m *Matcher) Size() int {
	if m.sizeOK {
		return m.size
	}
	res := m.cl.AggregateBatches(m.coord,
		func(mm *mpc.Machine) *mpc.MessageBatch {
			sh := getShard(mm)
			if sh == nil {
				return nil
			}
			n := uint64(0)
			for i, p := range sh.match {
				if p > sh.lo+i {
					n++
				}
			}
			b := mm.Batch(3)
			b.Append(0, n)
			return b
		}, mpc.SumValues)
	m.size = 0
	if res != nil {
		for fr := range res.Frames {
			m.size = int(fr[1])
		}
		res.Release()
	}
	m.sizeOK = true
	return m.size
}
