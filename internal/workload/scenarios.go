package workload

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/hash"
)

// This file holds the scenario registry: the named stream families beyond
// uniform churn. Every generator maintains the mirror-graph invariant (a
// batch touches each edge at most once, inserts only absent edges, deletes
// only present ones), so any emitted stream is valid for any algorithm and
// serializes losslessly into the .stream golden format.

// batchState accumulates one batch while keeping the mirror invariant.
type batchState struct {
	g    *graph.Graph
	used map[graph.Edge]bool
	b    graph.Batch
}

func newBatchState(g *graph.Graph) *batchState {
	return &batchState{g: g, used: map[graph.Edge]bool{}}
}

// insert emits an insertion of e with weight w if e is absent and untouched
// this batch.
func (s *batchState) insert(e graph.Edge, w int64) bool {
	if s.used[e] || s.g.Has(e.U, e.V) {
		return false
	}
	s.used[e] = true
	_ = s.g.Insert(e.U, e.V, w)
	s.b = append(s.b, graph.InsW(e.U, e.V, w))
	return true
}

// delete emits a deletion of e (carrying its mirror weight) if e is present
// and untouched this batch.
func (s *batchState) delete(e graph.Edge) bool {
	if s.used[e] || !s.g.Has(e.U, e.V) {
		return false
	}
	s.used[e] = true
	w, _ := s.g.Weight(e.U, e.V)
	_ = s.g.Delete(e.U, e.V)
	s.b = append(s.b, graph.DelW(e.U, e.V, w))
	return true
}

// attempts returns the standard attempt budget for a batch of the given
// size, matching the Churn convention: enough to make stalls (saturated or
// empty graphs) graceful rather than livelocks.
func attempts(size int) int { return 50*size + 200 }

// drawWeight returns a uniform weight in [1, maxWeight], or 1 when the
// stream is unweighted (maxWeight <= 1).
func drawWeight(prg *hash.PRG, maxWeight int64) int64 {
	if maxWeight <= 1 {
		return 1
	}
	return int64(prg.NextN(uint64(maxWeight))) + 1
}

// coin returns true with probability p.
func coin(prg *hash.PRG, p float64) bool {
	return float64(prg.NextN(1000))/1000 < p
}

// sortedEdges returns the live edges in canonical order. Graph.Edges'
// order depends on the update history, not only on the edge set; generators
// that sample from an edge pool sort it so a draw depends on the set alone.
func sortedEdges(g *graph.Graph) []graph.WeightedEdge {
	es := g.Edges()
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// insertOnly adapts Churn's insertion-only mode to the Generator interface,
// for the insertion-only algorithms (exact MSF, greedy matching).
type insertOnly struct{ *Churn }

func (i insertOnly) Next(size int) graph.Batch { return i.NextInsertOnly(size) }

// PowerLaw is preferential-attachment churn: insertion endpoints are drawn
// from the degree distribution (each live edge contributes its endpoints to
// the sampling pool), producing the heavy-tailed degree sequences of social
// graphs — a few hub vertices carry most of the stream, the clustered
// regime of Lingas (arXiv:2405.16103). Deletions strike uniformly random
// live edges, so hubs also lose edges fastest in absolute terms.
type PowerLaw struct {
	n          int
	g          *graph.Graph
	prg        *hash.PRG
	deleteFrac float64
	maxWeight  int64
	// ends is the endpoint multiset of live edges, with stale entries left
	// behind by deletions and compacted lazily.
	ends  []int
	stale int
}

// NewPowerLaw returns a preferential-attachment churn generator.
// deleteFrac in [0,1) is the per-update probability of attempting a
// deletion; maxWeight > 1 makes the stream weighted.
func NewPowerLaw(n int, seed uint64, deleteFrac float64, maxWeight int64) *PowerLaw {
	validateN(n)
	return &PowerLaw{
		n:          n,
		g:          graph.New(n),
		prg:        hash.NewPRG(seed),
		deleteFrac: deleteFrac,
		maxWeight:  maxWeight,
	}
}

// Mirror returns the reference graph.
func (p *PowerLaw) Mirror() *graph.Graph { return p.g }

// attach draws one endpoint: preferentially an endpoint of a live edge
// (probability 3/4 once edges exist), else uniform. Stale pool entries are
// re-drawn uniformly, which only softens the preference slightly between
// compactions.
func (p *PowerLaw) attach() int {
	if len(p.ends) > 0 && !coin(p.prg, 0.25) {
		v := p.ends[p.prg.NextN(uint64(len(p.ends)))]
		if p.g.Degree(v) > 0 {
			return v
		}
	}
	return int(p.prg.NextN(uint64(p.n)))
}

// Next emits one batch.
func (p *PowerLaw) Next(size int) graph.Batch {
	st := newBatchState(p.g)
	live := sortedEdges(p.g) // deletion pool, snapshotted per batch
	for a := 0; len(st.b) < size && a < attempts(size); a++ {
		if p.deleteFrac > 0 && len(live) > 0 && coin(p.prg, p.deleteFrac) {
			e := live[p.prg.NextN(uint64(len(live)))].Edge
			if st.delete(e) {
				p.stale += 2
			}
			continue
		}
		u := int(p.prg.NextN(uint64(p.n)))
		v := p.attach()
		if u == v {
			continue
		}
		if st.insert(graph.NewEdge(u, v), drawWeight(p.prg, p.maxWeight)) {
			p.ends = append(p.ends, u, v)
		}
	}
	if p.stale > len(p.ends)/2 {
		p.compact()
	}
	return st.b
}

// compact rebuilds the endpoint pool from the live edges.
func (p *PowerLaw) compact() {
	p.ends = p.ends[:0]
	for _, e := range sortedEdges(p.g) {
		p.ends = append(p.ends, e.U, e.V)
	}
	p.stale = 0
}

// SlidingWindow models a timeline stream: fresh random edges arrive and
// every edge expires after the window fills — insert-then-expire in strict
// FIFO order. Deletions therefore always strike the *oldest* edges, which
// are disproportionately tree edges of the maintained forest, stressing
// replacement-edge search far harder than uniform churn.
type SlidingWindow struct {
	n, window int
	g         *graph.Graph
	prg       *hash.PRG
	maxWeight int64
	fifo      []graph.Edge // live edges in arrival order; fifo[0] is oldest
}

// NewSlidingWindow returns a sliding-window generator holding at most
// window live edges (window <= 0 defaults to 3n).
func NewSlidingWindow(n, window int, seed uint64, maxWeight int64) *SlidingWindow {
	validateN(n)
	if window <= 0 {
		window = 3 * n
	}
	return &SlidingWindow{
		n:         n,
		window:    window,
		g:         graph.New(n),
		prg:       hash.NewPRG(seed),
		maxWeight: maxWeight,
	}
}

// Mirror returns the reference graph.
func (w *SlidingWindow) Mirror() *graph.Graph { return w.g }

// Next emits one batch: expirations first whenever the window is full, then
// fresh insertions.
func (w *SlidingWindow) Next(size int) graph.Batch {
	st := newBatchState(w.g)
	for a := 0; len(st.b) < size && a < attempts(size); a++ {
		if len(w.fifo) >= w.window {
			e := w.fifo[0]
			if st.used[e] {
				// The window head was inserted this very batch (window
				// smaller than the batch); stop expiring until next batch.
				break
			}
			w.fifo = w.fifo[1:]
			st.delete(e)
			continue
		}
		u := int(w.prg.NextN(uint64(w.n)))
		v := int(w.prg.NextN(uint64(w.n)))
		if u == v {
			continue
		}
		e := graph.NewEdge(u, v)
		if st.insert(e, drawWeight(w.prg, w.maxWeight)) {
			w.fifo = append(w.fifo, e)
		}
	}
	return st.b
}

// Community is a merge/split stream over k vertex blocks: intra-community
// edges churn continuously (dense, well-connected blocks), while
// inter-community bridges are inserted during merge phases and torn down
// again during split phases. Component counts swing between k and 1,
// exercising both directions of the component-structure regimes that drive
// deterministic MST round counts (Nowicki, arXiv:1912.04239).
type Community struct {
	n, k, csize int
	period      int // batches per phase
	step        int
	g           *graph.Graph
	prg         *hash.PRG
	bridges     []graph.Edge // inter-community edges currently present
}

// NewCommunity returns a merge/split generator with k communities (k <= 0
// defaults to 8, clamped so each community has at least 4 vertices) and the
// given phase period in batches (<= 0 defaults to 2).
func NewCommunity(n, k, period int, seed uint64) *Community {
	validateN(n)
	if k <= 0 {
		k = 8
	}
	for k > 1 && n/k < 4 {
		k--
	}
	if period <= 0 {
		period = 2
	}
	csize := (n + k - 1) / k
	return &Community{
		n: n, k: k, csize: csize, period: period,
		g:   graph.New(n),
		prg: hash.NewPRG(seed),
	}
}

// Mirror returns the reference graph.
func (c *Community) Mirror() *graph.Graph { return c.g }

// community returns the block index of v.
func (c *Community) community(v int) int { return v / c.csize }

// randIn draws a uniform vertex of block i.
func (c *Community) randIn(i int) int {
	lo := i * c.csize
	hi := lo + c.csize
	if hi > c.n {
		hi = c.n
	}
	return lo + int(c.prg.NextN(uint64(hi-lo)))
}

// Next emits one batch: half the budget churns intra-community edges, the
// other half merges (inserts bridges) or splits (deletes all bridges)
// depending on the phase.
func (c *Community) Next(size int) graph.Batch {
	st := newBatchState(c.g)
	merging := (c.step/c.period)%2 == 0
	c.step++
	phaseBudget := size / 2
	if merging {
		for a := 0; len(st.b) < phaseBudget && a < attempts(phaseBudget); a++ {
			i := int(c.prg.NextN(uint64(c.k)))
			j := int(c.prg.NextN(uint64(c.k)))
			if i == j {
				continue
			}
			u, v := c.randIn(i), c.randIn(j)
			if u == v {
				continue
			}
			e := graph.NewEdge(u, v)
			if st.insert(e, 1) {
				c.bridges = append(c.bridges, e)
			}
		}
	} else {
		// Tear down bridges oldest-first until the phase budget is spent.
		kept := c.bridges[:0]
		for i, e := range c.bridges {
			if len(st.b) >= phaseBudget {
				kept = append(kept, c.bridges[i:]...)
				break
			}
			st.delete(e) // false only if already gone (churned away)
		}
		c.bridges = append([]graph.Edge(nil), kept...)
	}
	for a := 0; len(st.b) < size && a < attempts(size); a++ {
		u := c.randIn(int(c.prg.NextN(uint64(c.k))))
		v := u/c.csize*c.csize + int(c.prg.NextN(uint64(c.csize)))
		if u == v || v >= c.n {
			continue
		}
		e := graph.NewEdge(u, v)
		if c.g.Has(e.U, e.V) {
			if coin(c.prg, 0.3) {
				st.delete(e)
			}
		} else {
			st.insert(e, 1)
		}
	}
	return st.b
}

// Bursty is the adversarial rematch stream: each odd batch picks a set of
// hub vertices and buries them in spoke insertions (the hubs get matched,
// the spokes crowd the matching); the following even batch deletes *every*
// edge incident to those hubs at once, freeing the hubs and their partners
// simultaneously and forcing the maximal-matching rematch loop (and the
// connectivity replacement search) to resolve a correlated burst rather
// than scattered single deletions.
type Bursty struct {
	n   int
	g   *graph.Graph
	prg *hash.PRG
	// pending holds hubs awaiting teardown, oldest burst first; a hub whose
	// edges do not fit one teardown batch stays pending, so no burst edge is
	// ever abandoned.
	pending []int
	phase   int
}

// NewBursty returns a burst generator.
func NewBursty(n int, seed uint64) *Bursty {
	validateN(n)
	return &Bursty{n: n, g: graph.New(n), prg: hash.NewPRG(seed)}
}

// Mirror returns the reference graph.
func (b *Bursty) Mirror() *graph.Graph { return b.g }

// Next emits one batch, alternating burst insertions and hub teardowns.
func (b *Bursty) Next(size int) graph.Batch {
	st := newBatchState(b.g)
	defer func() { b.phase++ }()
	if b.phase%2 == 0 {
		// Burst: choose fresh hubs and shower them with spokes.
		nhubs := size/8 + 1
		fresh := make([]int, 0, nhubs)
		for i := 0; i < nhubs; i++ {
			fresh = append(fresh, int(b.prg.NextN(uint64(b.n))))
		}
		b.pending = append(b.pending, fresh...)
		for a := 0; len(st.b) < size && a < attempts(size); a++ {
			hub := fresh[int(b.prg.NextN(uint64(len(fresh))))]
			v := int(b.prg.NextN(uint64(b.n)))
			if v == hub {
				continue
			}
			st.insert(graph.NewEdge(hub, v), 1)
		}
		return st.b
	}
	// Teardown: delete everything incident to the pending hubs, carrying
	// over whatever does not fit this batch.
	for len(b.pending) > 0 {
		hub := b.pending[0]
		var neighbors []int
		b.g.Neighbors(hub, func(v int, _ int64) bool {
			neighbors = append(neighbors, v)
			return true
		})
		sort.Ints(neighbors) // Neighbors' order depends on the update history
		cleared := true
		for _, v := range neighbors {
			if len(st.b) >= size {
				cleared = false
				break
			}
			st.delete(graph.NewEdge(hub, v))
		}
		if !cleared {
			break
		}
		b.pending = b.pending[1:]
	}
	return st.b
}

// Star churns a degenerate star topology: every edge is a spoke of one
// center vertex. The center's sketch stack carries the whole graph and
// every matching decision funnels through one vertex — the maximally
// skewed degree distribution.
type Star struct {
	n      int
	center int
	g      *graph.Graph
	prg    *hash.PRG
}

// NewStar returns a star-churn generator centered on vertex 0.
func NewStar(n int, seed uint64) *Star {
	validateN(n)
	return &Star{n: n, g: graph.New(n), prg: hash.NewPRG(seed)}
}

// Mirror returns the reference graph.
func (s *Star) Mirror() *graph.Graph { return s.g }

// Next emits one batch: absent spokes are inserted, present spokes deleted
// with small probability, so the star fills quickly and then churns.
func (s *Star) Next(size int) graph.Batch {
	st := newBatchState(s.g)
	for a := 0; len(st.b) < size && a < attempts(size); a++ {
		v := int(s.prg.NextN(uint64(s.n)))
		if v == s.center {
			continue
		}
		e := graph.NewEdge(s.center, v)
		if s.g.Has(e.U, e.V) {
			if coin(s.prg, 0.4) {
				st.delete(e)
			}
		} else {
			st.insert(e, 1)
		}
	}
	return st.b
}

// PathChurn churns the edges of the fixed Hamiltonian path 0-1-…-(n-1):
// the diameter-n worst case for component merging, where every deletion
// genuinely splits a component (a path edge never has a replacement) and
// every insertion joins two long chains.
type PathChurn struct {
	n   int
	g   *graph.Graph
	prg *hash.PRG
}

// NewPathChurn returns a path-churn generator.
func NewPathChurn(n int, seed uint64) *PathChurn {
	validateN(n)
	return &PathChurn{n: n, g: graph.New(n), prg: hash.NewPRG(seed)}
}

// Mirror returns the reference graph.
func (p *PathChurn) Mirror() *graph.Graph { return p.g }

// Next emits one batch over the path edges only.
func (p *PathChurn) Next(size int) graph.Batch {
	if p.n < 2 {
		return nil // a single vertex has no path edges
	}
	st := newBatchState(p.g)
	for a := 0; len(st.b) < size && a < attempts(size); a++ {
		i := int(p.prg.NextN(uint64(p.n - 1)))
		e := graph.NewEdge(i, i+1)
		if p.g.Has(e.U, e.V) {
			if coin(p.prg, 0.35) {
				st.delete(e)
			}
		} else {
			st.insert(e, 1)
		}
	}
	return st.b
}

// Cliques churns edges strictly inside disjoint vertex blocks, producing a
// forest of dense cliques that never touch: many small components packed
// with non-tree edges, where sketch cancellation (internal edges must
// vanish from summed cut sketches) does maximal work and replacement edges
// always exist.
type Cliques struct {
	n, csize int
	g        *graph.Graph
	prg      *hash.PRG
}

// NewCliques returns a disjoint-cliques generator with blocks of csize
// vertices (csize <= 0 defaults to 8, clamped to n/2 for tiny n).
func NewCliques(n, csize int, seed uint64) *Cliques {
	validateN(n)
	if csize <= 0 {
		csize = 8
	}
	if csize > n/2 {
		csize = n / 2
	}
	if csize < 2 {
		csize = 2
	}
	return &Cliques{n: n, csize: csize, g: graph.New(n), prg: hash.NewPRG(seed)}
}

// Mirror returns the reference graph.
func (c *Cliques) Mirror() *graph.Graph { return c.g }

// Next emits one batch of intra-block churn.
func (c *Cliques) Next(size int) graph.Batch {
	blocks := c.n / c.csize
	if blocks == 0 {
		return nil // fewer vertices than one block; no edges possible
	}
	st := newBatchState(c.g)
	for a := 0; len(st.b) < size && a < attempts(size); a++ {
		blk := int(c.prg.NextN(uint64(blocks)))
		lo := blk * c.csize
		u := lo + int(c.prg.NextN(uint64(c.csize)))
		v := lo + int(c.prg.NextN(uint64(c.csize)))
		if u == v {
			continue
		}
		e := graph.NewEdge(u, v)
		if c.g.Has(e.U, e.V) {
			if coin(c.prg, 0.3) {
				st.delete(e)
			}
		} else {
			st.insert(e, 1)
		}
	}
	return st.b
}

// init registers the built-in scenario catalogue (see the README table).
func init() {
	Register(Scenario{
		Name:     "churn",
		Stresses: "uniform mixed insert/delete baseline",
		New: func(n int, seed uint64) Generator {
			return NewChurn(Config{N: n, Seed: seed, InsertBias: 0.6})
		},
	})
	Register(Scenario{
		Name:     "churn-weighted",
		Stresses: "uniform churn with weights in [1,64] (MSF weight regimes)",
		Weighted: true,
		New: func(n int, seed uint64) Generator {
			return NewChurn(Config{N: n, Seed: seed, InsertBias: 0.6, MaxWeight: 64})
		},
	})
	Register(Scenario{
		Name:       "grow",
		Stresses:   "insertion-only growth (insert-only algorithms)",
		InsertOnly: true,
		New: func(n int, seed uint64) Generator {
			return insertOnly{NewChurn(Config{N: n, Seed: seed})}
		},
	})
	Register(Scenario{
		Name:       "grow-weighted",
		Stresses:   "insertion-only weighted growth (exact MSF)",
		InsertOnly: true,
		Weighted:   true,
		New: func(n int, seed uint64) Generator {
			return insertOnly{NewChurn(Config{N: n, Seed: seed, MaxWeight: 64})}
		},
	})
	Register(Scenario{
		Name:     "powerlaw",
		Stresses: "preferential attachment: heavy-tailed degrees, hub-centric updates",
		New: func(n int, seed uint64) Generator {
			return NewPowerLaw(n, seed, 0.25, 0)
		},
	})
	Register(Scenario{
		Name:     "powerlaw-weighted",
		Stresses: "preferential attachment with weights in [1,64]",
		Weighted: true,
		New: func(n int, seed uint64) Generator {
			return NewPowerLaw(n, seed, 0.25, 64)
		},
	})
	Register(Scenario{
		Name:     "window",
		Stresses: "sliding window: FIFO expiry always deletes the oldest (tree) edges",
		New: func(n int, seed uint64) Generator {
			return NewSlidingWindow(n, 0, seed, 0)
		},
	})
	Register(Scenario{
		Name:     "community",
		Stresses: "community merge/split: component count swings between k and 1",
		New: func(n int, seed uint64) Generator {
			return NewCommunity(n, 0, 0, seed)
		},
	})
	Register(Scenario{
		Name:     "bursty",
		Stresses: "adversarial rematch bursts: correlated hub teardowns",
		New: func(n int, seed uint64) Generator {
			return NewBursty(n, seed)
		},
	})
	Register(Scenario{
		Name:     "star",
		Stresses: "degenerate star: one vertex carries every edge",
		New: func(n int, seed uint64) Generator {
			return NewStar(n, seed)
		},
	})
	Register(Scenario{
		Name:     "path",
		Stresses: "degenerate path: diameter-n chains, no replacement edges",
		New: func(n int, seed uint64) Generator {
			return NewPathChurn(n, seed)
		},
	})
	Register(Scenario{
		Name:     "cliques",
		Stresses: "disjoint cliques: dense non-tree edges, maximal sketch cancellation",
		New: func(n int, seed uint64) Generator {
			return NewCliques(n, 0, seed)
		},
	})
}
