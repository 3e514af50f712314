// Package msf implements the minimum-spanning-forest applications of the
// connectivity engine (Section 7 of the paper):
//
//   - ExactMSF: an exact minimum spanning forest under insertion-only
//     streams (Theorem 7.1(i)), maintained on a weighted Euler-tour forest.
//     A batch closing cycles takes one wave of Section 7.1: one Identify-Path
//     question over the virtual tree of the batch's terminals
//     (core.Forest.HeaviestSeparating), Kruskal on that compressed instance
//     at the coordinator, one Cut and one Link.
//   - ApproxMSF: a (1+ε)-approximation of the MSF weight under fully dynamic
//     streams, via O(log_{1+ε} W) connectivity instances on the level graphs
//     G_0, ..., G_t (Section 7.2.1, after Chazelle et al.), and a
//     (1+ε)-approximate minimum spanning forest extracted from the per-level
//     spanning forests (Section 7.2.2).
package msf

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/eulertour"
	"repro/internal/graph"
	"repro/internal/mpc"
)

// ExactMSF maintains an exact minimum spanning forest of an insertion-only
// weighted graph in O(1) collective rounds per batch of Õ(n^φ) insertions,
// one wave per batch (InsertBatch). Among edges of equal weight the forest
// keeps the one it holds over a new one, then the smaller canonical
// endpoints.
type ExactMSF struct {
	f *core.Forest
	// weight caches the forest weight between updates (valid iff weightOK),
	// so repeated Weight readouts between batches cost no snapshot walk.
	weight   int64
	weightOK bool
}

// slotWeight is the coordinator slot of the weight readout's meter.
const slotWeight = "wc"

// weightMeter folds the driver-level cached forest-weight readout into the
// MPC memory ledger (one word while the cache is valid), like the
// coordinator label-cache metering in package core.
type weightMeter struct{ ok *bool }

// Words implements mpc.Sized.
func (w weightMeter) Words() int {
	if *w.ok {
		return 1
	}
	return 0
}

// NewExactMSF creates the forest engine for an empty graph on cfg.N
// vertices.
func NewExactMSF(cfg core.Config) (*ExactMSF, error) {
	f, err := core.NewWeightedForest(cfg)
	if err != nil {
		return nil, err
	}
	m := &ExactMSF{f: f}
	f.MeterCoordinator(slotWeight, weightMeter{&m.weightOK})
	return m, nil
}

// Forest exposes the underlying engine for metering and snapshots.
func (m *ExactMSF) Forest() *core.Forest { return m.f }

// Clusters returns the one cluster the forest runs on.
func (m *ExactMSF) Clusters() []*mpc.Cluster { return []*mpc.Cluster{m.f.Cluster()} }

// InsertBatch processes a batch B of edge insertions (at most MaxBatch) in
// one wave (Section 7.1.2). The MSF of the forest plus B is the MSF of a
// compressed instance of O(k) words: B and the virtual tree of its
// terminals (the endpoints that lie on a tree), each of whose edges stands
// for a tree path and weighs what the heaviest edge on it weighs. The
// coordinator runs Kruskal on it; a virtual edge it leaves out names the
// tree edge to cut, a batch edge it takes one to link. Rounds at depth 1,
// step by step:
//
//   - the endpoints' labels: 0 warm, 2 cold. When B closes no cycle over
//     the components, B is one Link (3 to 7) and the batch ends here;
//   - the endpoints' occurrence stats (core.Forest.Stats): 2;
//   - the heaviest edge of every virtual edge
//     (core.Forest.HeaviestSeparating): 2, skipped when no tree holds two
//     terminals;
//   - one Cut of the tree edges left out: 6 to 8, 0 when there is none;
//   - one Link of the batch edges taken: 3 to 7, 0 when there is none.
//
// So a batch costs at most 21 rounds.
func (m *ExactMSF) InsertBatch(edges []graph.WeightedEdge) error {
	if len(edges) > m.f.Config().MaxBatch() {
		return fmt.Errorf("msf: batch of %d exceeds MaxBatch %d", len(edges), m.f.Config().MaxBatch())
	}
	m.weightOK = false
	batch := make([]graph.WeightedEdge, len(edges))
	for i, e := range edges {
		batch[i] = graph.WeightedEdge{Edge: e.Edge.Canonical(), Weight: e.Weight}
	}
	slices.SortFunc(batch, func(a, b graph.WeightedEdge) int {
		return cmp.Or(cmp.Compare(a.Weight, b.Weight), cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	endpoints := make([]int, 0, 2*len(batch))
	for _, e := range batch {
		endpoints = append(endpoints, e.U, e.V)
	}
	// labels[2i] and labels[2i+1] are the components of batch[i].
	labels := m.f.ComponentsOfInto(nil, endpoints)
	var comps graph.MinUnion
	acyclic := true
	for i := range batch {
		_, _, joined := comps.Union(labels[2*i], labels[2*i+1])
		acyclic = acyclic && joined
	}
	if acyclic {
		return m.f.Link(batch)
	}
	cuts, links := m.exchange(batch, m.f.Stats(endpoints))
	if _, err := m.f.Cut(cuts); err != nil {
		return err
	}
	return m.f.Link(links)
}

// candidate is one edge of the compressed instance between nodes u and v: a
// virtual edge (batch 0), carrying the heaviest tree edge of its path, or a
// batch edge (batch 1). Kruskal takes them by weight, then the virtual edge
// first, then by canonical endpoints.
type candidate struct {
	e           graph.WeightedEdge
	u, v, batch int
}

// exchange builds the virtual tree of the batch's terminals from their stats
// and runs Kruskal over its edges and the batch: it returns the tree edges
// to cut and the batch edges to link. The runs HeaviestSeparating answers,
// over the terminals as core.Terminals indexes them, are the virtual edges,
// nested or disjoint: sorted by start, widest first, a run's parent is the
// innermost run still open, or its tour's top. A terminal is the node of the
// narrowest run that starts at it, or its tour's top, and a singleton
// endpoint is its own node. Node ids: v for a singleton v, n + t for the top
// of tour t, -1 - r for run r.
func (m *ExactMSF) exchange(batch []graph.WeightedEdge, stats map[int]eulertour.VertexStats) (cuts []graph.Edge, links []graph.WeightedEdge) {
	n, node := m.f.Config().N, make(map[int]int, len(stats))
	for v, st := range stats {
		node[v] = v
		if st.Tour != eulertour.NoTour {
			node[v] = n + int(st.Tour)
		}
	}
	terms, tours := core.Terminals(stats)
	heaviest := m.f.HeaviestSeparating(tours)
	runs := slices.SortedFunc(maps.Keys(heaviest), func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(b[1], a[1]))
	})
	cands := make([]candidate, 0, len(runs)+len(batch))
	var open []int
	for r, run := range runs {
		for len(open) > 0 && runs[open[len(open)-1]][1] <= run[0] {
			open = open[:len(open)-1]
		}
		// With no run open, no run starting at run[0] came before, so the
		// node of the terminal there is still its tour's top.
		first, parent := terms[run[0]], node[terms[run[0]]]
		if len(open) > 0 {
			parent = -1 - open[len(open)-1]
		}
		node[first] = -1 - r // the narrowest run starting there comes last
		cands = append(cands, candidate{heaviest[run], -1 - r, parent, 0})
		open = append(open, r)
	}
	for _, e := range batch {
		cands = append(cands, candidate{e, node[e.U], node[e.V], 1})
	}
	slices.SortFunc(cands, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(a.e.Weight, b.e.Weight), cmp.Compare(a.batch, b.batch),
			cmp.Compare(a.e.U, b.e.U), cmp.Compare(a.e.V, b.e.V))
	})
	var trees graph.MinUnion
	for _, c := range cands {
		switch _, _, joined := trees.Union(c.u, c.v); {
		case c.batch == 0 && !joined:
			cuts = append(cuts, c.e.Edge)
		case c.batch == 1 && joined:
			links = append(links, c.e)
		}
	}
	return cuts, links
}

// Weight returns the current forest weight (driver-level readout of the
// collectively stored solution), cached between insertion batches so
// repeated readouts are free.
func (m *ExactMSF) Weight() int64 {
	if m.weightOK {
		return m.weight
	}
	var total int64
	for _, e := range m.f.SnapshotForest() {
		total += e.Weight
	}
	m.weight = total
	m.weightOK = true
	return total
}

// Snapshot returns the maintained MSF edges.
func (m *ExactMSF) Snapshot() []graph.WeightedEdge { return m.f.SnapshotForest() }

// ApproxMSF maintains a (1+ε)-approximation of the MSF weight, and a
// (1+ε)-approximate minimum spanning forest, of a fully dynamic weighted
// graph with integer weights in [1, W].
type ApproxMSF struct {
	eps        float64
	thresholds []int64 // w_i = floor((1+eps)^i), strictly increasing
	levels     []*core.DynamicConnectivity
	n          int
}

// NewApproxMSF builds level connectivity instances G_0..G_t where G_i keeps
// the edges of weight at most (1+eps)^i.
func NewApproxMSF(cfg core.Config, eps float64, maxWeight int64) (*ApproxMSF, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("msf: eps = %v", eps)
	}
	if maxWeight < 1 {
		return nil, fmt.Errorf("msf: maxWeight = %d", maxWeight)
	}
	a := &ApproxMSF{eps: eps, n: cfg.N}
	for i := 0; ; i++ {
		w := int64(math.Floor(math.Pow(1+eps, float64(i))))
		if len(a.thresholds) > 0 && w <= a.thresholds[len(a.thresholds)-1] {
			continue // skip duplicate integer thresholds at small i
		}
		a.thresholds = append(a.thresholds, w)
		lvlCfg := cfg
		lvlCfg.Seed = cfg.Seed + uint64(i)*0x9e37
		dc, err := core.NewDynamicConnectivity(lvlCfg)
		if err != nil {
			return nil, err
		}
		a.levels = append(a.levels, dc)
		if w >= maxWeight {
			break
		}
	}
	return a, nil
}

// Levels returns the level graphs' connectivity instances, G_0 first.
func (a *ApproxMSF) Levels() []*core.DynamicConnectivity { return a.levels }

// Clusters returns the level instances' clusters, G_0's first.
func (a *ApproxMSF) Clusters() []*mpc.Cluster {
	out := make([]*mpc.Cluster, len(a.levels))
	for i, dc := range a.levels {
		out[i] = dc.Cluster()
	}
	return out
}

// SearchStats sums the replacement-search counters of every level.
func (a *ApproxMSF) SearchStats() core.SearchStats {
	var s core.SearchStats
	for _, dc := range a.levels {
		s.Add(dc.SearchStats())
	}
	return s
}

// MaxBatch returns the largest accepted batch.
func (a *ApproxMSF) MaxBatch() int { return a.levels[0].MaxBatch() }

// ApplyBatch forwards each update to every level whose threshold admits the
// edge's weight. All levels process their sub-batches in parallel in a real
// MPC; the simulator executes them sequentially, and the harness adds their
// rounds up (harness.SumStats), a bound on the parallel run's maximum.
func (a *ApproxMSF) ApplyBatch(b graph.Batch) error {
	if len(b) > a.MaxBatch() {
		return fmt.Errorf("msf: batch of %d exceeds MaxBatch %d", len(b), a.MaxBatch())
	}
	for i, dc := range a.levels {
		var sub graph.Batch
		for _, u := range b {
			if u.Weight <= a.thresholds[i] {
				sub = append(sub, u)
			}
		}
		if len(sub) == 0 {
			continue
		}
		if err := dc.ApplyBatch(sub); err != nil {
			return fmt.Errorf("msf: level %d: %w", i, err)
		}
	}
	return nil
}

// Weight returns the (1+ε)-approximate MSF weight:
//
//	est = sum over MSF edges of their weight rounded up to a threshold
//	    = w_0 * (n - cc(G)) + sum_i (w_{i+1} - w_i) * (cc(G_i) - cc(G))
//
// using the identity that an MSF has exactly cc(G_i) - cc(G) edges of
// weight above w_i (the level-graph counting of Chazelle et al., adapted
// from Equation (1) of the paper). Every cc is an O(1/φ)-round MPC query,
// cached per level between updates, so a repeated Weight readout between
// batches costs zero rounds across all levels.
func (a *ApproxMSF) Weight() int64 {
	top := len(a.levels) - 1
	ccG := int64(a.levels[top].NumComponents())
	est := (int64(a.n) - ccG) * a.thresholds[0]
	for i := 0; i < top; i++ {
		cc := int64(a.levels[i].NumComponents())
		est += (a.thresholds[i+1] - a.thresholds[i]) * (cc - ccG)
	}
	return est
}

// Snapshot extracts the approximate MSF by Kruskal over the levels: the
// edges of level i's spanning forest F_i are taken in level order, and one
// joins the output iff it joins two trees of the output so far. After level
// i the output spans exactly G_i's components, so it holds cc(G_{i-1}) -
// cc(G_i) edges of level i; each is charged its level's threshold weight,
// which is within (1+ε) of its true weight, and the forest weighs what
// Weight estimates.
func (a *ApproxMSF) Snapshot() []graph.WeightedEdge {
	var out []graph.WeightedEdge
	var trees graph.MinUnion
	for i, dc := range a.levels {
		for _, e := range dc.SnapshotForest() {
			if _, _, joined := trees.Union(e.U, e.V); joined {
				out = append(out, graph.WeightedEdge{Edge: e, Weight: a.thresholds[i]})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// ForestWeight returns the total (threshold-rounded) weight of the
// extracted forest.
func (a *ApproxMSF) ForestWeight() int64 {
	var total int64
	for _, e := range a.Snapshot() {
		total += e.Weight
	}
	return total
}
