// Package msf implements the minimum-spanning-forest applications of the
// connectivity engine (Section 7 of the paper):
//
//   - ExactMSF: an exact minimum spanning forest under insertion-only
//     streams (Theorem 7.1(i)), maintained on a weighted Euler-tour forest
//     with batched Identify-Path heaviest-edge exchanges (Section 7.1).
//   - ApproxMSFWeight: a (1+ε)-approximation of the MSF weight under fully
//     dynamic streams, via O(log_{1+ε} W) connectivity instances on the
//     level graphs G_0, ..., G_t (Section 7.2.1, after Chazelle et al.).
//   - ApproxMSF: a (1+ε)-approximate minimum spanning forest under dynamic
//     streams, extracted from the per-level spanning forests
//     (Section 7.2.2).
package msf

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// ExactMSF maintains an exact minimum spanning forest of an insertion-only
// weighted graph in O(1) collective rounds per batch of Õ(n^φ) insertions.
type ExactMSF struct {
	f *core.Forest
	// swapWaves counts Identify-Path exchange iterations, reported by the
	// experiments (the paper's single-wave description is iterated to a
	// fixpoint to stay exact on batches with interacting exchanges; see
	// README.md "Deviations").
	swapWaves int
	// weight caches the forest weight between updates (valid iff weightOK),
	// so repeated Weight readouts between batches cost no snapshot walk.
	weight   int64
	weightOK bool
}

// weightMeter folds the driver-level cached forest-weight readout into the
// MPC memory ledger (one word while the cache is valid), like the
// coordinator label-cache metering in package core.
type weightMeter struct{ m *ExactMSF }

// Words implements mpc.Sized.
func (w weightMeter) Words() int {
	if w.m.weightOK {
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
	f.MeterCoordinator("wc", weightMeter{m})
	return m, nil
}

// Forest exposes the underlying engine for metering and snapshots.
func (m *ExactMSF) Forest() *core.Forest { return m.f }

// SwapWaves reports the cumulative number of exchange iterations performed.
func (m *ExactMSF) SwapWaves() int { return m.swapWaves }

// InsertBatch processes a batch of edge insertions (at most MaxBatch),
// maintaining the exact MSF. The algorithm follows Section 7.1.2: edges
// joining distinct components are inserted through the batched Link (taking
// the minimum-weight edge per component merge), and intra-component edges
// trigger batched Identify-Path operations that exchange them against the
// heaviest path edges, iterated until no exchange improves the forest.
func (m *ExactMSF) InsertBatch(edges []graph.WeightedEdge) error {
	if len(edges) > m.f.Config().MaxBatch() {
		return fmt.Errorf("msf: batch of %d exceeds MaxBatch %d", len(edges), m.f.Config().MaxBatch())
	}
	m.weightOK = false
	pending := make([]graph.WeightedEdge, len(edges))
	for i, e := range edges {
		pending[i] = graph.WeightedEdge{Edge: e.Edge.Canonical(), Weight: e.Weight}
	}
	var endpoints, labels []int
	for iter := 0; len(pending) > 0; iter++ {
		if iter > 4*len(edges)+8 {
			return fmt.Errorf("msf: exchange did not converge after %d waves", iter)
		}
		// Kruskal over components: lightest edges that merge distinct
		// components are linked; the rest stay pending.
		sort.Slice(pending, func(i, j int) bool {
			if pending[i].Weight != pending[j].Weight {
				return pending[i].Weight < pending[j].Weight
			}
			if pending[i].U != pending[j].U {
				return pending[i].U < pending[j].U
			}
			return pending[i].V < pending[j].V
		})
		endpoints = endpoints[:0]
		for _, e := range pending {
			endpoints = append(endpoints, e.U, e.V)
		}
		// labels[2i] and labels[2i+1] are the components of pending[i].
		labels = m.f.ComponentsOfInto(labels, endpoints)
		var merged graph.MinUnion
		var link []graph.WeightedEdge
		// Edges that are intra-component against the *pre-link* labels but
		// merged through new links must wait a wave; only edges whose two
		// endpoints were already in one component can exchange now.
		var exchange, wait []graph.WeightedEdge
		for i, e := range pending {
			switch _, _, ok := merged.Union(labels[2*i], labels[2*i+1]); {
			case ok:
				link = append(link, e)
			case labels[2*i] == labels[2*i+1]:
				exchange = append(exchange, e)
			default:
				wait = append(wait, e)
			}
		}
		if len(link) > 0 {
			if err := m.f.Link(link); err != nil {
				return err
			}
		}
		pending = wait
		if len(exchange) == 0 {
			continue
		}
		m.swapWaves++
		pairs := make([][2]int, len(exchange))
		for i, e := range exchange {
			pairs[i] = [2]int{e.U, e.V}
		}
		heaviest, err := m.f.HeaviestOnPaths(pairs)
		if err != nil {
			return err
		}
		// Claim each heaviest edge at most once per wave; contested or
		// non-improving candidates are resolved next wave or discarded.
		claimed := map[graph.Edge]bool{}
		var cuts []graph.Edge
		for i, e := range exchange {
			h, ok := heaviest[i]
			if !ok {
				return fmt.Errorf("msf: no path found for intra-component edge %v", e.Edge)
			}
			if h.Weight <= e.Weight {
				continue // the new edge cannot improve the forest: discard
			}
			if claimed[h.Edge] {
				pending = append(pending, e) // retry next wave
				continue
			}
			claimed[h.Edge] = true
			cuts = append(cuts, h.Edge)
			// Both the new edge and the cut edge become candidates again;
			// the next wave's Kruskal keeps whichever is lighter.
			pending = append(pending, e, graph.WeightedEdge{Edge: h.Edge, Weight: h.Weight})
		}
		if len(cuts) > 0 {
			if _, err := m.f.Cut(cuts); err != nil {
				return err
			}
		}
	}
	return nil
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

// ApproxMSFWeight maintains a (1+ε)-approximation of the MSF weight of a
// fully dynamic weighted graph with integer weights in [1, W].
type ApproxMSFWeight struct {
	eps        float64
	thresholds []int64 // w_i = floor((1+eps)^i), strictly increasing
	levels     []*core.DynamicConnectivity
	n          int
}

// NewApproxMSFWeight builds level connectivity instances G_0..G_t where G_i
// keeps the edges of weight at most (1+eps)^i.
func NewApproxMSFWeight(cfg core.Config, eps float64, maxWeight int64) (*ApproxMSFWeight, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("msf: eps = %v", eps)
	}
	if maxWeight < 1 {
		return nil, fmt.Errorf("msf: maxWeight = %d", maxWeight)
	}
	a := &ApproxMSFWeight{eps: eps, n: cfg.N}
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

// Levels returns the number of level graphs maintained.
func (a *ApproxMSFWeight) Levels() int { return len(a.levels) }

// MaxBatch returns the largest accepted batch.
func (a *ApproxMSFWeight) MaxBatch() int { return a.levels[0].MaxBatch() }

// ApplyBatch forwards each update to every level whose threshold admits the
// edge's weight. All levels process their sub-batches in parallel in a real
// MPC; the simulator executes them sequentially and the experiments report
// the maximum rounds across levels.
func (a *ApproxMSFWeight) ApplyBatch(b graph.Batch) error {
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
func (a *ApproxMSFWeight) Weight() int64 {
	top := len(a.levels) - 1
	ccG := int64(a.levels[top].NumComponents())
	est := (int64(a.n) - ccG) * a.thresholds[0]
	for i := 0; i < top; i++ {
		cc := int64(a.levels[i].NumComponents())
		est += (a.thresholds[i+1] - a.thresholds[i]) * (cc - ccG)
	}
	return est
}

// ApproxMSF maintains a (1+ε)-approximate minimum spanning forest under
// fully dynamic updates (Section 7.2.2), reusing the level instances of
// ApproxMSFWeight and extracting a forest from the per-level spanning
// forests.
type ApproxMSF struct {
	*ApproxMSFWeight
}

// NewApproxMSF builds the level structure for approximate-forest
// maintenance.
func NewApproxMSF(cfg core.Config, eps float64, maxWeight int64) (*ApproxMSF, error) {
	w, err := NewApproxMSFWeight(cfg, eps, maxWeight)
	if err != nil {
		return nil, err
	}
	return &ApproxMSF{ApproxMSFWeight: w}, nil
}

// Snapshot extracts the approximate MSF: an edge of level i's spanning
// forest F_i joins the output iff its endpoints are disconnected in
// G_{i-1} (checked against level i-1's component labels); all F_0 edges
// join. Each output edge is charged its level's threshold weight, which is
// within (1+ε) of its true weight.
func (a *ApproxMSF) Snapshot() []graph.WeightedEdge {
	var out []graph.WeightedEdge
	var prevLabels []int
	for i, dc := range a.levels {
		forest := dc.SnapshotForest()
		labels := dc.SnapshotComponents()
		for _, e := range forest {
			if i == 0 || prevLabels[e.U] != prevLabels[e.V] {
				out = append(out, graph.WeightedEdge{Edge: e, Weight: a.thresholds[i]})
			}
		}
		prevLabels = labels
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
