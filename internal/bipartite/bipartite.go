// Package bipartite maintains bipartiteness of a dynamically evolving graph
// in the streaming MPC model (Theorem 7.3). It runs the batch-dynamic
// connectivity algorithm on the input graph G and on its bipartite double
// cover G' (each vertex v becomes v1, v2; each edge {u, v} becomes
// {u1, v2} and {u2, v1}); G is bipartite iff G' has exactly twice as many
// connected components as G (Lemma 7.4, after [AGM12]).
package bipartite

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/snapshot"
)

// Tester maintains the bipartiteness of an n-vertex dynamic graph.
type Tester struct {
	n      int
	g      *core.DynamicConnectivity // the input graph
	cover  *core.DynamicConnectivity // the double cover on 2n vertices
	halved int
}

// New creates a tester for an empty graph on cfg.N vertices.
func New(cfg core.Config) (*Tester, error) {
	g, err := core.NewDynamicConnectivity(cfg)
	if err != nil {
		return nil, err
	}
	coverCfg := cfg
	coverCfg.N = 2 * cfg.N
	coverCfg.Seed = cfg.Seed ^ 0xb1fa
	cover, err := core.NewDynamicConnectivity(coverCfg)
	if err != nil {
		return nil, err
	}
	return &Tester{n: cfg.N, g: g, cover: cover}, nil
}

// MaxBatch returns the largest accepted update batch.
func (t *Tester) MaxBatch() int {
	// Each update maps to two cover updates; both instances must accept.
	b := t.g.MaxBatch()
	if c := t.cover.MaxBatch() / 2; c < b {
		b = c
	}
	return b
}

// ApplyBatch forwards a batch of unweighted updates to both maintained
// graphs. In a real MPC the two instances run side by side; the simulator
// executes them sequentially.
func (t *Tester) ApplyBatch(b graph.Batch) error {
	if len(b) > t.MaxBatch() {
		return fmt.Errorf("bipartite: batch of %d exceeds MaxBatch %d", len(b), t.MaxBatch())
	}
	if err := t.g.ApplyBatch(b); err != nil {
		return fmt.Errorf("bipartite: input graph: %w", err)
	}
	cb := make(graph.Batch, 0, 2*len(b))
	for _, u := range b {
		// v1 = v, v2 = n + v.
		cb = append(cb,
			graph.Update{Op: u.Op, Edge: graph.NewEdge(u.Edge.U, t.n+u.Edge.V)},
			graph.Update{Op: u.Op, Edge: graph.NewEdge(t.n+u.Edge.U, u.Edge.V)},
		)
	}
	if err := t.cover.ApplyBatch(cb); err != nil {
		return fmt.Errorf("bipartite: double cover: %w", err)
	}
	return nil
}

// IsBipartite answers the maintained query: G is bipartite iff
// cc(G') == 2*cc(G). Both counts are O(1/φ)-round MPC queries, cached by
// their connectivity instances between updates, so repeated readouts
// between batches cost zero rounds.
func (t *Tester) IsBipartite() bool {
	return t.cover.NumComponents() == 2*t.g.NumComponents()
}

// Checkpoint serializes both maintained connectivity instances (input
// graph, then double cover) into a crash-safe snapshot; see package
// snapshot.
func (t *Tester) Checkpoint(e *snapshot.Encoder) {
	t.g.Checkpoint(e)
	t.cover.Checkpoint(e)
}

// Restore loads a checkpoint written by Checkpoint, at any machine count,
// into this freshly constructed tester. On error the instance must be
// discarded.
func (t *Tester) Restore(d *snapshot.Decoder) error {
	if err := t.g.Restore(d); err != nil {
		return fmt.Errorf("bipartite: input graph: %w", err)
	}
	if err := t.cover.Restore(d); err != nil {
		return fmt.Errorf("bipartite: double cover: %w", err)
	}
	return nil
}

// Graph exposes the connectivity instance on G (for metering).
func (t *Tester) Graph() *core.DynamicConnectivity { return t.g }

// Cover exposes the connectivity instance on the double cover.
func (t *Tester) Cover() *core.DynamicConnectivity { return t.cover }

// SearchStats sums the replacement-search counters of G and of its double
// cover.
func (t *Tester) SearchStats() core.SearchStats {
	s := t.g.SearchStats()
	s.Add(t.cover.SearchStats())
	return s
}

// Clusters returns the clusters of G and of its double cover, in that order.
func (t *Tester) Clusters() []*mpc.Cluster {
	return []*mpc.Cluster{t.g.Cluster(), t.cover.Cluster()}
}
