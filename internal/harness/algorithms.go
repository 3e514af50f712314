package harness

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/msf"
	"repro/internal/nowickionak"
	"repro/internal/oracle"
)

// This file adapts every dynamic algorithm in the repository to the
// harness Instance interface and registers it. Each adapter's Check method
// is the brute-force differential oracle for that algorithm's maintained
// solution — the single source of truth the experiments and CLIs reuse.

// coreCfg builds the standard cluster configuration from the options.
func (o Options) coreCfg() core.Config {
	return core.Config{
		N:                  o.N,
		Phi:                o.Phi,
		Seed:               o.Seed,
		Parallelism:        o.Parallelism,
		VerticesPerMachine: o.VerticesPerMachine,
	}
}

// VerifyConnectivity cross-checks a dynamic-connectivity instance against
// the sequential oracle with batched readouts only: one SnapshotComponents
// readout for the full label comparison, one spanning-forest check, and one
// ConnectedAll collective over a deterministic pair sample (never a
// per-pair query loop), so a differential check costs O(1) collective
// operations per batch regardless of n.
func VerifyConnectivity(dc *core.DynamicConnectivity, g *graph.Graph) error {
	want := oracle.Components(g)
	got := dc.SnapshotComponents()
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("component of vertex %d diverged (%d vs oracle %d)", v, got[v], want[v])
		}
	}
	if !oracle.IsSpanningForest(g, dc.SnapshotForest()) {
		return fmt.Errorf("maintained forest is not a spanning forest of the mirror")
	}
	// Exercise the batched query engine itself: its answers must match the
	// oracle labels (this also covers the label cache, which the preceding
	// snapshot does not touch).
	n := g.N()
	pairs := make([]core.Pair, 0, 32)
	for i := 0; i < 16 && i+1 < n; i++ {
		pairs = append(pairs, core.Pair{U: i, V: i + 1}, core.Pair{U: i, V: n - 1 - i})
	}
	for i, conn := range dc.ConnectedAll(pairs) {
		p := pairs[i]
		if conn != (want[p.U] == want[p.V]) {
			return fmt.Errorf("ConnectedAll(%d, %d) = %v, oracle %v", p.U, p.V, conn, !conn)
		}
	}
	return nil
}

// The adapters embed their algorithm, so whatever part of the Instance (and
// snapshot.DeltaState) contract the algorithm already implements
// under the contract's own method names is promoted as is; an adapter spells
// out only what the algorithm names differently or does not have.

// connectivity supports delta checkpoints (snapshot.DeltaState), so harness
// chains alternate full and delta containers for it.
type connectivityInstance struct{ *core.DynamicConnectivity }

func (c connectivityInstance) Check(g *graph.Graph) error {
	return VerifyConnectivity(c.DynamicConnectivity, g)
}
func (c connectivityInstance) Rounds() int { return c.Cluster().Stats().Rounds }

type bipartiteInstance struct{ *bipartite.Tester }

func (b bipartiteInstance) Rounds() int {
	return b.Graph().Cluster().Stats().Rounds + b.Cover().Cluster().Stats().Rounds
}
func (b bipartiteInstance) Check(g *graph.Graph) error {
	got, want := b.IsBipartite(), oracle.IsBipartite(g)
	if got != want {
		return fmt.Errorf("bipartiteness %v, oracle %v", got, want)
	}
	return nil
}

type exactMSFInstance struct{ *msf.ExactMSF }

func (e exactMSFInstance) MaxBatch() int { return e.Forest().Config().MaxBatch() }
func (e exactMSFInstance) Rounds() int   { return e.Forest().Cluster().Stats().Rounds }
func (e exactMSFInstance) ApplyBatch(b graph.Batch) error {
	edges := make([]graph.WeightedEdge, 0, len(b))
	for _, u := range b {
		if u.Op != graph.Insert {
			return fmt.Errorf("exact MSF fed a deletion %v", u)
		}
		edges = append(edges, graph.WeightedEdge{Edge: u.Edge, Weight: u.Weight})
	}
	return e.InsertBatch(edges)
}
func (e exactMSFInstance) Check(g *graph.Graph) error {
	_, want := oracle.MSF(g)
	if got := e.Weight(); got != want {
		return fmt.Errorf("MSF weight %d, Kruskal %d", got, want)
	}
	snapshot := e.Snapshot()
	forest := make([]graph.Edge, 0, len(snapshot))
	var total int64
	for _, we := range snapshot {
		forest = append(forest, we.Edge)
		total += we.Weight
	}
	if !oracle.IsSpanningForest(g, forest) {
		return fmt.Errorf("maintained MSF is not a spanning forest of the mirror")
	}
	if total != want {
		return fmt.Errorf("maintained forest weighs %d, Kruskal %d", total, want)
	}
	return nil
}

type approxMSFInstance struct {
	*msf.ApproxMSF
	eps float64
}

func (a approxMSFInstance) Rounds() int { return -1 }
func (a approxMSFInstance) Check(g *graph.Graph) error {
	_, want := oracle.MSF(g)
	if want == 0 {
		// No spanning edges: both estimates must read exactly zero (a stale
		// positive weight after the last deletion is a real divergence).
		if est := a.Weight(); est != 0 {
			return fmt.Errorf("weight estimate %d on a forestless mirror", est)
		}
		if fw := a.ForestWeight(); fw != 0 {
			return fmt.Errorf("forest weight %d on a forestless mirror", fw)
		}
		return nil
	}
	bound := (1 + a.eps) * float64(want)
	if est := a.Weight(); float64(est) < float64(want) || float64(est) > bound {
		return fmt.Errorf("weight estimate %d outside [%d, %.1f]", est, want, bound)
	}
	if fw := a.ForestWeight(); float64(fw) < float64(want) || float64(fw) > bound {
		return fmt.Errorf("forest weight %d outside [%d, %.1f]", fw, want, bound)
	}
	return nil
}

type greedyMatchingInstance struct{ *matching.GreedyInsertOnly }

func (g greedyMatchingInstance) MaxBatch() int { return 8 }
func (g greedyMatchingInstance) Rounds() int   { return g.Cluster().Stats().Rounds }
func (g greedyMatchingInstance) ApplyBatch(b graph.Batch) error {
	edges := make([]graph.Edge, 0, len(b))
	for _, u := range b {
		if u.Op != graph.Insert {
			return fmt.Errorf("greedy matching fed a deletion %v", u)
		}
		edges = append(edges, u.Edge)
	}
	return g.InsertBatch(edges)
}
func (g greedyMatchingInstance) Check(mirror *graph.Graph) error {
	m := g.Matching()
	if g.Size() < g.Cap() {
		// Below the α-cap the greedy matching must be maximal (hence a
		// 2-approximation); at the cap it legitimately stops growing.
		if !oracle.IsMaximalMatching(mirror, m) {
			return fmt.Errorf("matching of size %d not maximal below cap %d", g.Size(), g.Cap())
		}
		return nil
	}
	if !oracle.IsMatching(mirror, m) {
		return fmt.Errorf("output is not a matching of the mirror")
	}
	return nil
}

type aklyInstance struct {
	*matching.AKLYDynamic
	alpha float64
}

func (a aklyInstance) MaxBatch() int { return 8 }
func (a aklyInstance) Rounds() int   { return -1 }
func (a aklyInstance) Check(g *graph.Graph) error {
	m := a.Matching()
	if !oracle.IsMatching(g, m) {
		return fmt.Errorf("AKLY output is not a matching of the mirror")
	}
	if opt := oracle.MaxMatchingSize(g); a.Size() > opt {
		return fmt.Errorf("AKLY size %d exceeds maximum matching %d", a.Size(), opt)
	}
	return nil
}

// FinalCheck asserts the O(α) approximation with the implementation
// constant used by the package tests (4α); it is a w.h.p. bound, too noisy
// to demand after every batch but stable at the end of a seeded stream.
func (a aklyInstance) FinalCheck(g *graph.Graph) error {
	opt := oracle.MaxMatchingSize(g)
	if got := a.Size(); float64(got)*4*a.alpha < float64(opt) {
		return fmt.Errorf("AKLY size %d not within 4α of OPT %d (α=%.1f)", got, opt, a.alpha)
	}
	return nil
}

type nowickiOnakInstance struct{ *nowickionak.Matcher }

func (n nowickiOnakInstance) MaxBatch() int { return 8 }
func (n nowickiOnakInstance) Rounds() int   { return n.Cluster().Stats().Rounds }
func (n nowickiOnakInstance) Check(g *graph.Graph) error {
	if !oracle.IsMaximalMatching(g, n.Matching()) {
		return fmt.Errorf("maintained matching is not maximal on the mirror")
	}
	return nil
}

func init() {
	registerAlgorithm(Algorithm{
		Name: "connectivity",
		New: func(opt Options) (Instance, error) {
			dc, err := core.NewDynamicConnectivity(opt.coreCfg())
			if err != nil {
				return nil, err
			}
			return connectivityInstance{dc}, nil
		},
	})
	registerAlgorithm(Algorithm{
		Name: "bipartite",
		New: func(opt Options) (Instance, error) {
			t, err := bipartite.New(opt.coreCfg())
			if err != nil {
				return nil, err
			}
			return bipartiteInstance{t}, nil
		},
	})
	registerAlgorithm(Algorithm{
		Name:         "msf",
		InsertOnly:   true,
		NeedsWeights: true,
		New: func(opt Options) (Instance, error) {
			m, err := msf.NewExactMSF(opt.coreCfg())
			if err != nil {
				return nil, err
			}
			return exactMSFInstance{m}, nil
		},
	})
	registerAlgorithm(Algorithm{
		Name:         "approxmsf",
		NeedsWeights: true,
		New: func(opt Options) (Instance, error) {
			a, err := msf.NewApproxMSF(opt.coreCfg(), opt.Eps, opt.MaxWeight)
			if err != nil {
				return nil, err
			}
			return approxMSFInstance{a, opt.Eps}, nil
		},
	})
	registerAlgorithm(Algorithm{
		Name:       "matching",
		InsertOnly: true,
		New: func(opt Options) (Instance, error) {
			gm, err := matching.NewGreedyInsertOnly(opt.N, opt.Alpha, opt.VerticesPerMachine)
			if err != nil {
				return nil, err
			}
			return greedyMatchingInstance{gm}, nil
		},
	})
	registerAlgorithm(Algorithm{
		Name: "dynmatching",
		New: func(opt Options) (Instance, error) {
			d, err := matching.NewAKLYDynamic(opt.N, opt.Alpha, opt.Seed, opt.VerticesPerMachine)
			if err != nil {
				return nil, err
			}
			return aklyInstance{d, opt.Alpha}, nil
		},
	})
	registerAlgorithm(Algorithm{
		Name: "nowickionak",
		New: func(opt Options) (Instance, error) {
			m, err := nowickionak.New(nowickionak.Config{N: opt.N, VerticesPerMachine: opt.VerticesPerMachine})
			if err != nil {
				return nil, err
			}
			return nowickiOnakInstance{m}, nil
		},
	})
}
