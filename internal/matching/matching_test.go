package matching

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/hash"
	"repro/internal/oracle"
)

// randomInsertStream builds a random insertion-only stream on n vertices.
func randomInsertStream(n, edges int, seed uint64) (*graph.Graph, []graph.Edge) {
	g := graph.New(n)
	prg := hash.NewPRG(seed)
	var out []graph.Edge
	for len(out) < edges {
		u, v := int(prg.NextN(uint64(n))), int(prg.NextN(uint64(n)))
		if u == v || g.Has(u, v) {
			continue
		}
		_ = g.Insert(u, v, 0)
		out = append(out, graph.NewEdge(u, v))
	}
	return g, out
}

func TestGreedyValidation(t *testing.T) {
	if _, err := NewGreedyInsertOnly(1, 2, 0); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewGreedyInsertOnly(8, 1, 0); err == nil {
		t.Error("alpha=1 accepted")
	}
}

func TestGreedyMatchingValidAndBounded(t *testing.T) {
	const n, alpha = 32, 4.0
	g, stream := randomInsertStream(n, 60, 1)
	gm, err := NewGreedyInsertOnly(n, alpha, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(stream); i += 10 {
		end := min(i+10, len(stream))
		if err := gm.InsertBatch(stream[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	m := gm.Matching()
	if !oracle.IsMatching(g, m) {
		t.Fatalf("greedy output is not a matching: %v", m)
	}
	if len(m) != gm.Size() {
		t.Errorf("Size %d != len(Matching) %d", gm.Size(), len(m))
	}
	if gm.Size() > gm.Cap() {
		t.Errorf("size %d exceeds cap %d", gm.Size(), gm.Cap())
	}
	// O(α) approximation: either maximal (2-approx) or at cap >= 2n/α >=
	// OPT·(4/α) since OPT <= n/2.
	opt := oracle.MaxMatchingSize(g)
	if gm.Size() < gm.Cap() {
		// Must be maximal w.r.t. all inserted edges.
		covered := map[int]bool{}
		for _, e := range m {
			covered[e.U] = true
			covered[e.V] = true
		}
		for _, e := range stream {
			if !covered[e.U] && !covered[e.V] {
				t.Fatalf("edge %v violates maximality below cap", e)
			}
		}
	}
	if float64(gm.Size())*alpha*2 < float64(opt) {
		t.Errorf("size %d not within O(α) of OPT %d", gm.Size(), opt)
	}
}

func TestGreedyStopsAtCap(t *testing.T) {
	const n, alpha = 64, 8.0
	_, stream := randomInsertStream(n, 200, 2)
	gm, err := NewGreedyInsertOnly(n, alpha, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(stream); i += 20 {
		end := min(i+20, len(stream))
		if err := gm.InsertBatch(stream[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if gm.Size() > gm.Cap() {
		t.Errorf("size %d exceeded cap %d", gm.Size(), gm.Cap())
	}
}

func TestAKLYValidation(t *testing.T) {
	if _, err := NewAKLYDynamic(2, 2, 1, 0); err == nil {
		t.Error("n=2 accepted")
	}
	if _, err := NewAKLYDynamic(16, 1, 1, 0); err == nil {
		t.Error("alpha=1 accepted")
	}
}

func TestAKLYDynamicApproximation(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	const n, alpha = 32, 2.0
	d, err := NewAKLYDynamic(n, alpha, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(n)
	prg := hash.NewPRG(33)
	for step := 0; step < 10; step++ {
		var b graph.Batch
		for len(b) < 8 {
			u, v := int(prg.NextN(n)), int(prg.NextN(n))
			if u == v {
				continue
			}
			e := graph.NewEdge(u, v)
			if g.Has(e.U, e.V) {
				if prg.Next()&3 == 0 {
					_ = g.Delete(e.U, e.V)
					b = append(b, graph.Del(e.U, e.V))
				}
			} else {
				_ = g.Insert(e.U, e.V, 0)
				b = append(b, graph.Ins(e.U, e.V))
			}
		}
		if err := d.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		// The output must always be a valid matching of G.
		if m := d.Matching(); !oracle.IsMatching(g, m) {
			t.Fatalf("step %d: AKLY output is not a matching of G: %v", step, m)
		}
	}
	opt := oracle.MaxMatchingSize(g)
	got := d.Size()
	if got > opt {
		t.Fatalf("matching size %d exceeds OPT %d", got, opt)
	}
	// O(α) approximation with implementation constants: allow 4α.
	if float64(got)*4*alpha < float64(opt) {
		t.Errorf("size %d not within 4α of OPT %d", got, opt)
	}
}

func TestInsertOnlyEstimator(t *testing.T) {
	const n, alpha = 48, 2.0
	s, err := NewInsertOnlySizeEstimator(n, alpha, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, stream := randomInsertStream(n, 80, 6)
	for i := 0; i < len(stream); i += 16 {
		end := min(i+16, len(stream))
		if err := s.InsertBatch(stream[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	opt := oracle.MaxMatchingSize(g)
	est := s.Estimate()
	if float64(est)*2*alpha < float64(opt) {
		t.Errorf("estimate %d too low for OPT %d", est, opt)
	}
	if float64(est) > 4*alpha*float64(opt)+2*alpha {
		t.Errorf("estimate %d too high for OPT %d", est, opt)
	}
}

func TestInsertOnlyEstimatorSmallRegimeExact(t *testing.T) {
	// A single edge: the full greedy matching is unsaturated and exact.
	const n = 64
	s, err := NewInsertOnlySizeEstimator(n, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertBatch([]graph.Edge{graph.NewEdge(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if est := s.Estimate(); est != 2 {
		t.Errorf("estimate = %d, want 2 (= 2*|M| for OPT 1)", est)
	}
}

func TestDynamicEstimator(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	const n, alpha = 32, 2.0
	d, err := NewDynamicSizeEstimator(n, alpha, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(n)
	prg := hash.NewPRG(44)
	for step := 0; step < 8; step++ {
		var b graph.Batch
		for len(b) < 6 {
			u, v := int(prg.NextN(n)), int(prg.NextN(n))
			if u == v {
				continue
			}
			e := graph.NewEdge(u, v)
			if g.Has(e.U, e.V) {
				if prg.Next()&3 == 0 {
					_ = g.Delete(e.U, e.V)
					b = append(b, graph.Del(e.U, e.V))
				}
			} else {
				_ = g.Insert(e.U, e.V, 0)
				b = append(b, graph.Ins(e.U, e.V))
			}
		}
		if err := d.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	opt := oracle.MaxMatchingSize(g)
	est := d.Estimate()
	if opt > 0 && float64(est)*4*alpha < float64(opt) {
		t.Errorf("estimate %d too low for OPT %d", est, opt)
	}
	if float64(est) > 4*alpha*alpha*float64(opt)+4*alpha {
		t.Errorf("estimate %d too high for OPT %d", est, opt)
	}
}

func TestDynamicEstimatorValidation(t *testing.T) {
	if _, err := NewDynamicSizeEstimator(16, 1, 4, 1); err == nil {
		t.Error("alpha=1 accepted")
	}
}

func TestSparsifierMultiplicity(t *testing.T) {
	// Two testers can emit the same edge; deleting one occurrence must not
	// remove the edge from the matcher's graph. Exercised indirectly: the
	// dynamic estimator's testers share the matcher per tester, so here we
	// just verify a direct insert/insert/delete sequence on AKLY keeps a
	// valid matching.
	const n = 16
	d, err := NewAKLYDynamic(n, 2, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(n)
	b := graph.Batch{graph.Ins(0, 1), graph.Ins(2, 3), graph.Ins(0, 2)}
	_ = g.Apply(b)
	if err := d.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	del := graph.Batch{graph.Del(0, 1)}
	_ = g.Apply(del)
	if err := d.ApplyBatch(del); err != nil {
		t.Fatal(err)
	}
	if m := d.Matching(); !oracle.IsMatching(g, m) {
		t.Fatalf("output not a matching after churn: %v", m)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestGreedyEmptyBatchAndAccessors(t *testing.T) {
	gm, err := NewGreedyInsertOnly(16, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := gm.InsertBatch(nil); err != nil {
		t.Fatal(err)
	}
	if gm.Cluster() == nil {
		t.Fatal("nil cluster")
	}
	if gm.Size() != 0 || len(gm.Matching()) != 0 {
		t.Error("fresh structure not empty")
	}
}

func TestAKLYAccessorsAndMemory(t *testing.T) {
	d, err := NewAKLYDynamic(16, 2, 21, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Instances() < 2 {
		t.Errorf("instances = %d", d.Instances())
	}
	if err := d.ApplyBatch(graph.Batch{graph.Ins(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if d.SparsifierWords() <= 0 {
		t.Error("sparsifier memory not metered")
	}
}

func TestAKLYMemoryShrinksWithAlpha(t *testing.T) {
	small, err := NewAKLYDynamic(64, 2, 22, 0)
	if err != nil {
		t.Fatal(err)
	}
	large, err := NewAKLYDynamic(64, 8, 22, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.Batch{graph.Ins(0, 1), graph.Ins(2, 3)}
	if err := small.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := large.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if small.SparsifierWords() <= large.SparsifierWords() {
		t.Errorf("alpha=2 memory %d should exceed alpha=8 memory %d",
			small.SparsifierWords(), large.SparsifierWords())
	}
}

func TestInsertOnlyEstimatorSaturatedRegime(t *testing.T) {
	// Small cap (large alpha) on a dense graph: the estimator must switch
	// to the sampled regime and still return something sane.
	const n = 64
	s, err := NewInsertOnlySizeEstimator(n, 4, 23)
	if err != nil {
		t.Fatal(err)
	}
	g, stream := randomInsertStream(n, 160, 24)
	for i := 0; i < len(stream); i += 20 {
		if err := s.InsertBatch(stream[i:min(i+20, len(stream))]); err != nil {
			t.Fatal(err)
		}
	}
	opt := oracle.MaxMatchingSize(g)
	est := s.Estimate()
	if est <= 0 {
		t.Fatal("estimate non-positive on dense graph")
	}
	if est > n/2 {
		t.Errorf("estimate %d exceeds n/2", est)
	}
	_ = opt // the O(alpha) envelope is covered by TestInsertOnlyEstimator
}

func TestDynamicEstimatorAccessors(t *testing.T) {
	d, err := NewDynamicSizeEstimator(16, 2, 4, 25)
	if err != nil {
		t.Fatal(err)
	}
	if d.Testers() < 4 {
		t.Errorf("testers = %d", d.Testers())
	}
	if err := d.ApplyBatch(graph.Batch{graph.Ins(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if d.SamplerWords() <= 0 {
		t.Error("sampler memory not metered")
	}
	if est := d.Estimate(); est < 0 {
		t.Errorf("estimate = %d", est)
	}
}

func TestGreedyInsertAlreadyMatchedEndpoints(t *testing.T) {
	gm, err := NewGreedyInsertOnly(16, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := gm.InsertBatch([]graph.Edge{graph.NewEdge(0, 1)}); err != nil {
		t.Fatal(err)
	}
	// Edges touching matched vertices must be skipped.
	if err := gm.InsertBatch([]graph.Edge{graph.NewEdge(1, 2), graph.NewEdge(0, 3)}); err != nil {
		t.Fatal(err)
	}
	if gm.Size() != 1 {
		t.Errorf("size = %d, want 1", gm.Size())
	}
}

// TestGreedyDegenerateTopologies cross-checks the insertion-only greedy
// matching against the blossom oracle on each degenerate edge set: the
// output must be a matching, maximal whenever the α-cap is not binding
// (hence within 2x of optimal), and never larger than optimal.
func TestGreedyDegenerateTopologies(t *testing.T) {
	const n, alpha, batch = 36, 2.0, 8
	for _, name := range graphtest.TopologyNames {
		t.Run(name, func(t *testing.T) {
			edges := graphtest.Topology(name, n)
			gm, err := NewGreedyInsertOnly(n, alpha, 0)
			if err != nil {
				t.Fatal(err)
			}
			g := graph.New(n)
			for i := 0; i < len(edges); i += batch {
				b := edges[i:min(i+batch, len(edges))]
				for _, e := range b {
					if err := g.Insert(e.U, e.V, 0); err != nil {
						t.Fatal(err)
					}
				}
				if err := gm.InsertBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			opt := oracle.MaxMatchingSize(g)
			if gm.Size() > opt {
				t.Fatalf("size %d exceeds opt %d", gm.Size(), opt)
			}
			if gm.Size() < gm.Cap() {
				if !oracle.IsMaximalMatching(g, gm.Matching()) {
					t.Fatal("matching below the cap is not maximal")
				}
				if 2*gm.Size() < opt {
					t.Fatalf("size %d below opt/2 for opt %d", gm.Size(), opt)
				}
			} else if !oracle.IsMatching(g, gm.Matching()) {
				t.Fatal("capped output is not a matching")
			}
		})
	}
}

// TestAKLYDegenerateTopologies runs the fully dynamic AKLY matching over
// each degenerate topology: build it up, tear half of it down, and check
// validity plus the size bound against the blossom oracle at every step,
// with the 4α approximation bound at the end (the w.h.p. guarantee on a
// fixed seed).
func TestAKLYDegenerateTopologies(t *testing.T) {
	const n, alpha, batch = 36, 2.0, 8
	for _, name := range graphtest.TopologyNames {
		t.Run(name, func(t *testing.T) {
			edges := graphtest.Topology(name, n)
			d, err := NewAKLYDynamic(n, alpha, 17, 0)
			if err != nil {
				t.Fatal(err)
			}
			g := graph.New(n)
			check := func() {
				t.Helper()
				if m := d.Matching(); !oracle.IsMatching(g, m) {
					t.Fatalf("output %v is not a matching", m)
				}
				if opt := oracle.MaxMatchingSize(g); d.Size() > opt {
					t.Fatalf("size %d exceeds opt %d", d.Size(), opt)
				}
			}
			apply := func(b graph.Batch) {
				t.Helper()
				if err := g.Apply(b); err != nil {
					t.Fatal(err)
				}
				if err := d.ApplyBatch(b); err != nil {
					t.Fatal(err)
				}
				check()
			}
			for i := 0; i < len(edges); i += batch {
				var b graph.Batch
				for _, e := range edges[i:min(i+batch, len(edges))] {
					b = append(b, graph.Ins(e.U, e.V))
				}
				apply(b)
			}
			var dropped []graph.Edge
			for i := 0; i < len(edges); i += 2 {
				dropped = append(dropped, edges[i])
			}
			for i := 0; i < len(dropped); i += batch {
				var b graph.Batch
				for _, e := range dropped[i:min(i+batch, len(dropped))] {
					b = append(b, graph.Del(e.U, e.V))
				}
				apply(b)
			}
			opt := oracle.MaxMatchingSize(g)
			if float64(d.Size())*4*alpha < float64(opt) {
				t.Errorf("final size %d not within 4α of opt %d", d.Size(), opt)
			}
		})
	}
}
