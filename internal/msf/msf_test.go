package msf

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/oracle"
	"repro/internal/snapshot"
)

func cfg(n int, phi float64, seed uint64) core.Config {
	return core.Config{N: n, Phi: phi, Seed: seed}
}

// exactMirror pairs an ExactMSF with a reference graph.
type exactMirror struct {
	t *testing.T
	m *ExactMSF
	g *graph.Graph
}

func newExactMirror(t *testing.T, n int, phi float64, seed uint64) *exactMirror {
	t.Helper()
	m, err := NewExactMSF(cfg(n, phi, seed))
	if err != nil {
		t.Fatal(err)
	}
	return &exactMirror{t: t, m: m, g: graph.New(n)}
}

func (em *exactMirror) insert(edges ...graph.WeightedEdge) {
	em.t.Helper()
	for _, e := range edges {
		if err := em.g.Insert(e.U, e.V, e.Weight); err != nil {
			em.t.Fatal(err)
		}
	}
	if err := em.m.InsertBatch(edges); err != nil {
		em.t.Fatal(err)
	}
}

func (em *exactMirror) check() {
	em.t.Helper()
	_, wantWeight := oracle.MSF(em.g)
	if got := em.m.Weight(); got != wantWeight {
		em.t.Fatalf("MSF weight = %d, oracle %d", got, wantWeight)
	}
	forest := em.m.Snapshot()
	plain := make([]graph.Edge, len(forest))
	for i, e := range forest {
		plain[i] = e.Edge
		if w, ok := em.g.Weight(e.U, e.V); !ok || w != e.Weight {
			em.t.Fatalf("forest edge %v carries weight %d, graph has %d (present %v)", e.Edge, e.Weight, w, ok)
		}
	}
	if !oracle.IsSpanningForest(em.g, plain) {
		em.t.Fatalf("maintained MSF is not a spanning forest: %v", plain)
	}
	if v := em.m.Forest().Cluster().Stats().Violations; len(v) > 0 {
		em.t.Fatalf("violations: %v", v[0])
	}
}

func TestExactMSFSimpleInserts(t *testing.T) {
	em := newExactMirror(t, 16, 0.7, 1)
	em.insert(graph.NewWeightedEdge(0, 1, 5))
	em.check()
	em.insert(graph.NewWeightedEdge(1, 2, 3), graph.NewWeightedEdge(2, 3, 7))
	em.check()
}

func TestExactMSFCycleExchange(t *testing.T) {
	em := newExactMirror(t, 16, 0.7, 2)
	em.insert(graph.NewWeightedEdge(0, 1, 10), graph.NewWeightedEdge(1, 2, 20))
	em.check()
	// Closing edge lighter than the heaviest path edge: must exchange.
	em.insert(graph.NewWeightedEdge(0, 2, 5))
	em.check()
	if em.m.Weight() != 15 {
		t.Errorf("weight = %d, want 15", em.m.Weight())
	}
	// Closing edge heavier than every path edge: must be discarded.
	em.insert(graph.NewWeightedEdge(2, 3, 1))
	em.insert(graph.NewWeightedEdge(0, 3, 99))
	em.check()
	if em.m.Weight() != 16 {
		t.Errorf("weight = %d, want 16", em.m.Weight())
	}
}

func TestExactMSFInteractingBatch(t *testing.T) {
	// Two new edges whose exchange paths share the heaviest edge: the wave
	// iteration must resolve both correctly.
	em := newExactMirror(t, 16, 0.7, 3)
	em.insert(
		graph.NewWeightedEdge(0, 1, 2),
		graph.NewWeightedEdge(1, 2, 100), // heavy bridge
		graph.NewWeightedEdge(2, 3, 2),
	)
	em.check()
	em.insert(
		graph.NewWeightedEdge(0, 2, 50), // both want to replace the bridge
		graph.NewWeightedEdge(1, 3, 40),
	)
	em.check()
}

func TestExactMSFEqualWeights(t *testing.T) {
	em := newExactMirror(t, 12, 0.7, 4)
	em.insert(
		graph.NewWeightedEdge(0, 1, 5),
		graph.NewWeightedEdge(1, 2, 5),
	)
	em.insert(graph.NewWeightedEdge(0, 2, 5)) // tie: no improvement
	em.check()
}

func TestExactMSFRandomizedAgainstKruskal(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized test")
	}
	for _, seed := range []uint64{11, 12, 13, 14} {
		seed := seed
		t.Run("", func(t *testing.T) {
			const n = 24
			em := newExactMirror(t, n, 0.6, seed)
			prg := hash.NewPRG(seed * 131)
			maxB := em.m.Forest().Config().MaxBatch()
			for step := 0; step < 20; step++ {
				var batch []graph.WeightedEdge
				tried := map[graph.Edge]bool{}
				size := 1 + int(prg.NextN(uint64(maxB)))
				for attempts := 0; len(batch) < size && attempts < 100; attempts++ {
					u, v := int(prg.NextN(n)), int(prg.NextN(n))
					if u == v {
						continue
					}
					e := graph.NewEdge(u, v)
					if tried[e] || em.g.Has(e.U, e.V) {
						continue
					}
					tried[e] = true
					batch = append(batch, graph.WeightedEdge{Edge: e, Weight: int64(prg.NextN(50) + 1)})
				}
				if len(batch) == 0 {
					continue
				}
				em.insert(batch...)
				em.check()
			}
		})
	}
}

func TestApproxMSFWeightExactOnUnitWeights(t *testing.T) {
	a, err := NewApproxMSF(cfg(16, 0.7, 5), 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Levels()) != 1 {
		t.Fatalf("levels = %d", len(a.Levels()))
	}
	if err := a.ApplyBatch(graph.Batch{graph.InsW(0, 1, 1), graph.InsW(1, 2, 1)}); err != nil {
		t.Fatal(err)
	}
	if got := a.Weight(); got != 2 {
		t.Errorf("weight = %d, want 2", got)
	}
}

func TestApproxMSFWeightWithinFactor(t *testing.T) {
	for _, eps := range []float64{0.1, 0.25, 0.5} {
		eps := eps
		t.Run("", func(t *testing.T) {
			const n, maxW = 20, 64
			a, err := NewApproxMSF(cfg(n, 0.6, 6), eps, maxW)
			if err != nil {
				t.Fatal(err)
			}
			g := graph.New(n)
			prg := hash.NewPRG(777)
			for step := 0; step < 10; step++ {
				var b graph.Batch
				for len(b) < a.MaxBatch() {
					u, v := int(prg.NextN(n)), int(prg.NextN(n))
					if u == v {
						continue
					}
					e := graph.NewEdge(u, v)
					w := int64(prg.NextN(maxW) + 1)
					if g.Has(e.U, e.V) {
						if prg.Next()&1 == 0 {
							w, _ = g.Weight(e.U, e.V)
							_ = g.Delete(e.U, e.V)
							b = append(b, graph.DelW(e.U, e.V, w))
						}
					} else {
						_ = g.Insert(e.U, e.V, w)
						b = append(b, graph.InsW(e.U, e.V, w))
					}
				}
				if err := a.ApplyBatch(b); err != nil {
					t.Fatal(err)
				}
				_, want := oracle.MSF(g)
				got := a.Weight()
				if got < want {
					t.Fatalf("step %d: estimate %d below true weight %d", step, got, want)
				}
				if float64(got) > (1+eps)*float64(want)+1e-9 {
					t.Fatalf("step %d: estimate %d exceeds (1+%v)*%d", step, got, eps, want)
				}
			}
		})
	}
}

func TestApproxMSFForest(t *testing.T) {
	const n, maxW, eps = 16, 32, 0.25
	a, err := NewApproxMSF(cfg(n, 0.7, 7), eps, maxW)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(n)
	prg := hash.NewPRG(88)
	for step := 0; step < 8; step++ {
		var b graph.Batch
		for len(b) < a.MaxBatch() {
			u, v := int(prg.NextN(n)), int(prg.NextN(n))
			if u == v {
				continue
			}
			e := graph.NewEdge(u, v)
			if g.Has(e.U, e.V) {
				continue
			}
			w := int64(prg.NextN(maxW) + 1)
			_ = g.Insert(e.U, e.V, w)
			b = append(b, graph.InsW(e.U, e.V, w))
		}
		if err := a.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		forest := a.Snapshot()
		plain := make([]graph.Edge, len(forest))
		for i, e := range forest {
			plain[i] = e.Edge
		}
		if !oracle.IsSpanningForest(g, plain) {
			t.Fatalf("step %d: extracted forest not spanning: %v", step, plain)
		}
		_, want := oracle.MSF(g)
		got := a.ForestWeight()
		if got < want {
			t.Fatalf("step %d: forest weight %d below MSF %d", step, got, want)
		}
		if float64(got) > (1+eps)*float64(want)+1e-9 {
			t.Fatalf("step %d: forest weight %d exceeds (1+%v)*%d", step, got, eps, want)
		}
	}
}

func TestApproxMSFValidation(t *testing.T) {
	if _, err := NewApproxMSF(cfg(8, 0.5, 1), 0, 10); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := NewApproxMSF(cfg(8, 0.5, 1), 0.5, 0); err == nil {
		t.Error("maxWeight=0 accepted")
	}
}

func TestExactMSFBatchCap(t *testing.T) {
	m, err := NewExactMSF(cfg(16, 0.5, 8))
	if err != nil {
		t.Fatal(err)
	}
	big := make([]graph.WeightedEdge, m.Forest().Config().MaxBatch()+1)
	for i := range big {
		big[i] = graph.NewWeightedEdge(0, i+1, 1)
	}
	if err := m.InsertBatch(big); err == nil {
		t.Error("oversized batch accepted")
	}
}

func TestApproxMSFUnderDeletions(t *testing.T) {
	// Build up weight, then delete batches; the estimate must track the
	// shrinking true weight within (1+eps) throughout.
	const n, maxW, eps = 20, 32, 0.25
	a, err := NewApproxMSF(cfg(n, 0.6, 17), eps, maxW)
	if err != nil {
		t.Fatal(err)
	}
	gen := struct {
		g *graph.Graph
	}{graph.New(n)}
	prg := hash.NewPRG(18)
	var inserted []graph.WeightedEdge
	for len(inserted) < 30 {
		u, v := int(prg.NextN(n)), int(prg.NextN(n))
		if u == v || gen.g.Has(u, v) {
			continue
		}
		w := int64(prg.NextN(maxW) + 1)
		_ = gen.g.Insert(u, v, w)
		inserted = append(inserted, graph.NewWeightedEdge(u, v, w))
	}
	for i := 0; i < len(inserted); i += a.MaxBatch() {
		end := i + a.MaxBatch()
		if end > len(inserted) {
			end = len(inserted)
		}
		var b graph.Batch
		for _, e := range inserted[i:end] {
			b = append(b, graph.InsW(e.U, e.V, e.Weight))
		}
		if err := a.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	// Delete in batches, checking the envelope after each.
	for round := 0; round < 4; round++ {
		edges := gen.g.Edges()
		if len(edges) == 0 {
			break
		}
		var b graph.Batch
		for i := 0; i < a.MaxBatch() && i < len(edges); i++ {
			e := edges[i]
			_ = gen.g.Delete(e.U, e.V)
			b = append(b, graph.DelW(e.U, e.V, e.Weight))
		}
		if err := a.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		_, want := oracle.MSF(gen.g)
		got := a.Weight()
		if got < want || float64(got) > (1+eps)*float64(want)+1e-9 {
			t.Fatalf("round %d: estimate %d outside [%d, %.1f]", round, got, want, (1+eps)*float64(want))
		}
	}
}

func TestExactMSFSnapshotWeightsMatchGraph(t *testing.T) {
	em := newExactMirror(t, 16, 0.7, 19)
	em.insert(
		graph.NewWeightedEdge(0, 1, 4),
		graph.NewWeightedEdge(1, 2, 6),
	)
	for _, e := range em.m.Snapshot() {
		w, ok := em.g.Weight(e.U, e.V)
		if !ok || w != e.Weight {
			t.Errorf("snapshot edge %v weight %d, graph %d (ok %v)", e.Edge, e.Weight, w, ok)
		}
	}
}

// TestRestoreCountsTheWeightReadout hand-builds exact-MSF containers, as
// outside input would arrive, whose coordinator holds exactly its budget of
// 64 words (1 vertex per machine) without the cached weight readout: the
// edge shard's word and 31 warm labels with a cached component count. With
// the weight cached the readout's word (weightMeter) overflows the
// coordinator, so the load is rejected and the target left untouched;
// uncached, the same container loads.
func TestRestoreCountsTheWeightReadout(t *testing.T) {
	shape := core.Config{N: 32, Phi: 0.6, Seed: 3, VerticesPerMachine: 1}
	build := func(weightOK bool) []byte {
		e := snapshot.NewEncoder()
		e.Begin(tagExactMSF)
		e.Int(0) // swap waves
		e.I64(0) // weight
		if weightOK {
			e.U64(1)
		} else {
			e.U64(0)
		}
		e.Begin(0x1A) // the forest
		e.Int(shape.N)
		e.U64(math.Float64bits(shape.Phi))
		e.Int(shape.SketchCopies)
		e.U64(shape.Seed)
		e.U64(1)                   // weighted
		e.U64(1)                   // next tour id
		e.U64(1)                   // component count cached
		e.U64(1<<31 - 1)           // warm set: vertices 0..30
		e.Words(make([]uint64, 8)) // zero Stats: seven counters, no violations
		e.Int(0)                   // no tree edges
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	m, err := NewExactMSF(shape)
	if err != nil {
		t.Fatal(err)
	}
	err = snapshot.Load(bytes.NewReader(build(true)), m)
	if err == nil || !strings.Contains(err.Error(), "machine 32 needs 65 words") {
		t.Fatalf("coordinator past its budget not rejected: %v", err)
	}
	if m.weightOK {
		t.Fatal("the rejected load installed the weight readout")
	}
	if err := snapshot.Load(bytes.NewReader(build(false)), m); err != nil {
		t.Fatalf("the container without the weight readout: %v", err)
	}
}
