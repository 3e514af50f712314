package msf

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/oracle"
	"repro/internal/snapshot"
	"repro/internal/workload"
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
	// Ties go to the edge the forest holds: 0-2 is not taken.
	want := []graph.WeightedEdge{graph.NewWeightedEdge(0, 1, 5), graph.NewWeightedEdge(1, 2, 5)}
	if got := em.m.Snapshot(); !slices.Equal(got, want) {
		t.Errorf("forest %v, want %v", got, want)
	}
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

// TestExactMSFVirtualTree inserts one batch over the trees 0-1-2, 1-3-4
// (vertex 1 branches and is no terminal) and 5-6-7: 0-4 and 2-4 close
// cycles that share the virtual edge 1→3, which carries the heaviest edge
// of both, and 7-0 closes a cycle through both trees only with 3-5, a batch
// edge that joins them. Weights are distinct, so the MSF is unique and is
// checked edge for edge against Kruskal.
func TestExactMSFVirtualTree(t *testing.T) {
	em := newExactMirror(t, 64, 0.6, 9)
	em.insert(graph.NewWeightedEdge(0, 1, 10), graph.NewWeightedEdge(1, 2, 20), graph.NewWeightedEdge(1, 3, 30), graph.NewWeightedEdge(3, 4, 6))
	em.insert(graph.NewWeightedEdge(5, 6, 11), graph.NewWeightedEdge(6, 7, 40))
	em.insert(
		graph.NewWeightedEdge(0, 4, 12),
		graph.NewWeightedEdge(2, 4, 15),
		graph.NewWeightedEdge(3, 5, 1),
		graph.NewWeightedEdge(0, 7, 2),
	)
	em.check()
	want, _ := oracle.MSF(em.g)
	slices.SortFunc(want, func(a, b graph.WeightedEdge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	if got := em.m.Snapshot(); !slices.Equal(got, want) {
		t.Fatalf("forest %v, Kruskal %v", got, want)
	}
}

// TestExactMSFRoundBudget pins the rounds of an acyclic batch and of an
// exchanging batch at a shape whose trees have depth 1 (N 64, φ 0.6), and
// holds every batch of E4's churn at n = 1024 (φ 0.6, weights up to 64, 30
// batches of MaxBatch insertions) to the bound InsertBatch states: 21.
func TestExactMSFRoundBudget(t *testing.T) {
	em := newExactMirror(t, 64, 0.6, 1)
	rounds := func(edges ...graph.WeightedEdge) int {
		t.Helper()
		before := em.m.Forest().Cluster().Stats().Rounds
		em.insert(edges...)
		return em.m.Forest().Cluster().Stats().Rounds - before
	}
	// Cold labels (2), then one Link of singletons: its stats Ask (2) and
	// its relabel Tell (1).
	if r := rounds(graph.NewWeightedEdge(0, 1, 5), graph.NewWeightedEdge(1, 2, 9), graph.NewWeightedEdge(2, 3, 7)); r != 5 {
		t.Errorf("acyclic batch took %d rounds, want 5", r)
	}
	// Warm labels (0), the stats (2), the heaviest separating edges (2),
	// the Cut of 1-2 with its endpoints warm (6) and the Link of 0-2 (5):
	// the Cut left 0 and 2 in two tours of the component it split, so their
	// labels are parked and the Link asks them before its stats and its
	// relabel Tell.
	if r := rounds(graph.NewWeightedEdge(0, 2, 4)); r != 15 {
		t.Errorf("exchanging batch took %d rounds, want 15", r)
	}
	em.check()

	const n, bound = 1024, 21
	m, err := NewExactMSF(cfg(n, 0.6, 1))
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewChurn(workload.Config{N: n, Seed: 3, MaxWeight: 64})
	for i := 0; i < 30; i++ {
		var edges []graph.WeightedEdge
		for _, u := range gen.NextInsertOnly(m.Forest().Config().MaxBatch()) {
			edges = append(edges, graph.WeightedEdge{Edge: u.Edge, Weight: u.Weight})
		}
		before := m.Forest().Cluster().Stats().Rounds
		if err := m.InsertBatch(edges); err != nil {
			t.Fatal(err)
		}
		if r := m.Forest().Cluster().Stats().Rounds - before; r > bound {
			t.Errorf("batch %d took %d rounds, past the bound %d", i, r, bound)
		}
	}
	if _, want := oracle.MSF(gen.Mirror()); m.Weight() != want {
		t.Errorf("weight %d, Kruskal %d", m.Weight(), want)
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

// TestRetiredExactLayoutRejectedByTag feeds Load a container in the retired
// exact-MSF layout (0x20, which counted exchange waves ahead of the weight):
// it is rejected by tag, never migrated.
func TestRetiredExactLayoutRejectedByTag(t *testing.T) {
	e := snapshot.NewEncoder()
	e.Begin(0x20)
	e.Int(3) // exchange waves
	e.I64(0) // weight
	e.U64(0) // weight cached
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := NewExactMSF(cfg(16, 0.6, 3))
	if err != nil {
		t.Fatal(err)
	}
	err = snapshot.Load(&buf, m)
	if want := fmt.Sprintf("found section %#x where %#x was expected", 0x20, tagExactMSF); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("retired layout not rejected by tag: %v", err)
	}
}
