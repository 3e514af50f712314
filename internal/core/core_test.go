package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/eulertour"
	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/oracle"
	"repro/internal/snapshot"
)

// mirror pairs a DynamicConnectivity with a sequential reference graph and
// cross-checks every derived solution.
type mirror struct {
	t  *testing.T
	dc *DynamicConnectivity
	g  *graph.Graph
}

func newMirror(t *testing.T, n int, phi float64, seed uint64) *mirror {
	t.Helper()
	dc, err := NewDynamicConnectivity(Config{N: n, Phi: phi, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return &mirror{t: t, dc: dc, g: graph.New(n)}
}

func (m *mirror) apply(b graph.Batch) {
	m.t.Helper()
	if err := m.g.Apply(b); err != nil {
		m.t.Fatalf("invalid batch against mirror: %v", err)
	}
	if err := m.dc.ApplyBatch(b); err != nil {
		m.t.Fatalf("ApplyBatch: %v", err)
	}
}

func (m *mirror) check() {
	m.t.Helper()
	want := oracle.Components(m.g)
	got := m.dc.SnapshotComponents()
	for v := range want {
		if got[v] != want[v] {
			m.t.Fatalf("component of %d = %d, oracle %d (all: got %v want %v)", v, got[v], want[v], got, want)
		}
	}
	forest := m.dc.SnapshotForest()
	if !oracle.IsSpanningForest(m.g, forest) {
		m.t.Fatalf("maintained forest %v is not a spanning forest", forest)
	}
	if v := m.dc.Cluster().Stats().Violations; len(v) > 0 {
		m.t.Fatalf("cluster violations: %v", v[:min(3, len(v))])
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{N: 1, Phi: 0.5},
		{N: 10, Phi: 0},
		{N: 10, Phi: 1.5},
	} {
		if _, err := NewDynamicConnectivity(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestMaxBatchEnforced(t *testing.T) {
	m := newMirror(t, 32, 0.5, 1)
	big := make(graph.Batch, m.dc.MaxBatch()+1)
	for i := range big {
		big[i] = graph.Ins(0, i+1)
	}
	if err := m.dc.ApplyBatch(big); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

func TestInsertSingleEdge(t *testing.T) {
	m := newMirror(t, 16, 0.5, 2)
	m.apply(graph.Batch{graph.Ins(3, 7)})
	m.check()
	if !m.dc.Connected(3, 7) || m.dc.Connected(3, 8) {
		t.Error("Connected wrong after single insert")
	}
}

func TestInsertBatchMergesChains(t *testing.T) {
	m := newMirror(t, 16, 0.6, 3)
	m.apply(graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2), graph.Ins(2, 3)})
	m.check()
	m.apply(graph.Batch{graph.Ins(4, 5), graph.Ins(5, 6)})
	m.check()
	m.apply(graph.Batch{graph.Ins(3, 4)}) // merge the two chains
	m.check()
	// Vertices 0..6 form one component; 8..15 plus vertex 7 are singletons.
	if got := m.dc.NumComponents(); got != 10 {
		t.Errorf("NumComponents = %d, want 10", got)
	}
}

func TestInsertRedundantEdges(t *testing.T) {
	m := newMirror(t, 12, 0.6, 4)
	m.apply(graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2)})
	m.check()
	// Batch containing both a merging edge and a cycle edge.
	m.apply(graph.Batch{graph.Ins(0, 2), graph.Ins(2, 3)})
	m.check()
}

func TestDeleteNonTreeEdge(t *testing.T) {
	m := newMirror(t, 12, 0.6, 5)
	m.apply(graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2)})
	m.apply(graph.Batch{graph.Ins(0, 2)}) // cycle edge: non-tree
	m.check()
	m.apply(graph.Batch{graph.Del(0, 2)})
	m.check()
	if !m.dc.Connected(0, 2) {
		t.Error("deleting non-tree edge disconnected the cycle")
	}
}

func TestDeleteTreeEdgeWithReplacement(t *testing.T) {
	m := newMirror(t, 12, 0.6, 6)
	// Triangle: deleting any edge must keep connectivity via the third.
	m.apply(graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2)})
	m.apply(graph.Batch{graph.Ins(0, 2)})
	m.check()
	m.apply(graph.Batch{graph.Del(0, 1)})
	m.check()
	if !m.dc.Connected(0, 1) {
		t.Error("triangle lost connectivity after one deletion")
	}
}

func TestDeleteTreeEdgeWithoutReplacement(t *testing.T) {
	m := newMirror(t, 12, 0.6, 7)
	m.apply(graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2)})
	m.check()
	m.apply(graph.Batch{graph.Del(1, 2)})
	m.check()
	if m.dc.Connected(1, 2) {
		t.Error("split component still reported connected")
	}
}

func TestDeleteBatchMultipleSplits(t *testing.T) {
	m := newMirror(t, 16, 0.6, 8)
	var b graph.Batch
	for i := 0; i+1 < 8; i++ {
		b = append(b, graph.Ins(i, i+1))
	}
	// Path inserted across batches respecting MaxBatch.
	for i := 0; i < len(b); i += m.dc.MaxBatch() {
		m.apply(b[i:min(i+m.dc.MaxBatch(), len(b))])
	}
	m.check()
	m.apply(graph.Batch{graph.Del(1, 2), graph.Del(4, 5)})
	m.check()
}

func TestMixedBatch(t *testing.T) {
	m := newMirror(t, 16, 0.6, 9)
	m.apply(graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2), graph.Ins(2, 3)})
	m.check()
	// One batch with an insertion and a deletion.
	m.apply(graph.Batch{graph.Ins(3, 4), graph.Del(1, 2)})
	m.check()
}

func TestCycleReplacementChain(t *testing.T) {
	// Build a long cycle, then delete several tree edges in one batch; the
	// remaining cycle edges must be found as replacements via sketches.
	const n = 12
	m := newMirror(t, n, 0.7, 10)
	var edges []graph.Update
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Ins(i, (i+1)%n))
	}
	for i := 0; i < len(edges); i += m.dc.MaxBatch() {
		end := min(i+m.dc.MaxBatch(), len(edges))
		m.apply(graph.Batch(edges[i:end]))
	}
	m.check()
	// The graph is a single cycle: delete 3 edges; connectivity must
	// degrade to exactly 3 components... no: deleting 3 edges from a cycle
	// leaves 3 paths, i.e. the graph splits into 3 components only if the
	// deleted edges are non-adjacent. Check against the oracle either way.
	m.apply(graph.Batch{graph.Del(0, 1), graph.Del(4, 5), graph.Del(8, 9)})
	m.check()
}

func TestDenseGraphDeletionStorm(t *testing.T) {
	// Near-clique on 10 vertices; delete many edges; sketches must find
	// replacements among the dense remainder.
	const n = 10
	m := newMirror(t, n, 0.7, 11)
	var all []graph.Update
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			all = append(all, graph.Ins(u, v))
		}
	}
	for i := 0; i < len(all); i += m.dc.MaxBatch() {
		end := min(i+m.dc.MaxBatch(), len(all))
		m.apply(graph.Batch(all[i:end]))
	}
	m.check()
	// Delete a batch of spanning-forest edges.
	forest := m.dc.SnapshotForest()
	var dels graph.Batch
	for i := 0; i < min(3, len(forest)); i++ {
		dels = append(dels, graph.Del(forest[i].U, forest[i].V))
	}
	m.apply(dels)
	m.check()
	if m.dc.NumComponents() != 1 {
		t.Errorf("dense graph disconnected: %d components", m.dc.NumComponents())
	}
}

func TestRandomizedChurnAgainstOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized test")
	}
	for _, tc := range []struct {
		n    int
		phi  float64
		seed uint64
	}{
		{24, 0.5, 21}, {24, 0.7, 22}, {48, 0.6, 23}, {48, 0.8, 24}, {64, 0.7, 25},
	} {
		tc := tc
		t.Run("", func(t *testing.T) {
			m := newMirror(t, tc.n, tc.phi, tc.seed)
			prg := hash.NewPRG(tc.seed * 977)
			maxB := m.dc.MaxBatch()
			for step := 0; step < 25; step++ {
				var b graph.Batch
				used := map[graph.Edge]bool{}
				size := 1 + int(prg.NextN(uint64(maxB)))
				for len(b) < size {
					u := int(prg.NextN(uint64(tc.n)))
					v := int(prg.NextN(uint64(tc.n)))
					if u == v {
						continue
					}
					e := graph.NewEdge(u, v)
					if used[e] {
						continue
					}
					if m.g.Has(e.U, e.V) {
						// Bias towards keeping some edges: delete half the time.
						if prg.Next()&1 == 0 {
							used[e] = true
							b = append(b, graph.Del(e.U, e.V))
						}
					} else {
						used[e] = true
						b = append(b, graph.Ins(e.U, e.V))
					}
				}
				m.apply(b)
				m.check()
			}
		})
	}
}

func TestRoundsPerBatchBounded(t *testing.T) {
	// The defining property: rounds per batch must not grow with the number
	// of batches already processed or with the graph size m.
	m := newMirror(t, 64, 0.7, 31)
	prg := hash.NewPRG(99)
	var roundsPerBatch []int
	for step := 0; step < 20; step++ {
		var b graph.Batch
		used := map[graph.Edge]bool{}
		for len(b) < m.dc.MaxBatch() {
			u, v := int(prg.NextN(64)), int(prg.NextN(64))
			if u == v {
				continue
			}
			e := graph.NewEdge(u, v)
			if used[e] || m.g.Has(e.U, e.V) {
				continue
			}
			used[e] = true
			b = append(b, graph.Ins(u, v))
		}
		before := m.dc.Cluster().Stats().Rounds
		m.apply(b)
		roundsPerBatch = append(roundsPerBatch, m.dc.Cluster().Stats().Rounds-before)
	}
	first, last := roundsPerBatch[1], roundsPerBatch[len(roundsPerBatch)-1]
	if last > 3*first+20 {
		t.Errorf("rounds per batch grew from %d to %d: %v", first, last, roundsPerBatch)
	}
}

func TestSnapshotForestSorted(t *testing.T) {
	m := newMirror(t, 16, 0.6, 41)
	m.apply(graph.Batch{graph.Ins(5, 3), graph.Ins(1, 9)})
	f := m.dc.SnapshotForest()
	if !sort.SliceIsSorted(f, func(i, j int) bool {
		if f[i].U != f[j].U {
			return f[i].U < f[j].U
		}
		return f[i].V < f[j].V
	}) {
		t.Error("SnapshotForest not sorted")
	}
}

func TestForestLinkValidation(t *testing.T) {
	f, err := NewForest(Config{N: 8, Phi: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Link([]graph.WeightedEdge{graph.NewWeightedEdge(0, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	// Edge within one component must be rejected by the planner.
	if err := f.Link([]graph.WeightedEdge{graph.NewWeightedEdge(0, 1, 2)}); err == nil {
		t.Error("intra-component Link accepted")
	}
}

func TestForestCutNonTreeOnly(t *testing.T) {
	f, err := NewForest(Config{N: 8, Phi: 0.8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Link([]graph.WeightedEdge{graph.NewWeightedEdge(0, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	rep, err := f.Cut([]graph.Edge{graph.NewEdge(2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TreeRecords) != 0 || len(rep.NonTree) != 1 {
		t.Errorf("report = %+v", rep)
	}
}

// tourTerminals is the HeaviestSeparating question over vertices.
func tourTerminals(f *Forest, vertices ...int) []TourTerminals {
	_, tours := Terminals(f.Stats(vertices))
	return tours
}

// TestHeaviestSeparating asks the virtual tree of terminals 0, 3 and 4 on
// the tree 0-1-2-3 plus 1-4, whose branching vertex 1 is no terminal, of
// 5 and 6 on the tree 5-6, and of 7 alone on 7-8: one answer per virtual
// edge, its path's heaviest edge, runs nested or disjoint, and nothing for
// the tour with one terminal.
func TestHeaviestSeparating(t *testing.T) {
	f, err := NewWeightedForest(Config{N: 10, Phi: 0.9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]graph.WeightedEdge{
		{graph.NewWeightedEdge(0, 1, 5), graph.NewWeightedEdge(1, 2, 9), graph.NewWeightedEdge(2, 3, 2)},
		{graph.NewWeightedEdge(1, 4, 7), graph.NewWeightedEdge(5, 6, 1), graph.NewWeightedEdge(7, 8, 4)},
	} {
		if err := f.Link(batch); err != nil {
			t.Fatal(err)
		}
	}
	tours := tourTerminals(f, 0, 3, 4, 5, 6, 7)
	if len(tours) != 3 {
		t.Fatalf("terminals grouped into %d tours: %+v", len(tours), tours)
	}
	before := f.Cluster().Stats().Rounds
	got := f.HeaviestSeparating(tours)
	if r := f.Cluster().Stats().Rounds - before; r != 2 {
		t.Errorf("HeaviestSeparating took %d rounds, want one Ask (2)", r)
	}
	var edges []graph.WeightedEdge
	for run, e := range got {
		edges = append(edges, e)
		if run[0] >= run[1] || run[1] > 6 {
			t.Errorf("run %v out of range", run)
		}
		for other := range got {
			if disjoint := run[1] <= other[0] || other[1] <= run[0]; !disjoint &&
				!(run[0] <= other[0] && other[1] <= run[1]) && !(other[0] <= run[0] && run[1] <= other[1]) {
				t.Errorf("runs %v and %v cross", run, other)
			}
		}
	}
	slices.SortFunc(edges, func(a, b graph.WeightedEdge) int { return cmpEdge(a.Edge, b.Edge) })
	want := []graph.WeightedEdge{
		graph.NewWeightedEdge(0, 1, 5), graph.NewWeightedEdge(1, 2, 9),
		graph.NewWeightedEdge(1, 4, 7), graph.NewWeightedEdge(5, 6, 1),
	}
	if !slices.Equal(edges, want) {
		t.Errorf("heaviest per virtual edge = %v, want %v", edges, want)
	}
}

func TestNumComponentsFresh(t *testing.T) {
	f, err := NewForest(Config{N: 10, Phi: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumComponents() != 10 {
		t.Errorf("fresh forest has %d components", f.NumComponents())
	}
}

func TestBootstrap(t *testing.T) {
	const n = 32
	dc, err := NewDynamicConnectivity(Config{N: n, Phi: 0.6, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(n)
	prg := hash.NewPRG(52)
	var edges []graph.Edge
	for len(edges) < 40 {
		u, v := int(prg.NextN(n)), int(prg.NextN(n))
		if u == v || g.Has(u, v) {
			continue
		}
		_ = g.Insert(u, v, 0)
		edges = append(edges, graph.NewEdge(u, v))
	}
	rounds, err := dc.Bootstrap(edges)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 0 {
		t.Errorf("bootstrap reported %d rounds: a load runs outside the model and spends none", rounds)
	}
	want := oracle.Components(g)
	got := dc.SnapshotComponents()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("component of %d = %d, oracle %d", v, got[v], want[v])
		}
	}
	// The bootstrapped instance must keep working for dynamic batches.
	b := graph.Batch{graph.Del(edges[0].U, edges[0].V)}
	_ = g.Apply(b)
	if err := dc.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if !oracle.IsSpanningForest(g, dc.SnapshotForest()) {
		t.Fatal("forest invalid after post-bootstrap deletion")
	}
}

// TestChurnRecordsNoViolations: a full churn run stays inside every memory
// and communication cap, so its cluster records no violation.
func TestChurnRecordsNoViolations(t *testing.T) {
	dc, err := NewDynamicConnectivity(Config{N: 48, Phi: 0.6, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(48)
	prg := hash.NewPRG(62)
	for step := 0; step < 15; step++ {
		var b graph.Batch
		used := map[graph.Edge]bool{}
		for len(b) < dc.MaxBatch() {
			u, v := int(prg.NextN(48)), int(prg.NextN(48))
			if u == v {
				continue
			}
			e := graph.NewEdge(u, v)
			if used[e] {
				continue
			}
			used[e] = true
			if g.Has(e.U, e.V) {
				_ = g.Delete(e.U, e.V)
				b = append(b, graph.Del(e.U, e.V))
			} else {
				_ = g.Insert(e.U, e.V, 0)
				b = append(b, graph.Ins(e.U, e.V))
			}
		}
		if err := dc.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	want := oracle.Components(g)
	got := dc.SnapshotComponents()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("component of %d diverged", v)
		}
	}
	if v := dc.Cluster().Stats().Violations; len(v) != 0 {
		t.Errorf("%d violations, the first %q", len(v), v[0])
	}
}

func TestSoakLargeChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// A longer, larger run: n=128 over 60 batches with full oracle checks
	// every 10 batches.
	m := newMirror(t, 128, 0.6, 71)
	prg := hash.NewPRG(72)
	for step := 0; step < 60; step++ {
		var b graph.Batch
		used := map[graph.Edge]bool{}
		for len(b) < m.dc.MaxBatch() {
			u, v := int(prg.NextN(128)), int(prg.NextN(128))
			if u == v {
				continue
			}
			e := graph.NewEdge(u, v)
			if used[e] {
				continue
			}
			used[e] = true
			if m.g.Has(e.U, e.V) {
				if prg.Next()&1 == 0 {
					b = append(b, graph.Del(e.U, e.V))
				}
			} else {
				b = append(b, graph.Ins(e.U, e.V))
			}
		}
		m.apply(b)
		if step%10 == 9 {
			m.check()
		}
	}
	m.check()
}

func TestForestComponentsMatchesSnapshot(t *testing.T) {
	// The metered ComponentsOf query and the driver-level snapshot must agree
	// for arbitrary vertex subsets.
	m := newMirror(t, 24, 0.6, 81)
	m.apply(graph.Batch{graph.Ins(0, 1), graph.Ins(2, 3), graph.Ins(1, 2)})
	snap := m.dc.SnapshotComponents()
	vertices := []int{0, 1, 2, 3, 4, 23}
	for i, c := range m.dc.Forest().ComponentsOf(vertices) {
		if v := vertices[i]; snap[v] != c {
			t.Errorf("vertex %d: query %d, snapshot %d", v, c, snap[v])
		}
	}
}

func TestCutThenLinkReusesFragState(t *testing.T) {
	// A Cut leaves transient fragment state; an immediately following Link
	// must clear and not corrupt it.
	m := newMirror(t, 16, 0.6, 91)
	m.apply(graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2), graph.Ins(2, 3)})
	m.apply(graph.Batch{graph.Del(1, 2)})
	m.check()
	m.apply(graph.Batch{graph.Ins(1, 2)})
	m.check()
	m.apply(graph.Batch{graph.Del(0, 1), graph.Ins(0, 2)})
	m.check()
}

func TestConnectedMany(t *testing.T) {
	m := newMirror(t, 16, 0.6, 96)
	m.apply(graph.Batch{graph.Ins(0, 1), graph.Ins(2, 3)})
	got := m.dc.Forest().ConnectedAll([]Pair{{0, 1}, {0, 2}, {2, 3}, {4, 4}})
	want := []bool{true, false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pair %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestFailureInjectionStarvedSketches(t *testing.T) {
	// Failure injection: with a single sketch copy, the replacement search
	// must visibly break on a replacement-heavy workload for at least one
	// of these seeds (E11 shows it breaks on nearly all).
	divergedSomewhere := false
	for _, seed := range []uint64{1, 2, 3} {
		dc, err := NewDynamicConnectivity(Config{N: 24, Phi: 0.7, Seed: seed, SketchCopies: 1})
		if err != nil {
			t.Fatal(err)
		}
		g := graph.New(24)
		apply := func(b graph.Batch) {
			if err := g.Apply(b); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(b); i += dc.MaxBatch() {
				if err := dc.ApplyBatch(b[i:min(i+dc.MaxBatch(), len(b))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		var build graph.Batch
		for i := 0; i < 24; i++ {
			build = append(build, graph.Ins(i, (i+1)%24), graph.Ins(i, (i+2)%24))
		}
		apply(build)
		prg := hash.NewPRG(seed * 7)
		for round := 0; round < 6; round++ {
			forest := dc.SnapshotForest()
			var del graph.Batch
			used := map[int]bool{}
			for len(del) < dc.MaxBatch() && len(del) < len(forest) {
				i := int(prg.NextN(uint64(len(forest))))
				if used[i] {
					continue
				}
				used[i] = true
				e := forest[i]
				if g.Has(e.U, e.V) {
					del = append(del, graph.Del(e.U, e.V))
				}
			}
			apply(del)
		}
		want := oracle.Components(g)
		got := dc.SnapshotComponents()
		for v := range want {
			if got[v] != want[v] {
				divergedSomewhere = true
				// The failure is counted, not absorbed.
				if dc.SearchStats().Exhausted == 0 {
					t.Errorf("seed %d diverged but no search was counted as exhausted", seed)
				}
				break
			}
		}
	}
	if !divergedSomewhere {
		t.Error("starved sketches never diverged; the failure-injection workload is too weak")
	}
}

// handEcho writes a forest's configuration echo word by word: the tests below
// build their containers as outside input would arrive, not through the
// package's own writers.
func handEcho(e *snapshot.Encoder, f *Forest) {
	e.Int(f.cfg.N)
	e.U64(math.Float64bits(f.cfg.Phi))
	e.Int(f.cfg.SketchCopies)
	e.U64(f.cfg.Seed)
	e.U64(boolWord(f.weighted))
}

// boolWord is a boolean as a container holds it: 1 for true, 0 for false.
func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// handForest writes a forest section: the given next tour id, no cached
// component count, the given warm set (one word: n <= 64), zero Stats, and
// the given tree-edge records, in the order given.
func handForest(e *snapshot.Encoder, f *Forest, warm, next uint64, recs []eulertour.Record) {
	e.Begin(tagForest)
	handEcho(e, f)
	e.U64(next)
	e.U64(0) // no component count
	e.U64(warm)
	e.Words(make([]uint64, 8)) // zero Stats: seven counters, no violations
	e.Int(len(recs))
	for _, r := range recs {
		e.Int(r.E.U)
		e.Int(r.E.V)
		e.U64(uint64(r.Tour))
		for _, pos := range [...]int{r.UPos[0], r.UPos[1], r.VPos[0], r.VPos[1]} {
			e.Int(pos)
		}
		e.I64(0) // weight
	}
}

// handTours returns, for each of the given edges in order, the record an
// Euler tour of their forest holds: the trees take tour ids from 1 in order
// of their smallest vertex, each walked depth-first from that vertex, and
// the next tour id follows the last. An edge that repeats one or closes a
// cycle gets no tour and no positions.
func handTours(n int, edges ...graph.Edge) ([]eulertour.Record, uint64) {
	adj := make([][]int, n)
	recs := make([]eulertour.Record, len(edges))
	for j, e := range edges {
		adj[e.U] = append(adj[e.U], j)
		adj[e.V] = append(adj[e.V], j)
		recs[j].E = e
	}
	seen := make([]bool, n)
	tour, pos := eulertour.TourID(1), 0
	var walk func(v int)
	walk = func(v int) {
		seen[v] = true
		for _, j := range adj[v] {
			w := edges[j].Other(v)
			if seen[w] {
				continue
			}
			down := pos + 1 // the dart v→w at down, down+1
			pos += 2
			walk(w)
			up := pos + 1 // the dart w→v at up, up+1
			pos += 2
			r := &recs[j]
			r.Tour = tour
			r.UPos, r.VPos = [2]int{down, up + 1}, [2]int{down + 1, up}
			if v != r.E.U {
				r.UPos, r.VPos = r.VPos, r.UPos
			}
		}
	}
	for v := range n {
		if !seen[v] && len(adj[v]) > 0 {
			pos = 0
			walk(v)
			tour++
		}
	}
	return recs, uint64(tour)
}

// identity is the component column of n singletons.
func identity(n int) []int {
	comp := make([]int, n)
	for v := range comp {
		comp[v] = v
	}
	return comp
}

// container closes the encoder into a full container's bytes.
func container(t *testing.T, e *snapshot.Encoder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsTreeEdgeListedTwice hand-builds full forest containers
// (valid CRC) whose edge table lists one tree edge once, twice, or out of
// edge-id order: the table must be strictly increasing, so only the first
// loads, and a rejection leaves the target untouched.
func TestLoadRejectsTreeEdgeListedTwice(t *testing.T) {
	cfg := Config{N: 8, Phi: 0.6, Seed: 3, VerticesPerMachine: 4}
	f, err := NewForest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := graph.Edge{U: 1, V: 2}, graph.Edge{U: 2, V: 3}
	build := func(edges ...graph.Edge) []byte {
		e := snapshot.NewEncoder()
		recs, next := handTours(cfg.N, edges...)
		handForest(e, f, 0, next, recs)
		return container(t, e)
	}
	for name, edges := range map[string][]graph.Edge{"listed twice": {a, a}, "out of order": {b, a}} {
		err = snapshot.Load(bytes.NewReader(build(edges...)), f)
		if err == nil || !strings.Contains(err.Error(), "twice or out of edge-id order") {
			t.Fatalf("%s: not rejected: %v", name, err)
		}
		if got := f.SnapshotForest(); len(got) != 0 {
			t.Fatalf("%s: rejected container left %d forest edges behind", name, len(got))
		}
	}
	if err := snapshot.Load(bytes.NewReader(build(a)), f); err != nil {
		t.Fatalf("the same container with the edge listed once: %v", err)
	}
	if got := f.SnapshotForest(); len(got) != 1 || got[0].Edge != a {
		t.Fatalf("loaded forest %v, want [%v]", got, a)
	}
}

// TestLoadRejectsTreeEdgesClosingACycle pins what the loader derives and
// what it refuses: the component column is the minimum-root union-find over
// the tree edges, so tree edges that close a cycle, or a warm set naming a
// vertex past N-1, are rejected and the target stays untouched; a forest
// loads with every vertex labelled by the smallest vertex of its tree, and
// its warm set answers from the cache.
func TestLoadRejectsTreeEdgesClosingACycle(t *testing.T) {
	const n = 8
	a, b, c := graph.Edge{U: 0, V: 1}, graph.Edge{U: 0, V: 2}, graph.Edge{U: 1, V: 2}
	for name, tc := range map[string]struct {
		warm  uint64
		edges []graph.Edge
		want  string
	}{
		"cycle":             {0, []graph.Edge{a, b, c}, "closes a cycle"},
		"warm past N-1":     {1 << n, []graph.Edge{a, b}, "warm set names a vertex past 7"},
		"forest, warm 0..3": {0b1111, []graph.Edge{a, c}, ""},
	} {
		f, err := NewForest(Config{N: n, Phi: 0.6, Seed: 3, VerticesPerMachine: 4})
		if err != nil {
			t.Fatal(err)
		}
		e := snapshot.NewEncoder()
		recs, next := handTours(n, tc.edges...)
		handForest(e, f, tc.warm, next, recs)
		err = snapshot.Load(bytes.NewReader(container(t, e)), f)
		if tc.want != "" {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: not rejected: %v", name, err)
			}
			if got := f.SnapshotComponents(); !slices.Equal(got, identity(n)) {
				t.Fatalf("%s: rejected container left components %v", name, got)
			}
			if got := f.SnapshotForest(); len(got) != 0 {
				t.Fatalf("%s: rejected container left %d forest edges", name, len(got))
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := []int{0, 0, 0, 3, 4, 5, 6, 7}
		if got := f.SnapshotComponents(); !slices.Equal(got, want) {
			t.Fatalf("%s: loaded components %v, want %v", name, got, want)
		}
		if got := f.ComponentsOf([]int{0, 1, 2, 3}); !slices.Equal(got, want[:4]) {
			t.Fatalf("%s: cached labels %v, want %v", name, got, want[:4])
		}
		if hits, misses := f.QueryCacheStats(); hits != 1 || misses != 0 {
			t.Fatalf("%s: the warm set's first query: %d hits, %d misses", name, hits, misses)
		}
	}
}

// TestLoadRejectsMalformedTourRecords hand-builds full forest containers
// whose tree-edge records no Euler tour of their forest holds: a record that
// fails eulertour.Record.Validate, a tour id of 0 or at or past the stored
// next id, a tree on two tours, two trees on one, and positions outside
// 1..4k or held twice. Each is rejected with the target untouched; the
// records as a tour holds them load.
func TestLoadRejectsMalformedTourRecords(t *testing.T) {
	const n = 8
	f, err := NewForest(Config{N: n, Phi: 0.6, Seed: 3, VerticesPerMachine: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Tree {0,1,2} on tour 1, tree {4,5} on tour 2; next tour id 3.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 4, V: 5}}
	build := func(edit func(recs []eulertour.Record, next *uint64)) []byte {
		recs, next := handTours(n, edges...)
		edit(recs, &next)
		e := snapshot.NewEncoder()
		handForest(e, f, 0, next, recs)
		return container(t, e)
	}
	for name, tc := range map[string]struct {
		edit func(recs []eulertour.Record, next *uint64)
		want string
	}{
		"malformed record":   {func(r []eulertour.Record, _ *uint64) { r[0].UPos = r[0].VPos }, "do not form two dart pairs"},
		"tour id 0":          {func(r []eulertour.Record, _ *uint64) { r[2].Tour = 0 }, "tour id 0 outside [1, 3)"},
		"tour id at next":    {func(r []eulertour.Record, _ *uint64) { r[2].Tour = 3 }, "tour id 3 outside [1, 3)"},
		"next below a tour":  {func(_ []eulertour.Record, next *uint64) { *next = 2 }, "tour id 2 outside [1, 2)"},
		"tree on two tours":  {func(r []eulertour.Record, _ *uint64) { r[1].Tour = 2 }, "tree of vertex 0 spans tours 1 and 2"},
		"trees share a tour": {func(r []eulertour.Record, _ *uint64) { r[2].Tour = 1 }, "gives tour id 1 to two trees"},
		"position past the tour": {func(r []eulertour.Record, _ *uint64) {
			r[2].UPos, r[2].VPos = [2]int{r[2].UPos[0] + 4, r[2].UPos[1] + 4}, [2]int{r[2].VPos[0] + 4, r[2].VPos[1] + 4}
		}, "tour 2 holds position 5 twice or outside 1..4"},
		"position held twice": {func(r []eulertour.Record, _ *uint64) { r[1].UPos, r[1].VPos = r[0].UPos, r[0].VPos }, "tour 1 holds position 1 twice"},
	} {
		err := snapshot.Load(bytes.NewReader(build(tc.edit)), f)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: not rejected: %v", name, err)
		}
		if got := f.SnapshotComponents(); !slices.Equal(got, identity(n)) {
			t.Fatalf("%s: rejected container left components %v", name, got)
		}
		if got := f.SnapshotForest(); len(got) != 0 {
			t.Fatalf("%s: rejected container left %d forest edges", name, len(got))
		}
	}
	if err := snapshot.Load(bytes.NewReader(build(func([]eulertour.Record, *uint64) {})), f); err != nil {
		t.Fatalf("the records as a tour holds them: %v", err)
	}
	if got, want := f.SnapshotComponents(), []int{0, 0, 0, 3, 4, 4, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("loaded components %v, want %v", got, want)
	}
}

// TestOldForestLayoutRejectedByTag feeds Load containers in retired
// layouts — the per-machine one (tag 0x10 and its shard sections) and the
// forest section that wrote its component column, fragment keys and label
// cache (0x17): each is rejected by tag, never migrated, and the target is
// left untouched.
func TestOldForestLayoutRejectedByTag(t *testing.T) {
	cfg := Config{N: 8, Phi: 0.6, Seed: 3, VerticesPerMachine: 4}
	dc, err := NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perMachine := snapshot.NewEncoder()
	perMachine.Begin(0x10)
	handEcho(perMachine, dc.f)
	perMachine.Int(cfg.VerticesPerMachine)
	perMachine.Int(dc.f.cl.Machines())
	perMachine.Begin(0x11)
	perMachine.Int(0) // machine id
	perMachine.U64(1) // has vertices
	columns := snapshot.NewEncoder()
	columns.Begin(0x17)
	handEcho(columns, dc.f)
	columns.U64(2) // next tour id
	columns.U64(1) // label-cache epoch
	for tag, e := range map[uint64]*snapshot.Encoder{0x10: perMachine, 0x17: columns} {
		err = snapshot.Load(bytes.NewReader(container(t, e)), dc)
		if want := fmt.Sprintf("found section %#x where %#x was expected", tag, tagForest); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("layout %#x not rejected by tag: %v", tag, err)
		}
		if got := dc.SnapshotComponents(); !slices.Equal(got, identity(cfg.N)) {
			t.Fatalf("rejected container %#x left components %v", tag, got)
		}
	}
}

// TestLoadRejectsSketchRunOfWrongLength hands Load a valid forest section of
// a live instance followed by a sketch section whose one promoted row is one
// word short: the run is checked before anything is installed, so the target
// stays the fresh instance.
func TestLoadRejectsSketchRunOfWrongLength(t *testing.T) {
	cfg := Config{N: 8, Phi: 0.6, Seed: 3, VerticesPerMachine: 4}
	src, err := NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.ApplyBatch(graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2)}); err != nil {
		t.Fatal(err)
	}
	target, err := NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := snapshot.NewEncoder()
	src.f.Checkpoint(e)
	e.Begin(tagSketches)
	e.Int(0) // no list edges
	e.Int(1) // one promoted row of 1+S words, one word short
	e.Words(make([]uint64, src.space.SketchWords()))
	err = snapshot.Load(bytes.NewReader(container(t, e)), target)
	if err == nil || !strings.Contains(err.Error(), "overruns section") {
		t.Fatalf("short sketch run not rejected: %v", err)
	}
	if got := target.SnapshotComponents(); !slices.Equal(got, identity(cfg.N)) {
		t.Fatalf("rejected container left components %v", got)
	}
	if got := target.SnapshotForest(); len(got) != 0 {
		t.Fatalf("rejected container left %d forest edges", len(got))
	}
	if got := target.Cluster().Stats(); got.Rounds != 0 {
		t.Fatalf("rejected container installed Stats %+v", got)
	}
}

// TestLoadRejectsSketchEdgeNoListHolds hands Load a valid forest section
// followed by a sketch section whose one edge joins two promoted vertices:
// no list holds it, the writer never writes such a row, and the loader
// rejects it before anything is installed.
func TestLoadRejectsSketchEdgeNoListHolds(t *testing.T) {
	cfg := Config{N: 8, Phi: 0.6, Seed: 3, VerticesPerMachine: 4}
	src, err := NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	target, err := NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := snapshot.NewEncoder()
	src.f.Checkpoint(e)
	e.Begin(tagSketches)
	e.Int(1) // the list edge {0,1}
	e.Words([]uint64{0, 1})
	e.Int(2) // vertices 0 and 1 promoted, zero sketches
	for v := range 2 {
		e.U64(uint64(v))
		e.Words(make([]uint64, src.space.SketchWords()))
	}
	err = snapshot.Load(bytes.NewReader(container(t, e)), target)
	if err == nil || !strings.Contains(err.Error(), "edge {0,1} joins two promoted vertices") {
		t.Fatalf("edge of two promoted vertices not rejected: %v", err)
	}
	if got := target.promotedVertices(); len(got) != 0 {
		t.Fatalf("rejected container promoted %v", got)
	}
}

// TestOldSketchLayoutRejectedByTag hands Load a valid forest section of a
// live instance followed by a sketch run in a retired layout — every
// vertex's sketch in three-word cells (0x18) or in two-word cells (0x1C):
// it is rejected by tag, never migrated, and the target stays the fresh
// instance.
func TestOldSketchLayoutRejectedByTag(t *testing.T) {
	cfg := Config{N: 8, Phi: 0.6, Seed: 3, VerticesPerMachine: 4}
	src, err := NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.ApplyBatch(graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2)}); err != nil {
		t.Fatal(err)
	}
	for _, old := range []struct {
		tag   uint64
		words int
	}{{0x18, cfg.N * src.space.SketchWords() / 2 * 3}, {0x1C, cfg.N * src.space.SketchWords()}} {
		target, err := NewDynamicConnectivity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := snapshot.NewEncoder()
		src.f.Checkpoint(e)
		e.Begin(old.tag)
		e.Int(old.words)
		e.Words(make([]uint64, old.words))
		err = snapshot.Load(bytes.NewReader(container(t, e)), target)
		if want := fmt.Sprintf("found section %#x where %#x was expected", old.tag, tagSketches); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("sketch run %#x not rejected by tag: %v", old.tag, err)
		}
		if got := target.SnapshotComponents(); !slices.Equal(got, identity(cfg.N)) {
			t.Fatalf("rejected container left components %v", got)
		}
		if got := target.SnapshotForest(); len(got) != 0 {
			t.Fatalf("rejected container left %d forest edges", len(got))
		}
	}
}
