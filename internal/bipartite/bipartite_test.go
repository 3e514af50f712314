package bipartite

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/oracle"
)

func newTester(t *testing.T, n int, seed uint64) *Tester {
	t.Helper()
	tt, err := New(core.Config{N: n, Phi: 0.7, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestEmptyGraphIsBipartite(t *testing.T) {
	tt := newTester(t, 16, 1)
	if !tt.IsBipartite() {
		t.Error("empty graph declared non-bipartite")
	}
}

func TestOddCycleDetected(t *testing.T) {
	tt := newTester(t, 16, 2)
	if err := tt.ApplyBatch(graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if !tt.IsBipartite() {
		t.Error("path declared non-bipartite")
	}
	if err := tt.ApplyBatch(graph.Batch{graph.Ins(0, 2)}); err != nil {
		t.Fatal(err)
	}
	if tt.IsBipartite() {
		t.Error("triangle declared bipartite")
	}
}

func TestEvenCycleStaysBipartite(t *testing.T) {
	tt := newTester(t, 16, 3)
	b := graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2), graph.Ins(2, 3)}
	if err := tt.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := tt.ApplyBatch(graph.Batch{graph.Ins(3, 0)}); err != nil {
		t.Fatal(err)
	}
	if !tt.IsBipartite() {
		t.Error("C4 declared non-bipartite")
	}
}

func TestDeletionRestoresBipartiteness(t *testing.T) {
	tt := newTester(t, 16, 4)
	if err := tt.ApplyBatch(graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := tt.ApplyBatch(graph.Batch{graph.Ins(0, 2)}); err != nil {
		t.Fatal(err)
	}
	if tt.IsBipartite() {
		t.Fatal("triangle declared bipartite")
	}
	if err := tt.ApplyBatch(graph.Batch{graph.Del(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if !tt.IsBipartite() {
		t.Error("bipartiteness not restored after breaking the odd cycle")
	}
}

func TestRandomizedAgainstOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized test")
	}
	const n = 16
	tt := newTester(t, n, 5)
	g := graph.New(n)
	prg := hash.NewPRG(55)
	for step := 0; step < 15; step++ {
		var b graph.Batch
		used := map[graph.Edge]bool{}
		size := 1 + int(prg.NextN(uint64(tt.MaxBatch())))
		for attempts := 0; len(b) < size && attempts < 80; attempts++ {
			u, v := int(prg.NextN(n)), int(prg.NextN(n))
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
		if len(b) == 0 {
			continue
		}
		if err := tt.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if got, want := tt.IsBipartite(), oracle.IsBipartite(g); got != want {
			t.Fatalf("step %d: IsBipartite = %v, oracle %v", step, got, want)
		}
	}
	if v := tt.Cover().Cluster().Stats().Violations; len(v) > 0 {
		t.Fatalf("violations: %v", v[0])
	}
}

// TestSearchStatsSumGraphAndCover deletes a tree edge of an even cycle,
// whose replacement both instances search for: the tester reports the sum
// of G's and the double cover's counters.
func TestSearchStatsSumGraphAndCover(t *testing.T) {
	tt := newTester(t, 16, 7)
	for _, b := range []graph.Batch{
		{graph.Ins(0, 1), graph.Ins(1, 2), graph.Ins(2, 3)},
		{graph.Ins(3, 0)},
		{graph.Del(0, 1)},
	} {
		if err := tt.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	g, cover := tt.Graph().SearchStats(), tt.Cover().SearchStats()
	if g.Searches == 0 || cover.Searches == 0 {
		t.Fatalf("searches: G %d, cover %d; want both to search for the replacement", g.Searches, cover.Searches)
	}
	want := g
	want.Add(cover)
	if got := tt.SearchStats(); got != want || got.Searches != g.Searches+cover.Searches {
		t.Errorf("SearchStats = %+v, want G's plus the cover's %+v", got, want)
	}
}

func TestBatchCap(t *testing.T) {
	tt := newTester(t, 16, 6)
	big := make(graph.Batch, tt.MaxBatch()+1)
	for i := range big {
		big[i] = graph.Ins(0, i+1)
	}
	if err := tt.ApplyBatch(big); err == nil {
		t.Error("oversized batch accepted")
	}
}

func TestAccessors(t *testing.T) {
	tt := newTester(t, 16, 7)
	if tt.Graph() == nil || tt.Cover() == nil {
		t.Fatal("nil accessors")
	}
	if tt.Graph().Cluster() == tt.Cover().Cluster() {
		t.Error("graph and cover must run on distinct clusters")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(core.Config{N: 1, Phi: 0.5}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := New(core.Config{N: 16, Phi: 0}); err == nil {
		t.Error("Phi=0 accepted")
	}
}

func TestMultipleComponentsWithMixedParity(t *testing.T) {
	// Two separate components: one bipartite, one with an odd cycle; the
	// whole graph is non-bipartite.
	tt := newTester(t, 16, 8)
	if err := tt.ApplyBatch(graph.Batch{graph.Ins(0, 1), graph.Ins(2, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := tt.ApplyBatch(graph.Batch{graph.Ins(10, 11), graph.Ins(11, 12)}); err != nil {
		t.Fatal(err)
	}
	if err := tt.ApplyBatch(graph.Batch{graph.Ins(10, 12)}); err != nil {
		t.Fatal(err)
	}
	if tt.IsBipartite() {
		t.Error("graph with one odd-cycle component declared bipartite")
	}
	// Removing the odd cycle's closing edge restores global bipartiteness.
	if err := tt.ApplyBatch(graph.Batch{graph.Del(10, 12)}); err != nil {
		t.Fatal(err)
	}
	if !tt.IsBipartite() {
		t.Error("bipartiteness not restored")
	}
}
