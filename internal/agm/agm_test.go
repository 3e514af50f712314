package agm

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/oracle"
)

func newBaseline(t *testing.T, n int, seed uint64) *Connectivity {
	t.Helper()
	c, err := New(core.Config{N: n, Phi: 0.7, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkLabels verifies the query labels partition vertices exactly like the
// oracle components (labels may differ; the partition must match).
func checkLabels(t *testing.T, got []int, g *graph.Graph) {
	t.Helper()
	want := oracle.Components(g)
	rep := map[int]int{}
	for v := range got {
		if r, ok := rep[got[v]]; ok {
			if want[v] != want[r] {
				t.Fatalf("vertices %d and %d share label %d but differ in oracle", v, r, got[v])
			}
		} else {
			rep[got[v]] = v
		}
	}
	seen := map[int]int{}
	for v := range want {
		if l, ok := seen[want[v]]; ok {
			if got[v] != l {
				t.Fatalf("vertices in oracle component %d have labels %d and %d", want[v], l, got[v])
			}
		} else {
			seen[want[v]] = got[v]
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(core.Config{N: 1, Phi: 0.5}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := New(core.Config{N: 8, Phi: 0}); err == nil {
		t.Error("Phi=0 accepted")
	}
}

func TestEmptyGraphQuery(t *testing.T) {
	c := newBaseline(t, 8, 1)
	labels, rounds := c.QueryComponents()
	for v, l := range labels {
		if l != v {
			t.Fatalf("label of %d = %d on empty graph", v, l)
		}
	}
	if rounds > 2 {
		t.Errorf("empty query took %d rounds", rounds)
	}
}

func TestPathQuery(t *testing.T) {
	const n = 16
	c := newBaseline(t, n, 2)
	g := graph.New(n)
	var b graph.Batch
	for i := 0; i+1 < n; i++ {
		b = append(b, graph.Ins(i, i+1))
		_ = g.Insert(i, i+1, 0)
	}
	if err := c.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	labels, _ := c.QueryComponents()
	checkLabels(t, labels, g)
}

func TestInsertDeleteQuery(t *testing.T) {
	const n = 16
	c := newBaseline(t, n, 3)
	g := graph.New(n)
	ins := graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2), graph.Ins(3, 4)}
	_ = g.Apply(ins)
	if err := c.ApplyBatch(ins); err != nil {
		t.Fatal(err)
	}
	del := graph.Batch{graph.Del(1, 2)}
	_ = g.Apply(del)
	if err := c.ApplyBatch(del); err != nil {
		t.Fatal(err)
	}
	labels, _ := c.QueryComponents()
	checkLabels(t, labels, g)
}

func TestRandomizedQueriesAgainstOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized test")
	}
	const n = 24
	for _, seed := range []uint64{7, 8, 9} {
		c := newBaseline(t, n, seed)
		g := graph.New(n)
		prg := hash.NewPRG(seed * 31)
		for step := 0; step < 6; step++ {
			var b graph.Batch
			for len(b) < 6 {
				u, v := int(prg.NextN(n)), int(prg.NextN(n))
				if u == v {
					continue
				}
				e := graph.NewEdge(u, v)
				if g.Has(e.U, e.V) {
					if prg.Next()&1 == 0 {
						_ = g.Delete(e.U, e.V)
						b = append(b, graph.Del(e.U, e.V))
					}
				} else {
					_ = g.Insert(e.U, e.V, 0)
					b = append(b, graph.Ins(e.U, e.V))
				}
			}
			if err := c.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
			labels, _ := c.QueryComponents()
			checkLabels(t, labels, g)
		}
	}
}

func TestQueryRoundsGrowWithComponentDiameterOfMerging(t *testing.T) {
	// A long path forces many Borůvka rounds (each round at least halves
	// the number of supernodes, so rounds ~ log n), in contrast to the O(1)
	// query of the maintained-forest algorithm.
	const n = 64
	c := newBaseline(t, n, 11)
	var b graph.Batch
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		b = append(b, graph.Ins(i, i+1))
		_ = g.Insert(i, i+1, 0)
	}
	if err := c.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	labels, rounds := c.QueryComponents()
	checkLabels(t, labels, g)
	if rounds < 3 {
		t.Errorf("path query finished in %d Borůvka rounds; expected several", rounds)
	}
}

func TestContractHooks(t *testing.T) {
	remap := contractHooks(map[int]int{5: 3, 3: 1, 7: 5})
	for _, k := range []int{3, 5, 7} {
		if remap[k] != 1 {
			t.Errorf("remap[%d] = %d, want 1", k, remap[k])
		}
	}
	if _, ok := remap[1]; ok {
		t.Error("identity entry not dropped")
	}
}

func TestQuerySpanningForest(t *testing.T) {
	const n = 32
	c := newBaseline(t, n, 21)
	g := graph.New(n)
	prg := hash.NewPRG(22)
	var b graph.Batch
	for len(b) < 40 {
		u, v := int(prg.NextN(n)), int(prg.NextN(n))
		if u == v || g.Has(u, v) {
			continue
		}
		_ = g.Insert(u, v, 0)
		b = append(b, graph.Ins(u, v))
	}
	if err := c.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	labels, _, forest := c.QuerySpanningForest()
	checkLabels(t, labels, g)
	if !oracle.IsSpanningForest(g, forest) {
		t.Fatalf("AGM forest invalid: %v", forest)
	}
}

func TestQuerySpanningForestAfterDeletions(t *testing.T) {
	const n = 24
	c := newBaseline(t, n, 23)
	g := graph.New(n)
	ins := graph.Batch{}
	for i := 0; i < n; i++ {
		ins = append(ins, graph.Ins(i, (i+1)%n))
	}
	_ = g.Apply(ins)
	if err := c.ApplyBatch(ins); err != nil {
		t.Fatal(err)
	}
	del := graph.Batch{graph.Del(0, 1), graph.Del(10, 11)}
	_ = g.Apply(del)
	if err := c.ApplyBatch(del); err != nil {
		t.Fatal(err)
	}
	labels, _, forest := c.QuerySpanningForest()
	checkLabels(t, labels, g)
	if !oracle.IsSpanningForest(g, forest) {
		t.Fatalf("AGM forest invalid after deletions: %v", forest)
	}
}

// Borůvka round r reads copy r of every supernode sketch, and ships that
// copy only: the whole query moves fewer words than its first round alone
// would with full sketches on the wire, for the same labels and round count.
func TestQueryShipsOneCopyPerRound(t *testing.T) {
	const n = 64
	c := newBaseline(t, n, 11)
	var b graph.Batch
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		b = append(b, graph.Ins(i, i+1))
		_ = g.Insert(i, i+1, 0)
	}
	if err := c.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	before := c.Cluster().Stats().WordsSent
	labels, rounds := c.QueryComponents()
	sent := c.Cluster().Stats().WordsSent - before
	checkLabels(t, labels, g)
	// Round one sums n singleton supernodes: n whole sketches leave the
	// shards if whole sketches travel.
	if full := int64(n * c.space.SketchWords()); sent >= full {
		t.Errorf("%d Borůvka rounds sent %d words; one round of whole sketches is %d", rounds, sent, full)
	}
}
