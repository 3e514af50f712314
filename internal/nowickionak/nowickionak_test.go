package nowickionak

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/hash"
	"repro/internal/oracle"
	"repro/internal/snapshot"
)

func newMatcher(t *testing.T, n int) *Matcher {
	t.Helper()
	m, err := New(core.Config{N: n, Phi: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkMaximal asserts the matcher's matching is a valid maximal matching
// of g.
func checkMaximal(t *testing.T, m *Matcher, g *graph.Graph) {
	t.Helper()
	match := m.Matching()
	if !oracle.IsMatching(g, match) {
		t.Fatalf("output %v is not a matching of the graph", match)
	}
	covered := map[int]bool{}
	for _, e := range match {
		covered[e.U] = true
		covered[e.V] = true
	}
	for _, e := range g.Edges() {
		if !covered[e.U] && !covered[e.V] {
			t.Fatalf("edge %v violates maximality (matching %v)", e.Edge, match)
		}
	}
	if m.Size() != len(match) {
		t.Fatalf("Size() = %d, matching has %d edges", m.Size(), len(match))
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(core.Config{N: 1, Phi: 0.6}); err == nil {
		t.Error("N=1 accepted")
	}
}

func TestInsertOnlyGreedy(t *testing.T) {
	m := newMatcher(t, 16)
	g := graph.New(16)
	b := graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2), graph.Ins(2, 3)}
	_ = g.Apply(b)
	if err := m.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	checkMaximal(t, m, g)
}

func TestDeleteUnmatchedEdge(t *testing.T) {
	m := newMatcher(t, 16)
	g := graph.New(16)
	b := graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2)}
	_ = g.Apply(b)
	if err := m.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	// Whichever edge is unmatched, deleting it must not disturb the
	// matching; deleting the matched one must re-match via the other.
	match := m.Matching()
	var unmatched graph.Edge
	if len(match) != 1 {
		t.Fatalf("matching = %v", match)
	}
	if match[0] == graph.NewEdge(0, 1) {
		unmatched = graph.NewEdge(1, 2)
	} else {
		unmatched = graph.NewEdge(0, 1)
	}
	del := graph.Batch{graph.Del(unmatched.U, unmatched.V)}
	_ = g.Apply(del)
	if err := m.ApplyBatch(del); err != nil {
		t.Fatal(err)
	}
	checkMaximal(t, m, g)
	if m.Size() != 1 {
		t.Errorf("Size = %d after deleting unmatched edge", m.Size())
	}
}

func TestDeleteMatchedEdgeRematches(t *testing.T) {
	m := newMatcher(t, 16)
	g := graph.New(16)
	// Path 0-1-2-3: any maximal matching here; then delete the matched
	// middle and verify re-matching.
	b := graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2), graph.Ins(2, 3)}
	_ = g.Apply(b)
	if err := m.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	match := m.Matching()
	del := graph.Batch{graph.Del(match[0].U, match[0].V)}
	_ = g.Apply(del)
	if err := m.ApplyBatch(del); err != nil {
		t.Fatal(err)
	}
	checkMaximal(t, m, g)
}

func TestAdjacentFreedVertices(t *testing.T) {
	// Freed vertices adjacent to each other must pair up (the
	// pending-pending race).
	m := newMatcher(t, 16)
	g := graph.New(16)
	b := graph.Batch{graph.Ins(0, 1), graph.Ins(2, 3), graph.Ins(1, 2)}
	_ = g.Apply(b)
	if err := m.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	// Matching is {0,1}, {2,3}; delete both in one batch: 1 and 2 freed
	// and adjacent.
	del := graph.Batch{graph.Del(0, 1), graph.Del(2, 3)}
	_ = g.Apply(del)
	if err := m.ApplyBatch(del); err != nil {
		t.Fatal(err)
	}
	checkMaximal(t, m, g)
	if m.Size() != 1 {
		t.Errorf("Size = %d, want 1 ({1,2})", m.Size())
	}
}

func TestStarGraphChurn(t *testing.T) {
	m := newMatcher(t, 16)
	g := graph.New(16)
	var b graph.Batch
	for leaf := 1; leaf < 8; leaf++ {
		b = append(b, graph.Ins(0, leaf))
	}
	_ = g.Apply(b)
	if err := m.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	checkMaximal(t, m, g)
	if m.Size() != 1 {
		t.Fatalf("star matching size = %d", m.Size())
	}
	// Delete the matched spoke; the center must re-match to another leaf.
	matched := m.Matching()[0]
	del := graph.Batch{graph.Del(matched.U, matched.V)}
	_ = g.Apply(del)
	if err := m.ApplyBatch(del); err != nil {
		t.Fatal(err)
	}
	checkMaximal(t, m, g)
	if m.Size() != 1 {
		t.Errorf("star matching size after churn = %d", m.Size())
	}
}

func TestRandomizedChurnMaximality(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized test")
	}
	for _, seed := range []uint64{3, 4, 5, 6} {
		seed := seed
		t.Run("", func(t *testing.T) {
			const n = 32
			m := newMatcher(t, n)
			g := graph.New(n)
			prg := hash.NewPRG(seed * 41)
			for step := 0; step < 30; step++ {
				var b graph.Batch
				used := map[graph.Edge]bool{}
				size := 1 + int(prg.NextN(8))
				for attempts := 0; len(b) < size && attempts < 100; attempts++ {
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
				if err := m.ApplyBatch(b); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				checkMaximal(t, m, g)
			}
			if v := m.Cluster().Stats().Violations; len(v) > 0 {
				t.Fatalf("violations: %v", v[0])
			}
		})
	}
}

func TestTwoApproximation(t *testing.T) {
	// Maximal matching is at least half the maximum matching.
	const n = 20
	m := newMatcher(t, n)
	g := graph.New(n)
	prg := hash.NewPRG(77)
	var b graph.Batch
	for total := 0; total < 30; {
		u, v := int(prg.NextN(n)), int(prg.NextN(n))
		if u == v || g.Has(u, v) {
			continue
		}
		_ = g.Insert(u, v, 0)
		b = append(b, graph.Ins(u, v))
		total++
		if len(b) == 10 {
			if err := m.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
			b = nil
		}
	}
	if err := m.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	opt := oracle.MaxMatchingSize(g)
	if 2*m.Size() < opt {
		t.Errorf("maximal matching %d below half of maximum %d", m.Size(), opt)
	}
}

// TestDegenerateTopologies cross-checks the matcher against the oracle on
// each degenerate edge set (the regimes PR 1's randomized audit never
// exercised): maximality (hence 2-approximation) must hold after the
// build-up, after deleting every other edge (a correlated burst of freed
// vertices), and after reinserting the deleted half.
func TestDegenerateTopologies(t *testing.T) {
	const n, batch = 36, 8
	for _, name := range graphtest.TopologyNames {
		t.Run(name, func(t *testing.T) {
			edges := graphtest.Topology(name, n)
			m := newMatcher(t, n)
			g := graph.New(n)
			apply := func(b graph.Batch) {
				t.Helper()
				if err := g.Apply(b); err != nil {
					t.Fatal(err)
				}
				if err := m.ApplyBatch(b); err != nil {
					t.Fatal(err)
				}
				checkMaximal(t, m, g)
			}
			for i := 0; i < len(edges); i += batch {
				var b graph.Batch
				for _, e := range edges[i:min(i+batch, len(edges))] {
					b = append(b, graph.Ins(e.U, e.V))
				}
				apply(b)
			}
			opt := oracle.MaxMatchingSize(g)
			if m.Size() > opt || 2*m.Size() < opt {
				t.Fatalf("size %d outside [opt/2, opt] for opt %d", m.Size(), opt)
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
			for i := 0; i < len(dropped); i += batch {
				var b graph.Batch
				for _, e := range dropped[i:min(i+batch, len(dropped))] {
					b = append(b, graph.Ins(e.U, e.V))
				}
				apply(b)
			}
			opt = oracle.MaxMatchingSize(g)
			if m.Size() > opt || 2*m.Size() < opt {
				t.Fatalf("post-churn size %d outside [opt/2, opt] for opt %d", m.Size(), opt)
			}
		})
	}
}

// TestRestoreCapRejection pins the memory-cap check of the loader: a
// checkpoint whose adjacency a target machine cannot hold is rejected with a
// diagnostic naming the machine, and the target is left untouched; the same
// checkpoint loads onto a fleet of another size that can hold it.
func TestRestoreCapRejection(t *testing.T) {
	const n = 128
	shape := func(vpm int) core.Config { return core.Config{N: n, Phi: 0.6, VerticesPerMachine: vpm} }
	src, err := New(shape(8))
	if err != nil {
		t.Fatal(err)
	}
	var b graph.Batch
	for v := 1; v < n; v++ {
		b = append(b, graph.Ins(0, v))
	}
	if err := src.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	// At 2 vertices per machine the budget is 2·128 = 256 words, but machine
	// 0 holds the star's centre: 2·127 words of its adjacency, 2 of leaf 1's
	// and the shard's 6.
	tight, err := New(shape(2))
	if err != nil {
		t.Fatal(err)
	}
	err = snapshot.Load(bytes.NewReader(buf.Bytes()), tight)
	if err == nil || !strings.Contains(err.Error(), "machine 0 needs 262 words") {
		t.Fatalf("overflowing restore not rejected: %v", err)
	}
	if tight.Size() != 0 {
		t.Fatalf("rejected restore left a matching of %d edges", tight.Size())
	}
	roomy, err := New(shape(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Load(bytes.NewReader(buf.Bytes()), roomy); err != nil {
		t.Fatal(err)
	}
	if got, want := roomy.Matching(), src.Matching(); len(got) != 1 || got[0] != want[0] {
		t.Fatalf("matching after a 17 -> 33 machine restore %v, want %v", got, want)
	}
}
