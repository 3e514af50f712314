package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/mpc"
)

// TestRoundBudgetPerOperation pins what each step of the update path costs
// in rounds at a shape whose broadcast and aggregation trees all have depth 1
// (N 64, φ 0.6: six machines, every payload far below the fanout), where the
// unit costs of the collectives are an Ask 2 (down, up), a Tell 1, a Scatter
// 1, an aggregation 1 and a direct push 1. The insert and the Cut figures
// follow from the code by counting collectives; the search and the Link
// figures are as measured. A receive-only round put back into any collective
// fails the operation that uses it, by name.
func TestRoundBudgetPerOperation(t *testing.T) {
	cfg := Config{N: 64, Phi: 0.6, Seed: 1, Strict: true}
	var cl *mpc.Cluster
	costs := func(name string, want int, op func() error) {
		t.Helper()
		before := cl.Stats().Rounds
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := cl.Stats().Rounds - before; got != want {
			t.Errorf("%s took %d rounds, want %d", name, got, want)
		}
	}
	E := func(u, v int) graph.Edge { return graph.Edge{U: u, V: v} }
	weighted := func(es ...graph.Edge) []graph.WeightedEdge {
		out := make([]graph.WeightedEdge, len(es))
		for i, e := range es {
			out[i] = graph.WeightedEdge{Edge: e}
		}
		return out
	}

	// Link, on a bare forest. Cold label cache: three Asks (labels, component
	// sizes, occurrence stats), the relabel Tell and the record Scatter.
	f, err := NewForest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl = f.Cluster()
	costs("Link of singletons, cold cache", 8, func() error { return f.Link(weighted(E(0, 1), E(2, 3), E(5, 6))) })
	costs("Link onto a tree, cold cache", 8, func() error { return f.Link(weighted(E(3, 4))) })
	// {2,3,4} hangs off {0,1} at 3 and is rotated there, and hosts {5,6} at
	// 4: a fourth Ask places the attachment in rotated coordinates.
	costs("Link with a rotation query, cold cache", 10, func() error { return f.Link(weighted(E(1, 3), E(4, 5))) })
	f.ComponentsOf([]int{6, 7})
	costs("Link, warm cache", 6, func() error { return f.Link(weighted(E(6, 7))) })

	// The connectivity algorithm on the path 0-1-…-6.
	dc, err := NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl = dc.Cluster()
	var path graph.Batch
	for v := 0; v < 6; v++ {
		path = append(path, graph.Update{Op: graph.Insert, Edge: E(v, v+1)})
	}
	// Sketch Tell 1, label Ask 2, and a Link whose labels are warm.
	costs("insert batch with a Link", 1+2+6, func() error { return dc.ApplyBatch(path) })
	// The Link left the cache cold; both chords close a cycle: Tell 1 + Ask 2.
	chords := []graph.Edge{E(0, 2), E(3, 6)}
	costs("insert batch without a Link, cold cache", 3, func() error { return dc.insert(chords) })
	costs("insert batch without a Link, warm cache", 1, func() error { return dc.insert([]graph.Edge{E(0, 3)}) })

	// Delete the tree edge 4-5, one step at a time. Cut: three Asks (records,
	// labels, tour lengths), the relabel Tell, the fragment push, the
	// fragment-min aggregation and the closing Tell.
	costs("sketch update", 1, func() error { dc.updateSketches([]graph.Edge{E(4, 5)}, graph.Delete); return nil })
	var report *CutReport
	costs("Cut of a tree edge", 10, func() (err error) { report, err = dc.f.Cut([]graph.Edge{E(4, 5)}); return err })
	// {5,6} is the small side and finds 3-6 at its first query: one sketch
	// aggregation and one level's label Ask.
	var replacements []graph.WeightedEdge
	costs("replacement search, one level", 3, func() error {
		replacements = dc.findReplacements(report.PassiveComps)
		return nil
	})
	if len(replacements) != 1 || replacements[0].Edge != E(3, 6) {
		t.Fatalf("replacements %v, want the chord 3-6", replacements)
	}
	costs("Link of the replacement (labels warm from the search)", 6, func() error { return dc.f.Link(replacements) })

	// 5-6 is a bridge now: the search learns Empty from the one aggregation.
	costs("delete batch of a bridge", 1+10+1, func() error {
		return dc.ApplyBatch(graph.Batch{{Op: graph.Delete, Edge: E(5, 6)}})
	})
	// A whole deletion batch that finds a replacement: a chord at 0 stands in
	// for 1-2.
	costs("delete batch with a replacement", 1+10+3+6, func() error {
		return dc.ApplyBatch(graph.Batch{{Op: graph.Delete, Edge: E(1, 2)}})
	})
	if dc.Connected(5, 6) || !dc.Connected(1, 2) {
		t.Error("connectivity wrong after the deletions")
	}
	if st := dc.SearchStats(); st.Searches != 3 || st.Levels != 2 || st.Refills != 0 || st.Exhausted != 0 {
		t.Errorf("search stats %+v, want 3 searches, 2 levels, no refill", st)
	}
}
