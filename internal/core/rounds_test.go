package core

import (
	"testing"

	"repro/internal/eulertour"
	"repro/internal/graph"
	"repro/internal/mpc"
)

// TestRoundBudgetPerOperation pins what each step of the update path costs
// in rounds at a shape whose broadcast and aggregation trees all have depth 1
// (N 64, φ 0.6: six machines, every payload far below the fanout), where the
// unit costs of the collectives are an Ask 2 (down, up), a Tell 1 (a Link's
// new records ride its relabel Tell's one round), an aggregation 1 and a
// direct push 1, and a rider (Forest.ride) 0: it is carried by the next Ask
// or Tell. The insert and the Cut figures follow
// from the code by counting collectives; the search and the Link figures are
// as measured. A receive-only round put back into any collective, or a rider
// that pays a broadcast of its own, fails the operation that uses it, by
// name.
func TestRoundBudgetPerOperation(t *testing.T) {
	cfg := Config{N: 64, Phi: 0.6, Seed: 1}
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

	// Link, on a bare forest. Cold label cache: two Asks (labels; component
	// sizes and occurrence stats in one) and the relabel Tell, which carries
	// the new records. A Link rewrites the labels it caches, so every later
	// Link over vertices already seen skips the label Ask.
	f, err := NewForest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl = f.Cluster()
	costs("Link of singletons, cold cache", 5, func() error { return f.Link(weighted(E(0, 1), E(2, 3), E(5, 6))) })
	costs("Link onto a tree, cold at 4", 5, func() error { return f.Link(weighted(E(3, 4))) })
	// {2,3,4} hangs off {0,1} at 3 and is rotated there, and hosts {5,6} at
	// 4. The tour of 2-3-4 is rooted at 2, so 4 is seen first and last below
	// 3's last occurrence, the cut: its stats say it has no occurrence above
	// the cut, and no rotation Ask is sent.
	costs("Link with a rotation its stats place, warm across the Links", 3, func() error { return f.Link(weighted(E(1, 3), E(4, 5))) })
	f.ComponentsOf([]int{6, 7, 10, 11, 12, 13})
	costs("Link, warm cache", 3, func() error { return f.Link(weighted(E(6, 7))) })
	// The path 10-11-12, rooted at 10, hangs off 0 at 12 and is rotated
	// there, and hosts {13} at 11: 11 is seen before and after 12's last
	// occurrence, so its stats straddle the cut, and a third Ask places the
	// attachment in rotated coordinates.
	costs("Link of a path, warm cache", 3, func() error { return f.Link(weighted(E(10, 11), E(11, 12))) })
	costs("Link with a rotation query, warm cache", 5, func() error { return f.Link(weighted(E(0, 12), E(11, 13))) })
	// Of the two Links that rotate a tour, only the second asked.
	rotation := 0
	for _, ph := range cl.Phases() {
		if ph.Name == phaseLinkMinAbove {
			rotation = ph.Rounds
		}
	}
	if rotation != 2 {
		t.Errorf("the rotation Asks took %d rounds, want the one Ask's 2", rotation)
	}
	// A public Cut sends its closing Tell before it returns: one Ask (the
	// records, carrying the size of the warm endpoints' component, whose tour
	// is 4(s − 1) long), the relabel Tell, the fragment push, the fragment-min
	// aggregation and the closing Tell.
	costs("Cut on a bare forest, labels warm", 6, func() error { _, err := f.Cut([]graph.Edge{E(6, 7)}); return err })
	// With both endpoints of the tree edge cold, the lookup carries their
	// labels instead, and the component it names is sized by an Ask of its
	// own: 8, never more than the 10 that a label Ask and a count of the
	// tour's records cost on top of the lookup.
	f.InvalidateCache()
	costs("Cut on a bare forest, both endpoints cold", 8, func() error { _, err := f.Cut([]graph.Edge{E(0, 1)}); return err })

	// The connectivity algorithm on the path 0-1-…-6.
	dc, err := NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl = dc.Cluster()
	costs("empty batch", 0, func() error { return dc.ApplyBatch(nil) })
	var path graph.Batch
	for v := 0; v < 6; v++ {
		path = append(path, graph.Update{Op: graph.Insert, Edge: E(v, v+1)})
	}
	// The label Ask 2, carrying the sketch update, and a Link whose labels
	// are warm.
	costs("insert batch with a Link", 2+3, func() error { return dc.ApplyBatch(path) })
	// The Link kept the cache warm; both chords close a cycle: the batch
	// sends no broadcast, so its sketch update is told on its own.
	costs("insert batch without a Link, warm across the Link", 1, func() error { return dc.ApplyBatch(graph.Batch{graph.Ins(0, 2), graph.Ins(3, 6)}) })
	costs("insert batch without a Link, warm cache", 1, func() error { return dc.ApplyBatch(graph.Batch{graph.Ins(0, 3)}) })

	// Delete the tree edge 4-5, one step at a time. A batch's sketch update
	// is a rider: no round of its own.
	costs("sketch update of a deletion batch", 0, func() error {
		dc.f.ride(sketchUpdate{del: []graph.Edge{E(4, 5)}}, applySketchUpdate)
		return nil
	})
	// Cut, its labels warm: the records Ask (carrying the sketch update and
	// the size of the component), the relabel Tell, the fragment push and the
	// fragment-min aggregation, which also carries the search's first window.
	// The closing Tell is left to ride.
	first := dc.newFirstWindow()
	var report *CutReport
	costs("Cut of a tree edge", 5, func() (err error) { report, err = dc.f.cut([]graph.Edge{E(4, 5)}, first); return err })
	// {5,6} is the small side and finds 3-6 at its first query: one level's
	// label Ask (the Cut parked 3, whose old component now spans two tours),
	// which carries the closing Tell and asks the stats of 3 and 6.
	var replacements []graph.WeightedEdge
	var stats map[int]eulertour.VertexStats
	costs("replacement search, one level", 2, func() error {
		replacements, stats = dc.findReplacements(report.PassiveComps, first)
		return nil
	})
	if len(replacements) != 1 || replacements[0].Edge != E(3, 6) {
		t.Fatalf("replacements %v, want the chord 3-6", replacements)
	}
	// The labels are warm from the search, the stats came with its lookup and
	// the fragments' sizes with the split plan: the relabel Tell, carrying the
	// record.
	costs("Link of the replacement (labels warm from the search)", 1, func() error {
		return dc.f.link(replacements, &linkFacts{stats: stats, sizes: report.FragmentSizes})
	})

	// 5-6 is a bridge now: the search learns Empty from the window the Cut
	// delivered, and the closing Tell is sent at the end of the batch. The
	// Link reunited what the Cut parked, so the Cut is warm again.
	costs("delete batch of a bridge", 5+1, func() error {
		return dc.ApplyBatch(graph.Batch{{Op: graph.Delete, Edge: E(5, 6)}})
	})
	// A whole deletion batch that finds a replacement: a chord at 0 stands in
	// for 1-2.
	costs("delete batch with a replacement", 5+2+1, func() error {
		return dc.ApplyBatch(graph.Batch{{Op: graph.Delete, Edge: E(1, 2)}})
	})
	if dc.Connected(5, 6) || !dc.Connected(1, 2) {
		t.Error("connectivity wrong after the deletions")
	}
	if st := dc.SearchStats(); st.Searches != 3 || st.Levels != 2 || st.Refills != 0 || st.Exhausted != 0 {
		t.Errorf("search stats %+v, want 3 searches, 2 levels, no refill", st)
	}
	// A cold cache pays the label Ask, which carries the sketch update.
	dc.InvalidateQueryCache()
	costs("insert batch without a Link, cold cache", 2, func() error { return dc.ApplyBatch(graph.Batch{graph.Ins(1, 3)}) })

	// A mixed batch on the path 10-11-12-13 with the chord 10-12: 20-21
	// joins two singletons, then 11-12 is cut and 10-12 replaces it. The
	// insert Link pays the label Ask of 20 and 21 (carrying the sketch
	// update) and a Link of singletons (stats and sizes Ask, relabel Tell
	// with the record); the Cut is warm (5) and parks 10 and 12, so the
	// search's one level asks (2), and the replacement Link takes what that
	// Ask and the split plan told it (1).
	var chain graph.Batch
	for v := 10; v < 13; v++ {
		chain = append(chain, graph.Ins(v, v+1))
	}
	if err := dc.ApplyBatch(append(chain, graph.Ins(10, 12))); err != nil {
		t.Fatal(err)
	}
	costs("mixed batch: insert Link, Cut, replacement", 2+3+5+2+1, func() error {
		return dc.ApplyBatch(graph.Batch{graph.Ins(20, 21), graph.Del(11, 12)})
	})
	if !dc.Connected(11, 12) || !dc.Connected(20, 21) || dc.Connected(10, 20) {
		t.Error("connectivity wrong after the mixed batch")
	}
	// A chunk of replacements past MaxBatch() joins what the first chunk
	// merged, so it asks stats and sizes as any Link does (3). ApplyBatch
	// never gets that far — k ≤ MaxBatch() tree-edge deletions leave at most
	// k replacements — so the row links one search's replacement the way a
	// later chunk would, with nothing known. Cut 12-13; the chord 11-13 takes
	// its place.
	if err := dc.ApplyBatch(graph.Batch{graph.Ins(11, 13)}); err != nil {
		t.Fatal(err)
	}
	dc.f.ride(sketchUpdate{del: []graph.Edge{E(12, 13)}}, applySketchUpdate)
	first = dc.newFirstWindow()
	if report, err = dc.f.cut([]graph.Edge{E(12, 13)}, first); err != nil {
		t.Fatal(err)
	}
	replacements, _ = dc.findReplacements(report.PassiveComps, first)
	if len(replacements) != 1 || replacements[0].Edge != E(11, 13) {
		t.Fatalf("replacements %v, want the chord 11-13", replacements)
	}
	costs("Link of a replacement chunk past MaxBatch()", 3, func() error { return dc.f.link(replacements, nil) })
	dc.f.cache.dropParked()
	dc.f.flush()
	if !dc.Connected(12, 13) {
		t.Error("connectivity wrong after the chunk's Link")
	}
	for _, c := range []*mpc.Cluster{f.Cluster(), dc.Cluster()} {
		if v := c.Stats().Violations; len(v) != 0 {
			t.Errorf("violations: %q", v)
		}
	}
}
