package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/eulertour"
	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// replayInserts is what Bootstrap replaced: the edges applied as insert
// batches of MaxBatch, in order.
func replayInserts(t *testing.T, dc *DynamicConnectivity, edges []graph.Edge) {
	t.Helper()
	for i := 0; i < len(edges); i += dc.MaxBatch() {
		var b graph.Batch
		for _, e := range edges[i:min(i+dc.MaxBatch(), len(edges))] {
			b = append(b, graph.Update{Op: graph.Insert, Edge: e})
		}
		if err := dc.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
}

// sameLoadedState fails unless two instances hold the same tree-edge set,
// the same sketch state — list edges, promoted vertices and their words —,
// the same component column, warm set and component count. Tour layouts and
// Stats may differ.
func sameLoadedState(t *testing.T, got, want *DynamicConnectivity) {
	t.Helper()
	if g, w := got.SnapshotForest(), want.SnapshotForest(); !slices.Equal(g, w) {
		t.Fatalf("tree edges %v, replay %v", g, w)
	}
	gp, wp := got.promotedVertices(), want.promotedVertices()
	if !slices.Equal(gp, wp) {
		t.Fatalf("promoted vertices %v, replay %v", gp, wp)
	}
	if g, w := got.listEdges(gp), want.listEdges(wp); !slices.Equal(g, w) {
		t.Fatalf("%d list edges, replay %d, or they differ", len(g), len(w))
	}
	gs, ws := got.liveRows().sketches, want.liveRows().sketches
	for r, v := range gp {
		if !slices.Equal(gs[r].Cells(), ws[r].Cells()) {
			t.Fatalf("promoted vertex %d: sketch words differ from the replay's", v)
		}
	}
	if g, w := got.SnapshotComponents(), want.SnapshotComponents(); !slices.Equal(g, w) {
		t.Fatalf("components %v, replay %v", g, w)
	}
	// The tours may be laid out differently, but each starts at the same
	// vertex, its tree's smallest: so the Links that follow rotate the same
	// components and spend the same rounds.
	if g, w := tourRoots(got), tourRoots(want); !slices.Equal(g, w) {
		t.Fatalf("tour roots %v, replay %v", g, w)
	}
	gw, ww := got.f.warm().Has, want.f.warm().Has
	for v := range got.f.cfg.N {
		if gw(v) != ww(v) {
			t.Fatalf("vertex %d warm %v, replay %v", v, gw(v), ww(v))
		}
	}
	if g, w := got.NumComponents(), want.NumComponents(); g != w {
		t.Fatalf("%d components, replay %d", g, w)
	}
}

// tourRoots lists the vertex at position 1 of every tour, ascending.
func tourRoots(dc *DynamicConnectivity) []int {
	var roots []int
	for _, te := range dc.f.liveRows().recs {
		if r := te.rec; r.UPos[0] == 1 {
			roots = append(roots, r.E.U)
		} else if r.VPos[0] == 1 {
			roots = append(roots, r.E.V)
		}
	}
	slices.Sort(roots)
	return roots
}

// mixedBatch draws a batch of up to k/2 deletions of live edges of g and
// insertions of absent ones up to k, and applies it to g.
func mixedBatch(t *testing.T, g *graph.Graph, prg *hash.PRG, k int) graph.Batch {
	t.Helper()
	live := g.Edges()
	slices.SortFunc(live, func(a, b graph.WeightedEdge) int { return cmpEdge(a.Edge, b.Edge) })
	used := map[graph.Edge]bool{}
	var b graph.Batch
	for range k / 2 {
		if len(live) == 0 {
			break
		}
		if e := live[prg.NextN(uint64(len(live)))].Edge; !used[e] {
			used[e] = true
			b = append(b, graph.Del(e.U, e.V))
		}
	}
	n := uint64(g.N())
	for len(b) < k {
		u, v := int(prg.NextN(n)), int(prg.NextN(n))
		if u == v || g.Has(u, v) || used[graph.NewEdge(u, v)] {
			continue
		}
		used[graph.NewEdge(u, v)] = true
		b = append(b, graph.Ins(u, v))
	}
	if err := g.Apply(b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBootstrapEqualsReplay pins the load against what it replaced: at
// parallelism 1 and 8, on the final edge sets of the three golden streams and
// on recover-churn's shape (n = 4096, φ = 0.5, about 16k powerlaw edges),
// Bootstrap and a replay of the same edges as insert batches of MaxBatch
// leave the same tree edges, sketch state, components, warm set and
// component count (sameLoadedState), and 40 further mixed batches on both
// return the same answers, pick the same replacement edges — the forests stay
// equal — and spend the same rounds, batch by batch.
func TestBootstrapEqualsReplay(t *testing.T) {
	type shape struct {
		name  string
		cfg   Config
		edges []graph.Edge
		g     *graph.Graph
		next  func(t *testing.T, k int) graph.Batch
	}
	var shapes []shape
	for _, stream := range []string{"testdata/churn32.stream", "../harness/testdata/window64.stream", "../harness/testdata/powerlaw64.stream"} {
		batches, n := readStream(t, stream)
		g := graph.New(n)
		for _, b := range batches {
			if err := g.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		var edges []graph.Edge
		for _, e := range g.Edges() {
			edges = append(edges, e.Edge)
		}
		slices.SortFunc(edges, cmpEdge)
		prg := hash.NewPRG(61)
		shapes = append(shapes, shape{name: stream, cfg: Config{N: n, Phi: 0.6, Seed: 1}, edges: edges, g: g,
			next: func(t *testing.T, k int) graph.Batch { return mixedBatch(t, g, prg, k) }})
	}
	const n = 4096
	sc, err := workload.Get("powerlaw")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: n, Phi: 0.5, Seed: 1}
	gen := sc.New(n, 2)
	for gen.Mirror().M() < 16384 {
		gen.Next(cfg.MaxBatch())
	}
	var edges []graph.Edge
	for _, e := range gen.Mirror().Edges() {
		edges = append(edges, e.Edge)
	}
	shapes = append(shapes, shape{name: "recover-churn", cfg: cfg, edges: edges, g: gen.Mirror(),
		next: func(_ *testing.T, k int) graph.Batch { return gen.Next(k) }})

	for _, sh := range shapes {
		// Both parallelisms run on one generator's batches, drawn once.
		var batches []graph.Batch
		start := sh.g.Clone()
		for _, p := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", sh.name, p), func(t *testing.T) {
				cfg := sh.cfg
				cfg.Parallelism = p
				load, err := NewDynamicConnectivity(cfg)
				if err != nil {
					t.Fatal(err)
				}
				replay, err := NewDynamicConnectivity(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rounds, err := load.Bootstrap(sh.edges); err != nil || rounds != 0 {
					t.Fatalf("Bootstrap = (%d, %v), want (0, nil)", rounds, err)
				}
				replayInserts(t, replay, sh.edges)
				sameLoadedState(t, load, replay)

				g := start.Clone()
				pairs := make([]Pair, 0, 64)
				prg := hash.NewPRG(62)
				for range cap(pairs) {
					pairs = append(pairs, Pair{U: int(prg.NextN(uint64(cfg.N))), V: int(prg.NextN(uint64(cfg.N)))})
				}
				for i := range 40 {
					if len(batches) == i {
						batches = append(batches, sh.next(t, load.MaxBatch()))
					}
					b := batches[i]
					if err := g.Apply(b); err != nil {
						t.Fatal(err)
					}
					var rounds [2]int
					for j, dc := range []*DynamicConnectivity{load, replay} {
						before := dc.Cluster().Stats().Rounds
						if err := dc.ApplyBatch(b); err != nil {
							t.Fatalf("batch %d: %v", i, err)
						}
						rounds[j] = dc.Cluster().Stats().Rounds - before
					}
					if rounds[0] != rounds[1] {
						t.Fatalf("batch %d: %d rounds after the load, %d after the replay", i, rounds[0], rounds[1])
					}
					if got, want := load.SnapshotForest(), replay.SnapshotForest(); !slices.Equal(got, want) {
						t.Fatalf("batch %d: forests differ: %v, replay %v", i, got, want)
					}
					got, want := load.ConnectedAll(pairs), replay.ConnectedAll(pairs)
					if !slices.Equal(got, want) {
						t.Fatalf("batch %d: answers %v, replay %v", i, got, want)
					}
				}
				if got, want := load.SnapshotComponents(), oracle.Components(g); !slices.Equal(got, want) {
					t.Fatalf("components %v, oracle %v", got, want)
				}
				if err := load.CheckSketches(g); err != nil {
					t.Fatal(err)
				}
				if st := load.SearchStats(); st != replay.SearchStats() || st.Searches == 0 {
					t.Fatalf("search stats %+v, replay %+v: equal and nonzero wanted", st, replay.SearchStats())
				}
			})
		}
	}
}

// TestBootstrapPromotion loads, at TestPromotion's shape (S = 96 words), two
// hubs past S on one shared leaf set, joined to each other: both are
// promoted with the words a replay's promotion leaves, their leaves keep
// lists identical to the replay's, and the hub–hub edge sits on no list.
func TestBootstrapPromotion(t *testing.T) {
	const n = 128
	for _, p := range []int{1, 8} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			cfg := Config{N: n, Phi: 0.6, Seed: 9, SketchCopies: 3, VerticesPerMachine: 16, Parallelism: p}
			g := graph.New(n)
			edges := []graph.Edge{graph.NewEdge(0, 1)}
			for v := 2; v < 112; v++ {
				edges = append(edges, graph.NewEdge(0, v), graph.NewEdge(1, v))
			}
			edges = append(edges, graph.Edge{U: 113, V: 112}, graph.Edge{U: 3, V: 2}) // either orientation loads
			for _, e := range edges {
				if err := g.Insert(e.U, e.V, 0); err != nil {
					t.Fatal(err)
				}
			}
			load, err := NewDynamicConnectivity(cfg)
			if err != nil {
				t.Fatal(err)
			}
			replay, err := NewDynamicConnectivity(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if g.Degree(0) <= load.SpaceWords() || g.Degree(2) > load.SpaceWords() {
				t.Fatalf("hub degree %d, leaf degree %d: want them either side of S = %d", g.Degree(0), g.Degree(2), load.SpaceWords())
			}
			if _, err := load.Bootstrap(edges); err != nil {
				t.Fatal(err)
			}
			replayInserts(t, replay, edges)
			sameLoadedState(t, load, replay)
			promoted := load.promotedVertices()
			if !slices.Equal(promoted, []int{0, 1}) {
				t.Fatalf("promoted %v, want the two hubs", promoted)
			}
			if _, ok := slices.BinarySearch(load.listEdges(promoted), graph.NewEdge(0, 1).ID(n)); ok {
				t.Fatal("the hub–hub edge is on a list")
			}
			if err := load.CheckSketches(g); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBootstrapRefusals: Bootstrap refuses an instance that holds an edge, a
// duplicate edge, a self-loop, a vertex out of range and a state past the
// per-machine cap, and the refused instance then answers and applies
// batches exactly as a twin that never saw the call (p1 and p8).
func TestBootstrapRefusals(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		hold bool // the prehistory leaves an edge in place
		boot []graph.Edge
		want string
	}{
		{"holds an edge", Config{N: 32, Phi: 0.6, Seed: 9}, true, []graph.Edge{{U: 5, V: 6}}, "already holds edges"},
		{"duplicate", Config{N: 32, Phi: 0.6, Seed: 9}, false, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 1, V: 0}}, "listed twice"},
		{"self-loop", Config{N: 32, Phi: 0.6, Seed: 9}, false, []graph.Edge{{U: 0, V: 1}, {U: 3, V: 3}}, "self-loop"},
		{"out of range", Config{N: 32, Phi: 0.6, Seed: 9}, false, []graph.Edge{{U: 0, V: 1}, {U: 4, V: 32}}, "outside vertex range"},
		{"past the cap", Config{N: 64, Phi: 0.6, SketchCopies: 1, Seed: 23, VerticesPerMachine: 1}, false, pathEdges(0, 63), "budget"},
	} {
		for _, p := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", tc.name, p), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Parallelism = p
				var pair [2]*DynamicConnectivity
				for i := range pair {
					dc, err := NewDynamicConnectivity(cfg)
					if err != nil {
						t.Fatal(err)
					}
					// A prehistory: an edge in and out (or left in), and a
					// query that warms the cache.
					prehistory := []graph.Batch{{graph.Ins(7, 9)}, {graph.Del(7, 9)}}
					if tc.hold {
						prehistory = prehistory[:1]
					}
					for _, b := range prehistory {
						if err := dc.ApplyBatch(b); err != nil {
							t.Fatal(err)
						}
					}
					dc.ConnectedAll([]Pair{{U: 7, V: 9}, {U: 1, V: 2}})
					pair[i] = dc
				}
				dc, twin := pair[0], pair[1]
				before := dc.Cluster().Stats()
				if _, err := dc.Bootstrap(tc.boot); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Bootstrap = %v, want an error containing %q", err, tc.want)
				}
				if after := dc.Cluster().Stats(); after.Rounds != before.Rounds || after.WordsSent != before.WordsSent {
					t.Fatalf("the refusal moved the Stats: %+v, then %+v", before, after)
				}
				g := graph.New(cfg.N)
				if tc.hold {
					if err := g.Insert(7, 9, 0); err != nil {
						t.Fatal(err)
					}
				}
				prg := hash.NewPRG(71)
				pairs := []Pair{{U: 7, V: 9}, {U: 0, V: 1}, {U: 2, V: 3}, {U: 1, V: 5}}
				for i := range 12 {
					b := mixedBatch(t, g, prg, dc.MaxBatch())
					for _, x := range pair {
						if err := x.ApplyBatch(b); err != nil {
							t.Fatalf("batch %d: %v", i, err)
						}
					}
					if got, want := dc.Cluster().Stats(), twin.Cluster().Stats(); got.Rounds != want.Rounds || got.WordsSent != want.WordsSent {
						t.Fatalf("batch %d: Stats %+v, twin %+v", i, got, want)
					}
					if got, want := dc.ConnectedAll(pairs), twin.ConnectedAll(pairs); !slices.Equal(got, want) {
						t.Fatalf("batch %d: answers %v, twin %v", i, got, want)
					}
					if got, want := dc.SnapshotForest(), twin.SnapshotForest(); !slices.Equal(got, want) {
						t.Fatalf("batch %d: forest %v, twin %v", i, got, want)
					}
				}
				if err := dc.CheckSketches(g); err != nil {
					t.Fatal(err)
				}
				if got, want := dc.SnapshotComponents(), oracle.Components(g); !slices.Equal(got, want) {
					t.Fatalf("components %v, oracle %v", got, want)
				}
			})
		}
	}
}

// TestLayToursIsOneLinkOntoSingletons holds the tours Bootstrap lays out to
// the records eulertour.JoinPlanner plans for one Link of the whole forest
// onto singletons, tour ids included, on random forests with isolated
// vertices, paths and stars among them.
func TestLayToursIsOneLinkOntoSingletons(t *testing.T) {
	const n = 60
	for seed := range uint64(20) {
		prg := hash.NewPRG(seed)
		var edges []graph.Edge
		for range int(prg.NextN(3 * n)) {
			if u, v := int(prg.NextN(n)), int(prg.NextN(n)); u != v {
				edges = append(edges, graph.NewEdge(u, v))
			}
		}
		if seed%4 == 0 { // a path and a star as well
			for v := 1; v < n/2; v++ {
				edges = append(edges, graph.NewEdge(v-1, v), graph.NewEdge(n/2, n/2+v%(n/2)))
			}
		}
		var tree []graph.Edge
		forestComponents(n, edges, func(j int) { tree = append(tree, edges[j]) })
		var comps []eulertour.CompInfo
		stats := map[int]eulertour.VertexStats{}
		for _, e := range tree {
			for _, v := range []int{e.U, e.V} {
				if _, ok := stats[v]; !ok {
					comps = append(comps, eulertour.CompInfo{Key: v, Size: 1})
					stats[v] = eulertour.VertexStats{}
				}
			}
		}
		planner, err := eulertour.NewJoinPlanner(comps, tree, func(v int) int { return v })
		if err != nil {
			t.Fatal(err)
		}
		if err := planner.SetStats(stats); err != nil {
			t.Fatal(err)
		}
		want := uint64(7)
		plan, err := planner.Plan(func() eulertour.TourID { want++; return eulertour.TourID(want - 1) })
		if err != nil {
			t.Fatal(err)
		}
		got := uint64(7)
		var gotRecs []eulertour.Record
		for _, te := range layTours(n, tree, &got) {
			gotRecs = append(gotRecs, te.rec)
		}
		byEdge := func(a, b eulertour.Record) int { return cmpEdge(a.E, b.E) }
		slices.SortFunc(gotRecs, byEdge)
		slices.SortFunc(plan.NewRecords, byEdge)
		if got != want || !slices.Equal(gotRecs, plan.NewRecords) {
			t.Fatalf("seed %d: tours up to %d %v, the planner's up to %d %v", seed, got, gotRecs, want, plan.NewRecords)
		}
	}
}
