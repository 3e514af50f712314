package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
)

// pathEdges returns the path lo, lo+1, ..., hi.
func pathEdges(lo, hi int) []graph.Edge {
	var es []graph.Edge
	for v := lo; v < hi; v++ {
		es = append(es, graph.NewEdge(v, v+1))
	}
	return es
}

// starEdges returns the star with the given hub and leaves lo..hi.
func starEdges(hub, lo, hi int) []graph.Edge {
	var es []graph.Edge
	for v := lo; v <= hi; v++ {
		es = append(es, graph.NewEdge(hub, v))
	}
	return es
}

// expectedSketchCounts derives, from the forest as it stood before the
// deletion, what the passive-largest rule must do: every vertex of a tree
// that loses an edge is either summed or skipped, and the skipped ones are
// the largest fragment of each such tree (none when it is a single vertex).
func expectedSketchCounts(n int, forest, deleted []graph.Edge) (summed, skipped uint64) {
	gone := map[graph.Edge]bool{}
	for _, e := range deleted {
		gone[e.Canonical()] = true
	}
	trees, frags := oracle.NewUnionFind(n), oracle.NewUnionFind(n)
	for _, e := range forest {
		trees.Union(e.U, e.V)
		if !gone[e] {
			frags.Union(e.U, e.V)
		}
	}
	split := map[int]bool{} // trees that lose an edge
	for _, e := range forest {
		if gone[e] {
			split[trees.Find(e.U)] = true
		}
	}
	fragSize := map[int]int{}
	for v := 0; v < n; v++ {
		if split[trees.Find(v)] {
			fragSize[frags.Find(v)]++
		}
	}
	largest := map[int]int{}
	total := 0
	for root, size := range fragSize {
		total += size
		if t := trees.Find(root); size > largest[t] {
			largest[t] = size
		}
	}
	for _, l := range largest {
		if l > 1 {
			skipped += uint64(l)
		}
	}
	return uint64(total) - skipped, skipped
}

// TestPassiveLargestFragment drives the replacement search through the
// shapes where leaving the largest fragment of every split tour passive
// could go wrong, and pins exactly how many vertex sketches it sums.
func TestPassiveLargestFragment(t *testing.T) {
	cases := []struct {
		name string
		n    int
		tree []graph.Edge // inserted first: all become tree edges
		more []graph.Edge // inserted next: all close cycles
		del  []graph.Edge
		// summed/skipped pin the counts where the issue names them; -1 means
		// "whatever the forest says" (always checked).
		summed, skipped int
	}{
		{
			name: "star, hub edges cut: singletons next to one large fragment",
			n:    40, tree: starEdges(0, 1, 32),
			more:   []graph.Edge{graph.NewEdge(1, 2), graph.NewEdge(3, 20), graph.NewEdge(5, 7)},
			del:    []graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(0, 3), graph.NewEdge(0, 4), graph.NewEdge(0, 5), graph.NewEdge(0, 7), graph.NewEdge(0, 9)},
			summed: 6, skipped: 27,
		},
		{
			name: "path cut in the exact middle: a tie",
			n:    16, tree: pathEdges(0, 15),
			more:   []graph.Edge{graph.NewEdge(2, 13)},
			del:    []graph.Edge{graph.NewEdge(7, 8)},
			summed: 8, skipped: 8,
		},
		{
			name: "two-vertex tree: no passive fragment",
			n:    8, tree: []graph.Edge{graph.NewEdge(3, 4)},
			del:    []graph.Edge{graph.NewEdge(3, 4)},
			summed: 2, skipped: 0,
		},
		{
			name: "small side has no replacement",
			n:    24, tree: pathEdges(0, 19),
			more:   []graph.Edge{graph.NewEdge(6, 17)},
			del:    []graph.Edge{graph.NewEdge(3, 4)},
			summed: 4, skipped: 16,
		},
		{
			name: "the large side is the one cut off",
			n:    30, tree: pathEdges(0, 29),
			more:   []graph.Edge{graph.NewEdge(20, 29), graph.NewEdge(2, 11)},
			del:    []graph.Edge{graph.NewEdge(19, 20), graph.NewEdge(24, 25)},
			summed: 10, skipped: 20,
		},
		{
			name: "several affected components in one batch",
			n:    48, tree: append(append(pathEdges(0, 19), pathEdges(20, 31)...), starEdges(32, 33, 40)...),
			more:   []graph.Edge{graph.NewEdge(0, 19), graph.NewEdge(33, 34)},
			del:    []graph.Edge{graph.NewEdge(4, 5), graph.NewEdge(12, 13), graph.NewEdge(25, 26), graph.NewEdge(32, 33), graph.NewEdge(32, 36), graph.NewEdge(0, 19)},
			summed: -1, skipped: -1,
		},
		{
			name: "every edge of a tree deleted",
			n:    16, tree: append(starEdges(2, 3, 6), pathEdges(6, 9)...),
			del:    append(starEdges(2, 3, 6), pathEdges(6, 9)...),
			summed: 8, skipped: 0,
		},
		{
			name: "64-vertex path cut 16|48 with one edge across",
			n:    64, tree: pathEdges(0, 63),
			more:   []graph.Edge{graph.NewEdge(5, 40)},
			del:    []graph.Edge{graph.NewEdge(15, 16)},
			summed: 16, skipped: 48,
		},
	}
	for _, tc := range cases {
		for _, copies := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/copies%d", tc.name, copies), func(t *testing.T) {
				run := func(parallelism int) (*mirror, SearchStats) {
					dc, err := NewDynamicConnectivity(Config{
						N: tc.n, Phi: 0.5, Seed: 11, VerticesPerMachine: 16,
						SketchCopies: copies, Parallelism: parallelism,
					})
					if err != nil {
						t.Fatal(err)
					}
					m := &mirror{t: t, dc: dc, g: graph.New(tc.n)}
					for _, es := range [][]graph.Edge{tc.tree, tc.more} {
						for len(es) > 0 {
							k := min(len(es), dc.MaxBatch())
							var b graph.Batch
							for _, e := range es[:k] {
								b = append(b, graph.Ins(e.U, e.V))
							}
							m.apply(b)
							es = es[k:]
						}
					}
					m.check()
					forest := dc.SnapshotForest()
					var b graph.Batch
					for _, e := range tc.del {
						b = append(b, graph.Del(e.U, e.V))
					}
					m.apply(b)
					m.check()

					st := dc.SearchStats()
					summed, skipped := expectedSketchCounts(tc.n, forest, tc.del)
					if st.SketchesSummed != summed || st.SketchesSkipped != skipped {
						t.Errorf("summed %d skipped %d, the forest says %d and %d",
							st.SketchesSummed, st.SketchesSkipped, summed, skipped)
					}
					if tc.summed >= 0 && (st.SketchesSummed != uint64(tc.summed) || st.SketchesSkipped != uint64(tc.skipped)) {
						t.Errorf("summed %d skipped %d, want %d and %d",
							st.SketchesSummed, st.SketchesSkipped, tc.summed, tc.skipped)
					}
					if st.Searches != 1 || st.Exhausted != 0 {
						t.Errorf("%d searches, %d exhausted; want 1 and 0", st.Searches, st.Exhausted)
					}
					return m, st
				}
				seq, seqSearch := run(1)
				par, parSearch := run(8)
				if seqSearch != parSearch {
					t.Errorf("search stats differ: p1 %+v, p8 %+v", seqSearch, parSearch)
				}
				if a, b := seq.dc.Cluster().Stats(), par.dc.Cluster().Stats(); !reflect.DeepEqual(a, b) {
					t.Errorf("mpc.Stats differ:\np1 %+v\np8 %+v", a, b)
				}
				if !reflect.DeepEqual(seq.dc.SnapshotForest(), par.dc.SnapshotForest()) {
					t.Error("forests differ between p1 and p8")
				}
			})
		}
	}
}

// TestCutReportsPassiveFragments pins what Cut declares passive: the
// largest fragment of each split tour, one of them (the same one at every
// parallelism) among equals, and nothing for a tour that falls apart into
// single vertices.
func TestCutReportsPassiveFragments(t *testing.T) {
	cut := func(parallelism int) *CutReport {
		f, err := NewForest(Config{N: 32, Phi: 0.5, VerticesPerMachine: 16, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		var tree []graph.WeightedEdge
		for _, e := range append(append(pathEdges(0, 9), pathEdges(10, 17)...), graph.NewEdge(20, 21)) {
			tree = append(tree, graph.WeightedEdge{Edge: e})
		}
		for len(tree) > 0 {
			k := min(len(tree), f.Config().MaxBatch())
			if err := f.Link(tree[:k]); err != nil {
				t.Fatal(err)
			}
			tree = tree[k:]
		}
		// 0..9 falls into {0,1,2} and {3..9}; 10..17 into two halves of
		// four; 20-21 into two single vertices.
		rep, err := f.Cut([]graph.Edge{graph.NewEdge(2, 3), graph.NewEdge(13, 14), graph.NewEdge(20, 21)})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := cut(1)
	if want := []int{0, 3, 10, 14, 20, 21}; !reflect.DeepEqual(rep.FragmentComps, want) {
		t.Fatalf("FragmentComps = %v, want %v", rep.FragmentComps, want)
	}
	p := rep.PassiveComps
	if len(p) != 2 || p[0] != 3 || (p[1] != 10 && p[1] != 14) {
		t.Fatalf("PassiveComps = %v, want 3 and one of 10, 14", p)
	}
	if par := cut(8); !reflect.DeepEqual(par, rep) {
		t.Errorf("cut reports differ:\np1 %+v\np8 %+v", rep, par)
	}
}

// checkCutFragments checks the fragment column a Cut leaves on f's vertex
// shards, read after the fragment push and before dropFrags, against the
// forest it split (before) and the tree edges it deleted (cut): every vertex
// of a split tree has a key and no other vertex has one; two of them share a
// key exactly when the surviving tree edges join them; exactly the isolated
// ones carry their vertex key; and the passive keys name the largest fragment
// of every split tree that keeps an edge, and nothing else.
func checkCutFragments(t *testing.T, f *Forest, before, cut []graph.Edge, at string) {
	t.Helper()
	n := f.cfg.N
	gone := map[graph.Edge]bool{}
	for _, e := range cut {
		gone[e] = true
	}
	trees, frags := oracle.NewUnionFind(n), oracle.NewUnionFind(n)
	deg := make([]int, n)
	for _, e := range before {
		trees.Union(e.U, e.V)
		if !gone[e] {
			frags.Union(e.U, e.V)
			deg[e.U]++
			deg[e.V]++
		}
	}
	split := map[int]bool{}
	for _, e := range cut {
		split[trees.Find(e.U)] = true
	}
	key := make([]uint64, n)
	var passive map[uint64]bool
	for i := 0; i < f.cl.Machines(); i++ {
		if vs := vShard(f.cl.Machine(i)); vs != nil {
			copy(key[vs.lo:vs.hi], vs.frag)
			passive = vs.passive
		}
	}
	size := map[int]int{} // fragment size, by its root in frags
	for v := 0; v < n; v++ {
		if split[trees.Find(v)] {
			size[frags.Find(v)]++
		}
	}
	fragOf := map[uint64]int{} // key -> fragment root in frags
	largest := map[int]int{}   // split tree root -> its largest fragment size
	for v := 0; v < n; v++ {
		k, isolated := key[v], deg[v] == 0
		switch {
		case !split[trees.Find(v)]:
			if k != 0 {
				t.Fatalf("%s: vertex %d of a tree the cut left whole has key %#x", at, v, k)
			}
			continue
		case k == 0:
			t.Fatalf("%s: vertex %d of a split tree has no key", at, v)
		case (k&fragVertexBit != 0) != isolated || isolated && k != fragKeyOfVertex(v):
			t.Fatalf("%s: vertex %d with %d surviving tree edges has key %#x", at, v, deg[v], k)
		}
		if r, ok := fragOf[k]; ok && r != frags.Find(v) {
			t.Fatalf("%s: vertices %d and %d share key %#x, but the forest separates them", at, r, v, k)
		}
		fragOf[k] = frags.Find(v)
		largest[trees.Find(v)] = max(largest[trees.Find(v)], size[frags.Find(v)])
	}
	if len(fragOf) != len(size) {
		t.Fatalf("%s: %d keys name %d fragments", at, len(fragOf), len(size))
	}
	named := map[int]int{} // split tree root -> passive keys naming its fragments
	for k := range passive {
		r, ok := fragOf[k]
		if !ok {
			t.Fatalf("%s: passive key %#x names no fragment", at, k)
		}
		named[trees.Find(r)]++
		if l := largest[trees.Find(r)]; size[r] != l {
			t.Fatalf("%s: passive key %#x names a fragment of %d vertices, its tree's largest has %d", at, k, size[r], l)
		}
	}
	for r := range split {
		if want := min(1, largest[r]-1); named[r] != want {
			t.Fatalf("%s: %d passive keys for the tree of %d, want %d", at, named[r], r, want)
		}
	}
}

// TestCutFragmentsMatchForest replays the three pinned streams at parallelism
// 1 and 8 and mirrors the forest DynamicConnectivity keeps on a plain Forest,
// one Cut per batch that deletes tree edges, checking the fragment column each
// Cut leaves (checkCutFragments); then cuts a star off its centre, the root of
// its tour, so that the centre is alone while one leaf keeps a tail: the
// passive fragment.
func TestCutFragmentsMatchForest(t *testing.T) {
	link := func(t *testing.T, f *Forest, edges []graph.Edge) {
		t.Helper()
		for len(edges) > 0 {
			k := min(len(edges), f.Config().MaxBatch())
			var tree []graph.WeightedEdge
			for _, e := range edges[:k] {
				tree = append(tree, graph.WeightedEdge{Edge: e})
			}
			if err := f.Link(tree); err != nil {
				t.Fatal(err)
			}
			edges = edges[k:]
		}
	}
	cutAndCheck := func(t *testing.T, f *Forest, before, cut []graph.Edge, at string) {
		t.Helper()
		if _, err := f.cut(cut, nil); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		checkCutFragments(t, f, before, cut, at)
		f.dropFrags()
		f.flush()
	}
	minus := func(a, b []graph.Edge) []graph.Edge {
		return slices.DeleteFunc(slices.Clone(a), func(e graph.Edge) bool { return slices.Contains(b, e) })
	}
	for _, stream := range []string{"testdata/churn32.stream", "../harness/testdata/window64.stream", "../harness/testdata/powerlaw64.stream"} {
		batches, n := readStream(t, stream)
		for _, p := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", stream, p), func(t *testing.T) {
				cfg := Config{N: n, Phi: 0.6, Seed: 1, Parallelism: p}
				dc, err := NewDynamicConnectivity(cfg)
				if err != nil {
					t.Fatal(err)
				}
				f, err := NewForest(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cuts := 0
				for i, b := range batches {
					for j := 0; j < len(b); j += dc.MaxBatch() {
						before := dc.SnapshotForest()
						if err := dc.ApplyBatch(b[j:min(j+dc.MaxBatch(), len(b))]); err != nil {
							t.Fatalf("batch %d: %v", i, err)
						}
						after := dc.SnapshotForest()
						if cut := minus(before, after); len(cut) > 0 {
							cutAndCheck(t, f, before, cut, fmt.Sprintf("batch %d", i))
							cuts++
						}
						link(t, f, minus(after, before))
					}
				}
				if cuts == 0 {
					t.Fatal("the stream cut no tree edge")
				}
			})
		}
	}
	t.Run("star", func(t *testing.T) {
		f, err := NewForest(Config{N: 64, Phi: 0.6, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		star := starEdges(0, 1, 5)
		link(t, f, star)
		link(t, f, pathEdges(5, 9))
		cutAndCheck(t, f, append(slices.Clone(star), pathEdges(5, 9)...), star, "star")
	})
}
