package core

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/eulertour"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// Bootstrap loads an initial graph into an instance that holds no edge. It
// is the preprocessing of Section 1.1, which may solve the initial instance
// with a static algorithm, and it runs sequentially, outside the model:
//
//   - one sequential union-find over the edges, in the order given, picks
//     the spanning forest that inserting them in batches would link (a
//     batch's F_H is a greedy union in batch order on top of the components
//     before it);
//   - each tree's Euler tour is laid out from its smallest vertex on fresh
//     tour ids, as one Link of the whole forest onto singletons would
//     (layTours). The batches would lay the tours out otherwise, but root
//     each at the same vertex, its tree's smallest;
//   - every edge is dealt to its endpoints' lists, and a vertex of more than
//     S = SketchWords() edges gets the sketch of all of them
//     (sketch.Sketch.AddIncidence), the words its promotion during the
//     batches would have left, by linearity. An edge between two such
//     vertices is on no list.
//
// The rows are encoded as a full image in memory and loaded through the one
// Check/Staged/Install path of Restore, so a bootstrapped graph is held to
// every rule a restored one is: the tours (checkTours), the forest's cycle
// check, the lists' checks (dealSketches) and the per-machine cap. The label
// cache's warm set becomes the one before plus every endpoint, as the
// batches' label lookups would leave it; a cached component count stays
// cached, and the Stats are kept: Bootstrap adds no round and reports 0. The
// journal is dropped, so the next checkpoint is a full one.
//
// Before it touches any state, Bootstrap refuses an instance that holds an
// edge (a tree-edge record, a list edge or a promoted vertex), an edge list
// with a vertex outside [0, N), a self-loop or an edge listed twice, and a
// state that a machine of the fleet could not hold.
func (dc *DynamicConnectivity) Bootstrap(edges []graph.Edge) (rounds int, err error) {
	rows, err := dc.bootstrapRows(edges)
	if err != nil {
		return 0, fmt.Errorf("core: bootstrap: %w", err)
	}
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, dc.imageOf(rows)); err != nil {
		return 0, err
	}
	if err := snapshot.Load(&buf, dc.image()); err != nil {
		return 0, fmt.Errorf("core: bootstrap: %w", err)
	}
	dc.journal.Drop()
	return 0, nil
}

// bootstrapRows computes the image rows of the instance's state with edges
// added, once it has checked that the instance holds none.
func (dc *DynamicConnectivity) bootstrapRows(edges []graph.Edge) (imageRows, error) {
	n, words := dc.f.cfg.N, dc.space.SketchWords()
	rows := dc.liveRows()
	if len(rows.recs)+len(rows.lists)+len(rows.promoted) > 0 {
		return imageRows{}, fmt.Errorf("the instance already holds edges")
	}
	g, err := graph.FromEdges(n, len(edges), func(i int) graph.WeightedEdge { return graph.WeightedEdge{Edge: edges[i]} })
	if err != nil {
		return imageRows{}, err
	}
	var tree []graph.Edge
	forestComponents(n, edges, func(j int) { tree = append(tree, edges[j]) })

	next := dc.f.nextID
	rows.next = &next
	recs := layTours(n, tree, &next)
	for i := range recs {
		rows.recs = append(rows.recs, &recs[i])
	}
	sortRecs(rows.recs)

	warm := rows.warm.Has
	rows.warm.Has = func(v int) bool { return warm(v) || g.Degree(v) > 0 }
	var ids []uint64
	for v := range n {
		if g.Degree(v) <= words {
			continue
		}
		ids = ids[:0]
		g.Neighbors(v, func(w int, _ int64) bool {
			ids = append(ids, graph.NewEdge(v, w).ID(n))
			return true
		})
		sk := dc.space.NewSketch()
		sk.AddIncidence(n, v, ids)
		rows.promoted, rows.sketches = append(rows.promoted, v), append(rows.sketches, sk)
	}
	for _, e := range edges {
		if g.Degree(e.U) <= words || g.Degree(e.V) <= words {
			rows.lists = append(rows.lists, e.ID(n))
		}
	}
	slices.Sort(rows.lists)
	return rows, nil
}

// layTours lays out the Euler tour of every tree of the forest on fresh tour
// ids from *next on, in the order of the trees' smallest vertices: a tour
// starts at its tree's smallest vertex and visits the children of every
// vertex in ascending order, each edge a dart of two positions down to the
// child and one of two back. These are the records eulertour.JoinPlanner
// plans for one Link of the whole forest onto singletons.
func layTours(n int, tree []graph.Edge, next *uint64) []treeEdge {
	off := make([]int, n+1) // the forest's adjacency, row v at adj[off[v]:off[v+1]]
	for _, e := range tree {
		off[e.U+1]++
		off[e.V+1]++
	}
	for v := range n {
		off[v+1] += off[v]
	}
	adj, fill := make([]int, off[n]), slices.Clone(off[:n])
	for _, e := range tree {
		adj[fill[e.U]], adj[fill[e.V]] = e.V, e.U
		fill[e.U]++
		fill[e.V]++
	}
	for v := range n {
		slices.Sort(adj[off[v]:off[v+1]])
	}
	// A frame is a vertex on the walk: its parent, its next row entry and the
	// position of the dart that came down to it.
	type frame struct{ v, parent, i, down int }
	recs := make([]treeEdge, 0, len(tree))
	seen := make([]bool, n)
	var stack []frame
	for root := range n {
		if seen[root] || off[root] == off[root+1] {
			continue
		}
		tour := eulertour.TourID(*next)
		*next++
		seen[root] = true
		stack = append(stack, frame{v: root, parent: -1, i: off[root]})
		for pos := 1; len(stack) > 0; {
			top := &stack[len(stack)-1]
			if top.i < off[top.v+1] {
				c := adj[top.i]
				if top.i++; !seen[c] {
					seen[c] = true
					stack = append(stack, frame{v: c, parent: top.v, i: off[c], down: pos})
					pos += 2
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if top.parent < 0 {
				continue
			}
			r := eulertour.Record{E: graph.NewEdge(top.parent, top.v), Tour: tour}
			host, child := [2]eulertour.Pos{top.down, pos + 1}, [2]eulertour.Pos{top.down + 1, pos}
			if r.UPos, r.VPos = host, child; r.E.U != top.parent {
				r.UPos, r.VPos = child, host
			}
			recs = append(recs, treeEdge{rec: r})
			pos += 2
		}
	}
	return recs
}
