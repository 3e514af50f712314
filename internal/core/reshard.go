package core

// Loading a full checkpoint, at the fleet shape that wrote it or any other.
// Elastic re-sharding is a deterministic state migration rather than a
// consensus problem because placement is a rule, not state: vertices live in
// contiguous mpc.Partition ranges and edge records on hash.Hash(edgeID) %
// machines. A full container therefore holds the logical state only, and of
// that only what the rest is a function of (tree-edge records, the sketch
// state — edge lists and promoted sketches —, the coordinator's tour counter, the label cache's warm set,
// cluster stats; see snapshot.go), so there is nothing to regroup: each state
// has one loader, its Restore, which loads the image Forest.Image declares:
// it decodes the sections, derives the component column from the tree edges
// (and from it every warm label and the component count), checks the
// per-machine s-words budget of this instance's shape and installs the image
// under this instance's placement. A loaded
// instance is indistinguishable from a fresh instance at its shape that was
// fed the same update stream (labels, forest, sketches, and query answers are
// bit-identical), and it re-saves the container byte for byte; its execution
// Stats are the checkpoint's, carried over verbatim. Loading resets the
// instance's update journal: the loaded state is the baseline the next delta
// checkpoint (a journal of batches, see snapshot.go) extends. Deltas
// themselves are never re-sharded — they replay onto a base of their own
// fleet shape.
//
// Failure contract: every error — a configuration mismatch, tree edges that
// are no forest, tree-edge records no Euler tour of that forest holds, a
// sketch section that is cut short or deals an edge to no list or a list
// past S, a memory-cap rejection (a per-machine
// budget that cannot hold the state is never silently installed in violation
// of the model) — is reported before any target state is touched, so the
// instance may be reused (snapshot.Image.Load's order).

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/eulertour"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/sketch"
	"repro/internal/snapshot"
)

// ResizeConfig returns a copy of cfg reshaped to run on exactly machines
// MPC machines: VerticesPerMachine becomes ceil(N / (machines-1)), the
// smallest per-machine vertex budget that covers every vertex on machines-1
// vertex machines plus the coordinator. Not every count is realizable under
// the contiguous equal-range partition (e.g. growing past N+1 machines
// leaves empty shards); unrealizable counts are rejected with a diagnostic
// naming the nearest realizable fleet. A resize to the count cfg already
// runs on returns cfg as it is, so a shape whose VerticesPerMachine is
// derived from φ keeps it.
func ResizeConfig(cfg Config, machines int) (Config, error) {
	if machines < 2 {
		return Config{}, fmt.Errorf("core: resize to %d machines: need at least one vertex machine plus the coordinator", machines)
	}
	if machines == cfg.MachineCount() {
		return cfg, nil
	}
	out := cfg
	out.VerticesPerMachine = (cfg.N + machines - 2) / (machines - 1)
	if got := out.MachineCount(); got != machines {
		return Config{}, fmt.Errorf("core: no cluster shape with exactly %d machines for N=%d: nearest realizable is %d machines (VerticesPerMachine=%d)",
			machines, cfg.N, got, out.VerticesPerMachine)
	}
	return out, nil
}

// imageRows is what a full image writes that is not read off the live
// instance as it is: the forest's tree-edge records in edge-id order, its
// tour-id counter and warm set, and, for a DynamicConnectivity, its sketch
// state — the ids of the edges the list vertices hold, ascending, and the
// promoted vertices, ascending, with their sketches.
// A checkpoint reads them off the shards (liveRows); Bootstrap computes them
// (bootstrap.go). A load fills the parts of the live declaration instead, so
// next points at the counter it commits to.
type imageRows struct {
	recs     []*treeEdge
	next     *uint64
	warm     *snapshot.Bitmap
	lists    []uint64
	promoted []int
	sketches []sketch.Sketch
}

// liveRows reads the forest's rows off its shards and its cache.
func (f *Forest) liveRows() imageRows {
	var recs []*treeEdge
	for i := 0; i < f.cl.Machines(); i++ {
		es := eShard(f.cl.Machine(i))
		for j := range es.recs {
			recs = append(recs, &es.recs[j])
		}
	}
	return imageRows{recs: sortRecs(recs), next: &f.nextID, warm: f.warm()}
}

// sortRecs sorts records by edge, the order an image writes them in.
func sortRecs(recs []*treeEdge) []*treeEdge {
	slices.SortFunc(recs, func(a, b *treeEdge) int { return cmpEdge(a.rec.E, b.rec.E) })
	return recs
}

// Image declares the forest's full image: one section holding the
// configuration echo, the tour-id counter, whether the component count is
// cached, the label cache's warm set, the cluster stats and the tree-edge
// records in edge-id order. Its cross-row checks derive the component column
// from the tree edges (forestComponents), and with it every warm label and
// the component count, and reject records no Euler tour of that forest holds
// (checkTours). A DynamicConnectivity appends its sketch section, an
// ExactMSF prepends its own.
func (f *Forest) Image() *snapshot.Image { return f.image(f.liveRows()) }

// image is Image written from rows.
func (f *Forest) image(rows imageRows) *snapshot.Image {
	n := f.cfg.N
	next := snapshot.Scalar("next tour id", rows.next)
	compsOK := snapshot.Scalar("component count cached", &f.cache.numCompsOK)
	warm := rows.warm
	edges := &snapshot.Table{Name: "tree edges", Len: len(rows.recs), Row: func(r int, row []uint64) {
		te := rows.recs[r]
		copy(row, []uint64{uint64(te.rec.E.U), uint64(te.rec.E.V), uint64(te.rec.Tour),
			uint64(te.rec.UPos[0]), uint64(te.rec.UPos[1]), uint64(te.rec.VPos[0]), uint64(te.rec.VPos[1]), uint64(te.weight)})
	}, Layout: snapshot.Layout{Width: 8, Key: 2, Order: "edge-id", Fields: []snapshot.Field{{Name: "u", Hi: n}, {Name: "v", Hi: n, Above: true}}}}
	// What the checks derive: the component column the tree edges fix and
	// the number of its components, and every record grouped by the machine
	// that owns it under this instance's placement, each group sorted by edge.
	var (
		comp  []int
		roots int
		recs  [][]treeEdge
	)
	return &snapshot.Image{
		Pkg:      "core",
		Cluster:  f.cl,
		Sections: []snapshot.Section{{Tag: tagForest, Parts: append(f.echo(), next, compsOK, warm, snapshot.Stats(f.cl), edges)}},
		Check: func() (err error) {
			all, es := make([]treeEdge, edges.Rows()), make([]graph.Edge, edges.Rows())
			for j := range all {
				w := edges.At(j)
				i := func(k int) int { return int(int64(w[k])) }
				all[j] = treeEdge{rec: eulertour.Record{E: graph.Edge{U: i(0), V: i(1)}, Tour: eulertour.TourID(w[2]),
					UPos: [2]eulertour.Pos{i(3), i(4)}, VPos: [2]eulertour.Pos{i(5), i(6)}}, weight: int64(w[7])}
				es[j] = all[j].rec.E
			}
			if comp, roots, err = forestComponents(n, es, nil); err != nil {
				return err
			}
			// Rows come in edge-id order, so every group is appended sorted.
			recs = make([][]treeEdge, f.cl.Machines())
			for _, te := range all {
				o := f.edgeOwner(te.rec.E)
				recs[o] = append(recs[o], te)
			}
			return checkTours(next.Val, comp, all)
		},
		Staged: func(m int, slot string) mpc.Sized {
			switch slot {
			case slotEdge:
				return &edgeShard{recs: recs[m]}
			case slotQCache:
				lc := &labelCache{numCompsOK: compsOK.Val}
				warm.Each(func(int) { lc.valid++ })
				return cacheMeter{lc}
			}
			return nil
		},
		Install: func() {
			lc := &f.cache
			lc.numComps = roots
			lc.installWarm(warm, func(v int) int { return comp[v] })
			f.pending.reset() // riders of the state being replaced
			f.cl.LocalAll(func(mm *mpc.Machine) {
				if vs := vShard(mm); vs != nil {
					copy(vs.comp, comp[vs.lo:vs.hi])
				}
				eShard(mm).recs = recs[mm.ID]
			})
		},
	}
}

// checkTours rejects tree-edge records the apply path cannot produce: every
// record is well formed (eulertour.Record.Validate), the records of one tree
// share one tour id in [1, nextID) that no other tree uses, and a tree of k
// records holds the tour positions 1..4k once each (the range PlanSplit
// checks). It allocates per tree, never per record. Record j is row j of
// the tree-edge table.
func checkTours(nextID uint64, comp []int, recs []treeEdge) error {
	type tour struct {
		id eulertour.TourID
		// recs counts the tree's records; bit is its first bit in seen; row
		// is the row of its last record.
		recs, bit, row int
	}
	reject := func(j int, format string, args ...any) error {
		return fmt.Errorf("core: snapshot tree edges row %d: "+format, append([]any{j}, args...)...)
	}
	tours := make([]tour, len(comp)) // indexed by the tree's root
	for j := range recs {
		r := &recs[j].rec
		e, t := r.E, &tours[comp[r.E.U]]
		if err := r.Validate(); err != nil {
			return reject(j, "tree edge {%d,%d}: %w", e.U, e.V, err)
		}
		if r.Tour == eulertour.NoTour || uint64(r.Tour) >= nextID {
			return reject(j, "tree edge {%d,%d} has tour id %d outside [1, %d)", e.U, e.V, r.Tour, nextID)
		}
		if t.recs > 0 && t.id != r.Tour {
			return reject(j, "tree of vertex %d spans tours %d and %d", comp[e.U], t.id, r.Tour)
		}
		t.id, t.row = r.Tour, j
		t.recs++
	}
	width := 0
	for i := range tours {
		tours[i].bit = width
		width += 4 * tours[i].recs
	}
	seen := make([]uint64, (width+63)/64)
	for j := range recs {
		r := &recs[j].rec
		t := &tours[comp[r.E.U]]
		for _, p := range [...]eulertour.Pos{r.UPos[0], r.UPos[1], r.VPos[0], r.VPos[1]} {
			b := t.bit + p - 1
			if p < 1 || p > 4*t.recs || seen[b/64]&(1<<(b%64)) != 0 {
				return reject(j, "tour %d holds position %d twice or outside 1..%d", t.id, p, 4*t.recs)
			}
			seen[b/64] |= 1 << (b % 64)
		}
	}
	// Last, as it reorders tours.
	slices.SortFunc(tours, func(a, b tour) int { return cmp.Compare(a.id, b.id) })
	for i := 1; i < len(tours); i++ {
		if id := tours[i].id; id != eulertour.NoTour && id == tours[i-1].id {
			return reject(max(tours[i].row, tours[i-1].row), "gives tour id %d to two trees", id)
		}
	}
	return nil
}

// forestComponents is the component column the tree edges fix: the
// minimum-root union-find over them, so every vertex is labelled with the
// smallest vertex of its tree, and the number of trees. An edge whose
// endpoints are joined already closes a cycle: the edges are no forest. Given
// joins, such an edge is left out instead, and joins(j) is called for every
// edge j that joins two trees (Bootstrap picking its forest).
func forestComponents(n int, edges []graph.Edge, joins func(j int)) (comp []int, roots int, err error) {
	comp = make([]int, n) // a parent array: comp[v] <= v throughout
	for v := range comp {
		comp[v] = v
	}
	find := func(v int) int {
		for comp[v] != v {
			comp[v] = comp[comp[v]]
			v = comp[v]
		}
		return v
	}
	roots = n
	for j, e := range edges {
		ru, rv := find(e.U), find(e.V)
		if ru == rv && joins != nil {
			continue
		}
		if ru == rv {
			return nil, 0, fmt.Errorf("core: snapshot tree edges row %d: tree edge {%d,%d} closes a cycle", j, e.U, e.V)
		}
		if comp[max(ru, rv)] = min(ru, rv); joins != nil {
			joins(j)
		}
		roots--
	}
	for v := range comp { // parents precede their children: one pass flattens
		comp[v] = comp[comp[v]]
	}
	return comp, roots, nil
}
