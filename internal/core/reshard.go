package core

// Loading a full checkpoint, at the fleet shape that wrote it or any other.
// Elastic re-sharding is a deterministic state migration rather than a
// consensus problem because placement is a rule, not state: vertices live in
// contiguous mpc.Partition ranges and edge records on hash.Hash(edgeID) %
// machines. A full container therefore holds the logical state only, and of
// that only what the rest is a function of (tree-edge records, per-vertex
// sketch words, the coordinator's tour counter, the label cache's warm set,
// cluster stats; see snapshot.go), so there is nothing to regroup: each state
// has one loader, its Restore, which decodes the sections, derives the
// component column from the tree edges (and from it every warm label and the
// component count), checks the per-machine s-words budget of this instance's
// shape and installs the image under this instance's placement. A loaded
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
// sketch run of the wrong length, a memory-cap rejection (a
// per-machine budget that cannot hold the state is never silently installed
// in violation of the model) — is reported before any target state is
// touched, so the instance may be reused.

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/eulertour"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/snapshot"
)

// ResizeConfig returns a copy of cfg reshaped to run on exactly machines
// MPC machines: VerticesPerMachine becomes ceil(N / (machines-1)), the
// smallest per-machine vertex budget that covers every vertex on machines-1
// vertex machines plus the coordinator. Not every count is realizable under
// the contiguous equal-range partition (e.g. growing past N+1 machines
// leaves empty shards); unrealizable counts are rejected with a diagnostic
// naming the nearest realizable fleet.
func ResizeConfig(cfg Config, machines int) (Config, error) {
	if machines < 2 {
		return Config{}, fmt.Errorf("core: resize to %d machines: need at least one vertex machine plus the coordinator", machines)
	}
	out := cfg
	out.VerticesPerMachine = (cfg.N + machines - 2) / (machines - 1)
	if got := out.MachineCount(); got != machines {
		return Config{}, fmt.Errorf("core: no cluster shape with exactly %d machines for N=%d: nearest realizable is %d machines (VerticesPerMachine=%d)",
			machines, cfg.N, got, out.VerticesPerMachine)
	}
	return out, nil
}

// forestImage is the decode of a forest checkpoint: the logical state, not
// yet placed.
type forestImage struct {
	nextID     uint64
	numCompsOK bool
	warm       []uint64 // the label cache's warm set (writeWarm's bitmap)
	stats      mpc.Stats
	// comp is the component column the tree edges fix (forestComponents) and
	// roots the number of its components.
	comp  []int
	roots int
	// recs holds every tree-edge record, grouped by the machine that owns it
	// under the loading instance's placement, each group sorted by edge.
	recs [][]treeEdge
}

// readImage decodes the tagForest section, validates it against the
// invariants of a live instance and derives the component column.
func (f *Forest) readImage(d *snapshot.Decoder) (*forestImage, error) {
	d.Begin(tagForest)
	if err := f.readConfig(d); err != nil {
		return nil, err
	}
	n := f.cfg.N
	img := &forestImage{recs: make([][]treeEdge, f.cl.Machines())}
	img.nextID = d.U64()
	img.numCompsOK = d.Bool()
	var err error
	if img.warm, err = readWarm(d, n); err != nil {
		return nil, err
	}
	img.stats = snapshot.DecodeClusterStats(d)
	// Count bounds the table against the section, so its reads cannot fail.
	nr := d.Count(8)
	edges := make([]graph.Edge, nr)
	at := make([]int, nr) // edge j's index in its machine's group
	for j := range nr {
		ed := graph.Edge{U: d.Int(), V: d.Int()}
		if ed.U < 0 || ed.U >= ed.V || ed.V >= n {
			return nil, fmt.Errorf("core: snapshot holds invalid tree edge {%d,%d}", ed.U, ed.V)
		}
		if j > 0 && ed.ID(n) <= edges[j-1].ID(n) {
			return nil, fmt.Errorf("core: snapshot lists tree edge {%d,%d} twice or out of edge-id order", ed.U, ed.V)
		}
		edges[j] = ed
		te := treeEdge{rec: eulertour.Record{E: ed, Tour: eulertour.TourID(d.U64())}}
		te.rec.UPos = [2]eulertour.Pos{d.Int(), d.Int()}
		te.rec.VPos = [2]eulertour.Pos{d.Int(), d.Int()}
		te.weight = d.I64()
		// Decoded in edge-id order, so every group is appended sorted.
		o := f.edgeOwner(ed)
		at[j] = len(img.recs[o])
		img.recs[o] = append(img.recs[o], te)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if img.comp, img.roots, err = forestComponents(n, edges); err == nil {
		err = f.checkTours(img, edges, at)
	}
	return img, err
}

// checkTours rejects tree-edge records the apply path cannot produce: every
// record is well formed (eulertour.Record.Validate), the records of one tree
// share one tour id in [1, nextID) that no other tree uses, and a tree of k
// records holds the tour positions 1..4k once each (the range PlanSplit
// checks). It allocates per tree, never per record. Record j, of edges[j],
// is at index at[j] of its machine's group.
func (f *Forest) checkTours(img *forestImage, edges []graph.Edge, at []int) error {
	type tour struct {
		id eulertour.TourID
		// recs counts the tree's records; bit is its first bit in seen.
		recs, bit int
	}
	tours := make([]tour, f.cfg.N) // indexed by the tree's root
	for j, e := range edges {
		r, t := &img.recs[f.edgeOwner(e)][at[j]].rec, &tours[img.comp[e.U]]
		if err := r.Validate(); err != nil {
			return fmt.Errorf("core: snapshot tree edge {%d,%d}: %w", e.U, e.V, err)
		}
		if r.Tour == eulertour.NoTour || uint64(r.Tour) >= img.nextID {
			return fmt.Errorf("core: snapshot tree edge {%d,%d} has tour id %d outside [1, %d)", e.U, e.V, r.Tour, img.nextID)
		}
		if t.recs > 0 && t.id != r.Tour {
			return fmt.Errorf("core: snapshot tree of vertex %d spans tours %d and %d", img.comp[e.U], t.id, r.Tour)
		}
		t.id = r.Tour
		t.recs++
	}
	width := 0
	for i := range tours {
		tours[i].bit = width
		width += 4 * tours[i].recs
	}
	seen := make([]uint64, (width+63)/64)
	for j, e := range edges {
		r, t := &img.recs[f.edgeOwner(e)][at[j]].rec, &tours[img.comp[e.U]]
		for _, p := range [...]eulertour.Pos{r.UPos[0], r.UPos[1], r.VPos[0], r.VPos[1]} {
			b := t.bit + p - 1
			if p < 1 || p > 4*t.recs || seen[b/64]&(1<<(b%64)) != 0 {
				return fmt.Errorf("core: snapshot tour %d holds position %d twice or outside 1..%d", t.id, p, 4*t.recs)
			}
			seen[b/64] |= 1 << (b % 64)
		}
	}
	// Last, as it reorders tours.
	slices.SortFunc(tours, func(a, b tour) int { return cmp.Compare(a.id, b.id) })
	for i := 1; i < len(tours); i++ {
		if id := tours[i].id; id != eulertour.NoTour && id == tours[i-1].id {
			return fmt.Errorf("core: snapshot gives tour id %d to two trees", id)
		}
	}
	return nil
}

// forestComponents is the component column the tree edges fix: the
// minimum-root union-find over them, so every vertex is labelled with the
// smallest vertex of its tree, and the number of trees. An edge whose
// endpoints are joined already closes a cycle: the edges are no forest.
func forestComponents(n int, edges []graph.Edge) (comp []int, roots int, err error) {
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
	for _, e := range edges {
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			return nil, 0, fmt.Errorf("core: snapshot tree edge {%d,%d} closes a cycle", e.U, e.V)
		}
		comp[max(ru, rv)] = min(ru, rv)
		roots--
	}
	for v := range comp { // parents precede their children: one pass flattens
		comp[v] = comp[comp[v]]
	}
	return comp, roots, nil
}

// checkCaps tallies, per machine of this instance, the words the image will
// occupy once installed and rejects the load if any machine would exceed its
// s-words budget (the cluster's LocalMemory). sketchStride is the per-vertex
// sketch footprint (0 for a bare forest). It touches no state.
func (f *Forest) checkCaps(img *forestImage, sketchStride int) error {
	m := f.cl.Machines()
	budget := f.cl.LocalMemory()
	for i := 0; i < m; i++ {
		words := 8*len(img.recs[i]) + 1 // edge shard
		if i == f.coord {
			for _, w := range img.warm { // label-cache meter
				words += 2 * bits.OnesCount64(w)
			}
			if img.numCompsOK {
				words++
			}
		} else {
			lo, hi := f.part.Range(i)
			words += (hi - lo) + 2 // vertex shard
			if sketchStride > 0 {
				words += (hi-lo)*sketchStride + 1 // sketch arena
			}
		}
		if words > budget {
			return fmt.Errorf("core: restore onto %d machines (VerticesPerMachine=%d) rejected: machine %d needs %d words but the per-machine s-words budget is %d — the budget cannot hold the checkpointed state",
				m, f.cfg.verticesPerMachine(), i, words, budget)
		}
	}
	return nil
}

// installImage overwrites the forest with the image under this instance's
// placement maps. Infallible: every validation already ran.
func (f *Forest) installImage(img *forestImage) {
	f.nextID = img.nextID
	lc := &f.cache
	lc.numComps, lc.numCompsOK = img.roots, img.numCompsOK
	lc.installWarm(img.warm, func(v int) int { return img.comp[v] })
	f.pending.reset() // riders of the state being replaced
	f.cl.LocalAll(func(mm *mpc.Machine) {
		if vs := vShard(mm); vs != nil {
			copy(vs.comp, img.comp[vs.lo:vs.hi])
		}
		eShard(mm).recs = img.recs[mm.ID]
	})
	// Last, so that LocalAll's memory metering of the install itself does not
	// leak into the metrics: a loaded instance's Stats are the checkpoint's.
	f.cl.RestoreStats(img.stats)
}

// Restore loads a full forest checkpoint written at any machine count,
// placing vertex and edge state under this instance's placement maps.
func (f *Forest) Restore(d *snapshot.Decoder) error {
	img, err := f.readImage(d)
	if err == nil {
		err = f.checkCaps(img, 0)
	}
	if err != nil {
		return err
	}
	f.installImage(img)
	return nil
}

// Restore loads a full dynamic-connectivity checkpoint written at any machine
// count: the forest's image, then the sketch run, length-checked once; the
// memory caps, which cover the arenas; then the install, after which every
// arena takes its vertex range of the run with one copy. The sketch spaces are
// rebuilt from the seed by the constructor; only the arena cell words are
// reloaded.
func (dc *DynamicConnectivity) Restore(d *snapshot.Decoder) error {
	f := dc.f
	stride := dc.space.SketchWords()
	img, err := f.readImage(d)
	if err != nil {
		return err
	}
	d.Begin(tagSketches)
	run := d.U64s()
	if err := d.Err(); err != nil {
		return err
	}
	if len(run) != f.cfg.N*stride {
		return fmt.Errorf("core: snapshot sketch run of %d words, want %d (%d vertices × %d)", len(run), f.cfg.N*stride, f.cfg.N, stride)
	}
	if err := f.checkCaps(img, stride); err != nil {
		return err
	}
	f.installImage(img)
	for i := 0; i < f.coord; i++ { // unmetered, like Checkpoint's walk
		sh := sShard(f.cl.Machine(i))
		copy(sh.arena.Raw(), run[sh.lo*stride:])
	}
	dc.journal.Reset() // the loaded state is the new delta baseline
	return nil
}
