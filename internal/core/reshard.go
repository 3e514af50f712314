package core

// Loading a full checkpoint, at the fleet shape that wrote it or any other.
// Elastic re-sharding is a deterministic state migration rather than a
// consensus problem because placement is a rule, not state: vertices live in
// contiguous mpc.Partition ranges and edge records on hash.Hash(edgeID) %
// machines. A full container therefore holds the logical state only
// (component ids, fragment keys, tree-edge records, per-vertex sketch words,
// the coordinator's tour counter and label cache, cluster stats; see
// snapshot.go) and nothing of the placement that wrote it, so there is
// nothing to regroup: each state has one loader, its Restore, which decodes
// the columns, validates them, checks the per-machine s-words budget of this
// instance's shape and installs the image under this instance's placement. A
// loaded instance is indistinguishable from a fresh instance at its shape
// that was fed the same update stream (labels, forest, sketches, and query
// answers are bit-identical), and it re-saves the container byte for byte;
// its execution Stats are the checkpoint's, carried over verbatim. Loading
// resets the instance's update journal: the loaded state is the baseline the
// next delta checkpoint (a journal of batches, see snapshot.go) extends.
// Deltas themselves are never re-sharded — they replay onto a base of their
// own fleet shape.
//
// Failure contract: every error — a configuration mismatch, a column that
// breaks an invariant of a live instance, a sketch run of the wrong length, a
// memory-cap rejection (a per-machine budget that cannot hold the state is
// never silently installed in violation of the model) — is reported before
// any target state is touched, so the instance may be reused. Only a later
// state's error in a multi-state container (snapshot.Load) leaves the
// earlier states loaded.

import (
	"fmt"
	"slices"

	"repro/internal/eulertour"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/snapshot"
)

// MachineCount returns the number of MPC machines an instance of this
// configuration runs on (vertex machines plus the coordinator).
func (c Config) MachineCount() int { return c.machines() }

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
	if got := out.machines(); got != machines {
		return Config{}, fmt.Errorf("core: no cluster shape with exactly %d machines for N=%d: nearest realizable is %d machines (VerticesPerMachine=%d)",
			machines, cfg.N, got, out.VerticesPerMachine)
	}
	return out, nil
}

// forestImage is the decode of a forest checkpoint: the logical state, not
// yet placed.
type forestImage struct {
	nextID     uint64
	epoch      uint32
	valid      int
	numComps   int
	numCompsOK bool
	labels     []int
	stamp      []uint32
	stats      mpc.Stats

	comp []int // component id per vertex, len N
	// fragV and fragK are the transient fragment keys: fragK[j] is vertex
	// fragV[j]'s, fragV ascending.
	fragV []int
	fragK []uint64
	// recs holds every tree-edge record, grouped by the machine that owns it
	// under the loading instance's placement.
	recs []map[graph.Edge]*treeEdge
}

// readImage decodes the tagForest section and validates it against the
// invariants of a live instance.
func (f *Forest) readImage(d *snapshot.Decoder) (*forestImage, error) {
	d.Begin(tagForest)
	if err := f.readConfig(d); err != nil {
		return nil, err
	}
	n := f.cfg.N
	img := &forestImage{
		stamp: make([]uint32, n),
		recs:  make([]map[graph.Edge]*treeEdge, f.cl.Machines()),
	}
	for i := range img.recs {
		img.recs[i] = map[graph.Edge]*treeEdge{}
	}
	img.nextID = d.U64()
	img.epoch = uint32(d.U64())
	img.valid = d.Int()
	img.numComps = d.Int()
	img.numCompsOK = d.Bool()
	img.labels = d.Ints()
	if d.Err() == nil && len(img.labels) != n {
		return nil, fmt.Errorf("core: snapshot label cache of %d entries, want %d", len(img.labels), n)
	}
	if ns := d.Int(); d.Err() == nil && ns != n {
		return nil, fmt.Errorf("core: snapshot stamp array of %d entries, want %d", ns, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		img.stamp[i] = uint32(d.U64())
	}
	img.stats = snapshot.DecodeClusterStats(d)
	// Every component id is the smallest vertex of its component, so it names
	// a vertex no later than its own that is its own component.
	img.comp = d.Ints()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(img.comp) != n {
		return nil, fmt.Errorf("core: snapshot component column of %d entries, want %d", len(img.comp), n)
	}
	for v, c := range img.comp {
		if c < 0 || c > v || img.comp[c] != c {
			return nil, fmt.Errorf("core: snapshot gives vertex %d component %d, not the smallest vertex of a component", v, c)
		}
	}
	// Count bounds both tables against the section, so their reads cannot fail.
	nf := d.Count(2)
	img.fragV, img.fragK = make([]int, nf), make([]uint64, nf)
	for j := range nf {
		v := d.Int()
		if v < 0 || v >= n || j > 0 && v <= img.fragV[j-1] {
			return nil, fmt.Errorf("core: snapshot fragment entry %d (vertex %d) out of range or out of vertex order", j, v)
		}
		img.fragV[j], img.fragK[j] = v, d.U64()
	}
	nr := d.Count(8)
	var prev uint64
	for j := range nr {
		ed := graph.Edge{U: d.Int(), V: d.Int()}
		if ed.U < 0 || ed.U >= ed.V || ed.V >= n {
			return nil, fmt.Errorf("core: snapshot holds invalid tree edge {%d,%d}", ed.U, ed.V)
		}
		id := ed.ID(n)
		if j > 0 && id <= prev {
			return nil, fmt.Errorf("core: snapshot lists tree edge {%d,%d} twice or out of edge-id order", ed.U, ed.V)
		}
		prev = id
		te := &treeEdge{rec: eulertour.Record{E: ed, Tour: eulertour.TourID(d.U64())}}
		te.rec.UPos = [2]eulertour.Pos{d.Int(), d.Int()}
		te.rec.VPos = [2]eulertour.Pos{d.Int(), d.Int()}
		te.weight = d.I64()
		img.recs[f.edgeOwner(ed)][ed] = te
	}
	return img, d.Err()
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
			words += 2 * img.valid // label-cache meter
			if img.numCompsOK {
				words++
			}
		} else {
			lo, hi := f.part.Range(i)
			from, to := img.frags(lo, hi)
			words += (hi - lo) + 2*(to-from) + 2 // vertex shard
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

// frags returns the span [from,to) of the fragment table that covers the
// vertices [lo,hi).
func (img *forestImage) frags(lo, hi int) (from, to int) {
	from, _ = slices.BinarySearch(img.fragV, lo)
	to, _ = slices.BinarySearch(img.fragV, hi)
	return from, to
}

// installImage overwrites the forest with the image under this instance's
// placement maps. Infallible: every validation already ran.
func (f *Forest) installImage(img *forestImage) {
	f.nextID = img.nextID
	lc := &f.cache
	lc.epoch = img.epoch
	lc.valid = img.valid
	lc.numComps = img.numComps
	lc.numCompsOK = img.numCompsOK
	copy(lc.labels, img.labels)
	copy(lc.stamp, img.stamp)
	f.cl.LocalAll(func(mm *mpc.Machine) {
		if vs := vShard(mm); vs != nil {
			copy(vs.comp, img.comp[vs.lo:vs.hi])
			from, to := img.frags(vs.lo, vs.hi)
			vs.frag = make(map[int]uint64, to-from)
			for j := from; j < to; j++ {
				vs.frag[img.fragV[j]] = img.fragK[j]
			}
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
