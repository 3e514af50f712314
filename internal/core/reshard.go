package core

// Loading a full checkpoint, at the fleet shape that wrote it or any other.
// The insight that makes elastic re-sharding a deterministic state migration
// rather than a consensus problem is that every piece of checkpointed state
// is either machine-count-independent logical state (component ids,
// tree-edge records, per-vertex sketch words, the coordinator's tour counter
// and label cache, cluster stats) or pure placement, and placement is a
// deterministic function of (vertex or edge, machine count): vertices live in
// contiguous mpc.Partition ranges and edge records on
// hash.Hash(edgeID) % machines. Restoring at the shape that wrote the file is
// then just the case where source and target placement coincide, so each
// state has one loader for its full container, its Restore: it decodes the
// sections, at whatever machine count wrote them, into an image free of the
// source's sharding, re-validates the per-machine s-words budget of this
// instance's shape, and installs the image under this instance's placement
// maps. A loaded instance is indistinguishable from a fresh instance at
// its shape that was fed the same update stream (labels, forest, sketches,
// and query answers are bit-identical); its execution Stats are the
// checkpoint's, carried over verbatim. Loading resets the instance's update
// journal: the loaded state is the baseline the next delta checkpoint (a
// journal of batches, see snapshot.go) extends. Deltas themselves are never
// re-sharded — they replay onto a base of their own fleet shape.
//
// Failure contract: a configuration mismatch or a memory-cap rejection — a
// per-machine budget that cannot hold the state is never silently installed
// in violation of the model — is reported before any target state is
// touched, so the instance may be reused. Any other
// error is structural (the container's CRC verified, yet a section
// contradicts the layout) and may surface after the forest is installed,
// while the sketch sections stream into the arenas: discard the instance.

import (
	"fmt"

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

// forestImage is the decode of a forest checkpoint: all logical state, none
// of the source fleet's sharding.
type forestImage struct {
	nextID     uint64
	epoch      uint32
	valid      int
	numComps   int
	numCompsOK bool
	labels     []int
	stamp      []uint32
	stats      mpc.Stats

	comp []int          // component id per vertex, len N
	frag map[int]uint64 // transient fragment keys, keyed by vertex
	// recs holds every tree-edge record, already grouped by the machine that
	// owns it under the loading instance's placement.
	recs []map[graph.Edge]*treeEdge
}

// readImage decodes the tagForest section group written at any machine count
// and returns the image plus the source fleet's vertex partition.
func (f *Forest) readImage(d *snapshot.Decoder) (*forestImage, mpc.Partition, error) {
	d.Begin(tagForest)
	srcMach, err := f.readConfig(d)
	if err != nil {
		return nil, mpc.Partition{}, err
	}
	n := f.cfg.N
	src := mpc.Partition{N: n, Machines: srcMach - 1}
	img := &forestImage{
		comp:  make([]int, n),
		stamp: make([]uint32, n),
		frag:  map[int]uint64{},
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
		return nil, src, fmt.Errorf("core: snapshot label cache of %d entries, want %d", len(img.labels), n)
	}
	if ns := d.Int(); d.Err() == nil && ns != n {
		return nil, src, fmt.Errorf("core: snapshot stamp array of %d entries, want %d", ns, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		img.stamp[i] = uint32(d.U64())
	}
	img.stats = snapshot.DecodeClusterStats(d)
	for i := 0; i < srcMach; i++ {
		has, err := snapshot.ReadShardHeader(d, tagForestShard, i, src)
		if err != nil {
			return nil, src, err
		}
		if has {
			lo, hi, err := snapshot.ReadShardRange(d, i, src)
			if err != nil {
				return nil, src, err
			}
			nc := d.Count(1)
			if err := d.Err(); err != nil {
				return nil, src, err
			}
			if nc != hi-lo {
				return nil, src, fmt.Errorf("core: snapshot shard %d has %d component entries, want %d", i, nc, hi-lo)
			}
			for v := lo; v < hi; v++ {
				img.comp[v] = d.Int()
			}
			if err := readFrag(d, lo, hi, img.frag); err != nil {
				return nil, src, err
			}
		}
		nr := d.Count(8)
		for j := 0; j < nr; j++ {
			ed, te, err := readTreeEdge(d, n)
			if err != nil {
				return nil, src, err
			}
			owned := img.recs[f.edgeOwner(ed)]
			if owned[ed] != nil {
				return nil, src, fmt.Errorf("core: snapshot holds tree edge {%d,%d} on two shards", ed.U, ed.V)
			}
			owned[ed] = te
		}
	}
	return img, src, d.Err()
}

// checkCaps tallies, per machine of this instance, the words the image will
// occupy once installed and rejects the load if any machine would exceed its
// s-words budget (the cluster's LocalMemory). sketchStride is the per-vertex
// sketch footprint (0 for a bare forest). It touches no state.
func (f *Forest) checkCaps(img *forestImage, sketchStride int) error {
	m := f.cl.Machines()
	budget := f.cl.LocalMemory()
	fragByOwner := make([]int, m)
	for v := range img.frag {
		fragByOwner[f.part.Owner(v)]++
	}
	for i := 0; i < m; i++ {
		words := 8*len(img.recs[i]) + 1 // edge shard
		if i == f.coord {
			words += 2 * img.valid // label-cache meter
			if img.numCompsOK {
				words++
			}
		} else {
			lo, hi := f.part.Range(i)
			words += (hi - lo) + 2*fragByOwner[i] + 2 // vertex shard
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
	lc.epoch = img.epoch
	lc.valid = img.valid
	lc.numComps = img.numComps
	lc.numCompsOK = img.numCompsOK
	copy(lc.labels, img.labels)
	copy(lc.stamp, img.stamp)
	f.cl.LocalAll(func(mm *mpc.Machine) {
		if vs := vShard(mm); vs != nil {
			copy(vs.comp, img.comp[vs.lo:vs.hi])
			vs.frag = map[int]uint64{}
			for v, k := range img.frag {
				if vs.owns(v) {
					vs.frag[v] = k
				}
			}
		}
		eShard(mm).recs = img.recs[mm.ID]
	})
	// Last, so that LocalAll's memory metering of the install itself does not
	// leak into the metrics: a loaded instance's Stats are the checkpoint's.
	f.cl.RestoreStats(img.stats)
}

// load is the forest's one full-checkpoint loader (see the file comment):
// decode at any source shape, validate the memory caps, install. It returns
// the source fleet's vertex partition, by which a DynamicConnectivity
// locates the sketch sections that follow.
func (f *Forest) load(d *snapshot.Decoder, sketchStride int) (mpc.Partition, error) {
	img, src, err := f.readImage(d)
	if err != nil {
		return src, err
	}
	if err := f.checkCaps(img, sketchStride); err != nil {
		return src, err
	}
	f.installImage(img)
	return src, nil
}

// Restore loads a full forest checkpoint written at any machine count,
// redistributing vertex and edge state under this instance's placement maps.
func (f *Forest) Restore(d *snapshot.Decoder) error {
	_, err := f.load(d, 0)
	return err
}

// Restore loads a full dynamic-connectivity checkpoint written at any machine
// count: the forest's loader, told the sketch footprint so the memory caps
// cover the arenas, then every source shard's sketch words copied straight
// from the decoder into the arenas of the machines whose vertex ranges
// overlap that shard's. The sketch spaces are rebuilt from the seed by the
// constructor; only the arena cell words are reloaded.
func (dc *DynamicConnectivity) Restore(d *snapshot.Decoder) error {
	f := dc.f
	stride := dc.space.SketchWords()
	src, err := f.load(d, stride)
	if err != nil {
		return err
	}
	for i := 0; i <= src.Machines; i++ { // the vertex machines, then the coordinator
		has, err := snapshot.ReadShardHeader(d, tagSketchShard, i, src)
		if err != nil {
			return err
		}
		if !has {
			continue
		}
		words := d.U64s()
		if err := d.Err(); err != nil {
			return err
		}
		lo, hi := src.Range(i)
		if len(words) != (hi-lo)*stride {
			return fmt.Errorf("core: snapshot sketch shard %d holds %d words, want %d (shape mismatch)", i, len(words), (hi-lo)*stride)
		}
		for v := lo; v < hi; v++ {
			sh := sShard(f.cl.Machine(f.part.Owner(v)))
			if err := sh.arena.ApplyRegion(v-sh.lo, words[(v-lo)*stride:(v-lo+1)*stride]); err != nil {
				return err
			}
		}
	}
	dc.journal.Reset() // the loaded state is the new delta baseline
	return nil
}
