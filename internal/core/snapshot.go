package core

// Crash-safe checkpoint/restore of the connectivity stack (see package
// snapshot for the container format). A full checkpoint holds what the rest
// of the state is a function of, and nothing of its placement: the
// coordinator-local tour-id counter, whether the component count is cached,
// the label cache's warm set as an n-bit bitmap, the cluster execution
// metrics, the tree-edge records sorted by edge id, and, for a
// DynamicConnectivity, its sketch state as the shards keep it (sketchShard):
// the edges the list vertices hold, each once in edge-id order, and the
// promoted vertices' sketch words (image). The component column is the
// minimum-root union-find over the tree edges, so a loader derives it, and
// with it every warm label and the component count (reshard.go); no
// fragment key outlives the Cut that made it. No machine id,
// vertex range or machine count is written: which machine holds what is a
// rule of the loading instance. Shared randomness (edge hash, sketch spaces)
// is reconstructed deterministically from the configuration seed, so it is
// validated, not serialized.
//
// A delta checkpoint is logical: the batches ApplyBatch received since the
// last acknowledged checkpoint, replayed on restore (CheckpointDelta,
// RestoreDelta below). The sketches are a seed-fixed linear function of the
// stream and ApplyBatch is deterministic, so replaying the same chunks onto
// the same base reproduces shards, edge lists, promotions and tour ids bit
// for bit; only the driver state a replay cannot rederive rides along.
//
// This file holds the echo and the warm-set bitmap both kinds write, the
// full checkpoint's Checkpoint and Restore (the image they encode and load,
// Forest.Image, and its cross-row checks are in reshard.go) and the delta's
// writer and reader. Every word of both is a snapshot part: the delta writes
// its echo, its journal, then its tail (deltaTail) — the replay fingerprint
// as echoes, so a replay that arrives elsewhere is rejected by the codec,
// the cached-count scalar, the warm set and the Stats — and reads them back
// from the same declaration. The container-level checks (magic, version,
// CRC) have already rejected corrupt files before any reader here runs.

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/sketch"
	"repro/internal/snapshot"
)

// Section tags of the core layer. A layout that changes takes a new tag and
// the old one stays retired, so a file holding it is rejected by tag, never
// migrated: 0x10–0x12 were the full container's per-machine layout (a forest
// header, one section per machine shard, one per sketch arena), 0x13–0x15
// the physical delta (dirty component entries, tree-edge upserts and
// tombstones, arena regions), 0x16 the delta whose echo carried the writer's
// VerticesPerMachine, 0x17 the forest section and 0x19 the delta that wrote
// the label cache's labels (and the forest its component column, fragment
// keys, stamps and epoch) rather than derive them, 0x18 the sketch run of
// three-word cells (an ℓ0 counter beside the index sum and fingerprint), and
// 0x1C the sketch run of every vertex's two-word cells, written when every
// vertex kept a sketch.
const (
	tagSketches    = 0x1D
	tagForest      = 0x1A
	tagReplayDelta = 0x1B
)

// echo is the configuration echo that opens the forest's full section and
// the delta section: the state-shaping parameters a restoring instance must
// match (Parallelism is an execution-engine choice, not state, and may
// differ between writer and reader; so may the fleet shape).
func (f *Forest) echo() []snapshot.Part {
	return []snapshot.Part{
		snapshot.Echo("N", f.cfg.N),
		snapshot.Echo("Phi", f.cfg.Phi),
		snapshot.Echo("SketchCopies", f.cfg.SketchCopies),
		snapshot.Echo("Seed", f.cfg.Seed),
		snapshot.Echo("weighted", f.weighted),
	}
}

// warm is the label cache's warm set — the vertices whose label is cached —
// as an n-bit bitmap. The labels are not written: each is its vertex's
// component, which a loader reads off the restored column (installWarm).
func (f *Forest) warm() *snapshot.Bitmap {
	lc := &f.cache
	return &snapshot.Bitmap{Name: "warm set", N: f.cfg.N, Has: func(v int) bool { return lc.stamp[v] == lc.epoch }}
}

// installWarm makes the cache hold exactly the warm set, stamped in the
// current epoch, each label read off the component column (compOf).
func (lc *labelCache) installWarm(warm *snapshot.Bitmap, compOf func(v int) int) {
	clear(lc.stamp)
	clear(lc.pend)
	lc.valid = 0
	warm.Each(func(v int) {
		lc.labels[v] = compOf(v)
		lc.stamp[v] = lc.epoch
		lc.valid++
	})
}

// Checkpoint serializes the forest as one section (Image). It reads the
// shards directly — no collective, no metering.
func (f *Forest) Checkpoint(e *snapshot.Encoder) { f.Image().Encode(e) }

// Restore loads a full forest checkpoint written at any machine count,
// placing vertex and edge state under this instance's placement maps.
func (f *Forest) Restore(d *snapshot.Decoder) error { return f.Image().Load(d) }

// image is the full dynamic-connectivity image: the forest's section, then
// one section holding the sketch state as the shards keep it (sketchShard),
// in two tables: the edges the list vertices hold, each once, in edge-id
// order, and the promoted vertices' sketch words, [vertex, S words] in
// vertex order. The loader, at the writer's shape or any other, deals each
// edge to its endpoints that are not promoted and each promoted row to the
// vertex's owner; an edge that reaches no list, a list that would outgrow
// S, or a sketch word that is not a field element (sketch.CheckCells) is
// rejected. The sketch spaces are rebuilt from the seed by the
// constructor; only lists and promoted cells are reloaded.
func (dc *DynamicConnectivity) image() *snapshot.Image { return dc.imageOf(dc.liveRows()) }

// liveRows reads the rows of a checkpoint off the shards.
func (dc *DynamicConnectivity) liveRows() imageRows {
	f := dc.f
	rows := f.liveRows()
	rows.promoted = dc.promotedVertices()
	rows.lists = dc.listEdges(rows.promoted)
	for _, v := range rows.promoted {
		sh := sShard(f.cl.Machine(f.part.Owner(v)))
		sk, _ := sh.promoted(v - sh.lo)
		rows.sketches = append(rows.sketches, sk)
	}
	return rows
}

// imageOf is image written from rows: a checkpoint's, read off the shards,
// or the rows Bootstrap computes.
func (dc *DynamicConnectivity) imageOf(rows imageRows) *snapshot.Image {
	f := dc.f
	img := f.image(rows)
	n, words := f.cfg.N, dc.space.SketchWords()
	ids, promoted, sketches := rows.lists, rows.promoted, rows.sketches
	edges := &snapshot.Table{Name: "sketch edges", Len: len(ids), Row: func(r int, row []uint64) {
		row[0], row[1] = ids[r]/uint64(n), ids[r]%uint64(n)
	}, Layout: snapshot.Layout{Width: 2, Key: 2, Order: "edge-id", Fields: []snapshot.Field{{Name: "u", Hi: n}, {Name: "v", Hi: n, Above: true}}}}
	cells := &snapshot.Table{Name: "promoted sketches", Len: len(promoted), Row: func(r int, row []uint64) {
		row[0] = uint64(promoted[r])
		copy(row[1:], sketches[r].Cells())
	}, Layout: snapshot.Layout{Width: 1 + words, Key: 1, Order: "vertex", Fields: []snapshot.Field{{Name: "vertex", Hi: n}}, Rest: sketch.CheckCells}}
	img.Sections = append(img.Sections, snapshot.Section{Tag: tagSketches, Parts: []snapshot.Part{edges, cells}})

	check, staged, install := img.Check, img.Staged, img.Install
	var shards []*sketchShard
	img.Check = func() (err error) {
		if err := check(); err != nil {
			return err
		}
		shards, err = dc.dealSketches(edges, cells)
		return err
	}
	img.Staged = func(m int, slot string) mpc.Sized {
		if slot == slotSketch {
			return shards[m]
		}
		return staged(m, slot)
	}
	img.Install = func() {
		install()
		f.cl.LocalAll(func(mm *mpc.Machine) {
			if vShard(mm) != nil {
				mm.Set(slotSketch, shards[mm.ID])
			}
		})
	}
	return img
}

// listEdges returns the ids of the edges the list vertices hold, each once,
// ascending: an edge is written from its smaller endpoint's list, or from
// its larger one's when the smaller is one of promoted (ascending).
func (dc *DynamicConnectivity) listEdges(promoted []int) []uint64 {
	f := dc.f
	n := uint64(f.cfg.N)
	words := 0
	for m := range f.coord {
		words += sShard(f.cl.Machine(m)).listWords
	}
	ids := make([]uint64, 0, words/2)
	for m := range f.coord {
		sh := sShard(f.cl.Machine(m))
		for i, list := range sh.edges {
			// The ids from v·n on are the edges whose smaller endpoint is v.
			j, _ := slices.BinarySearch(list, uint64(sh.lo+i)*n)
			if len(promoted) > 0 {
				for _, id := range list[:j] {
					if _, ok := slices.BinarySearch(promoted, int(id/n)); ok {
						ids = append(ids, id)
					}
				}
			}
			ids = append(ids, list[j:]...)
		}
	}
	if len(promoted) > 0 {
		slices.Sort(ids)
	}
	return ids
}

// promotedVertices returns the promoted vertices, ascending.
func (dc *DynamicConnectivity) promotedVertices() []int {
	var vs []int
	for m := range dc.f.coord {
		sh := sShard(dc.f.cl.Machine(m))
		for i, sl := range sh.slot {
			if sl >= 0 {
				vs = append(vs, sh.lo+i)
			}
		}
	}
	return vs
}

// dealSketches builds the sketch shards of this instance's placement from a
// decoded image: each promoted row into an arena slot of its vertex's owner,
// then each edge, in id order, onto the lists of its endpoints that are not
// promoted, so every list comes out sorted.
func (dc *DynamicConnectivity) dealSketches(edges, rows *snapshot.Table) ([]*sketchShard, error) {
	f := dc.f
	n, words := f.cfg.N, dc.space.SketchWords()
	shards := make([]*sketchShard, f.coord)
	for m := range shards {
		lo, hi := f.part.Range(m)
		shards[m] = newSketchShard(dc.space, n, lo, hi)
	}
	at := func(v int) (*sketchShard, int) {
		sh := shards[f.part.Owner(v)]
		return sh, v - sh.lo
	}
	for r := range rows.Rows() {
		row := rows.At(r)
		sh, i := at(int(row[0]))
		sl := sh.arena.Append()
		copy(sh.arena.At(sl).Cells(), row[1:])
		sh.slot[i] = int32(sl)
	}
	// Count each list's edges first, so every shard's lists share one
	// allocation, each with room to grow (listSlack) before it reallocates.
	deg := make([]int, n)
	for r := range edges.Rows() {
		row := edges.At(r)
		held := false
		for _, v := range [2]int{int(row[0]), int(row[1])} {
			if sh, i := at(v); sh.slot[i] < 0 {
				if deg[v]++; deg[v] > words {
					return nil, fmt.Errorf("core: snapshot sketch edges row %d gives list vertex %d more than %d edges", r, v, words)
				}
				held = true
			}
		}
		if !held {
			return nil, fmt.Errorf("core: snapshot sketch edges row %d: edge {%d,%d} joins two promoted vertices", r, row[0], row[1])
		}
	}
	for _, sh := range shards {
		room := 0
		for i := range sh.edges {
			if sh.slot[i] < 0 {
				sh.listWords += deg[sh.lo+i]
				room += listSlack(deg[sh.lo+i], words)
			}
		}
		backing, off := make([]uint64, room), 0
		for i := range sh.edges {
			if sh.slot[i] < 0 {
				c := listSlack(deg[sh.lo+i], words)
				sh.edges[i] = backing[off : off : off+c]
				off += c
			}
		}
	}
	for r := range edges.Rows() {
		row := edges.At(r)
		id := row[0]*uint64(n) + row[1]
		for _, v := range [2]int{int(row[0]), int(row[1])} {
			if sh, i := at(v); sh.slot[i] < 0 {
				sh.edges[i] = append(sh.edges[i], id)
			}
		}
	}
	return shards, nil
}

// listSlack is the capacity a loaded list of d edges is laid out with: a
// quarter more, at least two more, never past the s words at which the
// vertex is promoted. The first inserts after a load then land in place
// instead of copying the list out of the shared backing array. Words meters
// the lengths, not the capacities.
func listSlack(d, s int) int { return min(d+max(2, d/4), s) }

// Checkpoint serializes the full dynamic-connectivity state (image).
func (dc *DynamicConnectivity) Checkpoint(e *snapshot.Encoder) { dc.image().Encode(e) }

// Restore loads a full dynamic-connectivity checkpoint written at any machine
// count (image); the loaded state is the new delta baseline.
func (dc *DynamicConnectivity) Restore(d *snapshot.Decoder) error {
	if err := dc.image().Load(d); err != nil {
		return err
	}
	dc.journal.Reset()
	return nil
}

// treeEdges counts the forest's records (a driver-level readout, like
// Checkpoint's walk over the shards: no collective, no metering).
func (f *Forest) treeEdges() int {
	n := 0
	for i := 0; i < f.cl.Machines(); i++ {
		n += len(eShard(f.cl.Machine(i)).recs)
	}
	return n
}

// deltaTail declares what a delta records after its journal: the replay
// fingerprint — the tour-id counter and the tree-edge count, echoes a restore
// compares its replay against — and the coordinator state a replay
// cannot rederive, because it depends on the queries run in between: whether
// the component count is cached, the label cache's warm set and the cluster
// stats. The echoes hold the values at the call, so a restore declares the
// tail after its replay.
func (f *Forest) deltaTail(warm *snapshot.Bitmap) (fingerprint, coord []snapshot.Part) {
	return []snapshot.Part{snapshot.Echo("tour counter", f.nextID), snapshot.Echo("tree edges", f.treeEdges())},
		[]snapshot.Part{snapshot.Scalar("component count cached", &f.cache.numCompsOK), warm, snapshot.Stats(f.cl)}
}

// CheckpointDelta serializes what changed since the last acknowledged
// checkpoint as one section: the configuration echo; the journal — the
// batches ApplyBatch received since, chunk boundaries kept; then the tail
// (deltaTail). It declines (false) when the journal was dropped: it outgrew
// its bound, ApplyBatch returned an error, or Bootstrap bypassed it. Call
// AckCheckpoint once the container is durable.
func (dc *DynamicConnectivity) CheckpointDelta(e *snapshot.Encoder) bool {
	f := dc.f
	e.Begin(tagReplayDelta)
	snapshot.Put(e, append(f.echo(), snapshot.Echo("machines", f.cl.Machines()))...)
	if !dc.journal.Encode(e) {
		return false
	}
	fingerprint, coord := f.deltaTail(f.warm())
	snapshot.Put(e, fingerprint...)
	snapshot.Put(e, coord...)
	return true
}

// RestoreDelta applies a delta written by CheckpointDelta on top of already
// restored state (the base snapshot plus any earlier deltas of the chain) of
// the same fleet shape: every journaled batch, validated as outside input, is
// replayed through the one apply path; a replay that does not arrive at the
// recorded fingerprint is an error; then the label cache takes the delta's
// warm set, each label and the component count read off the replayed
// component column, the cluster stats are installed verbatim and the search
// counters zeroed, so the instance equals one restored from a full checkpoint
// of the same state. then, when not nil, is handed each batch after it was
// replayed (see snapshot.DeltaState). On error the instance must be
// discarded.
func (dc *DynamicConnectivity) RestoreDelta(d *snapshot.Decoder, then func(graph.Batch) error) (snapshot.Replay, error) {
	f := dc.f
	d.Begin(tagReplayDelta)
	// A delta extends a base of its own fleet shape only.
	if err := snapshot.Get(d, "core", append(f.echo(), snapshot.Echo("machines", f.cl.Machines()))...); err != nil {
		return snapshot.Replay{}, err
	}
	replayed, err := snapshot.ReplayJournal(d, f.cfg.N, dc.MaxBatch(), func(b graph.Batch) error {
		if err := dc.applyBatch(b); err != nil || then == nil {
			return err
		}
		return then(b)
	})
	if err != nil {
		return replayed, err
	}
	warm := f.warm()
	fingerprint, coord := f.deltaTail(warm)
	if err := snapshot.Get(d, "core: replay diverged", fingerprint...); err != nil {
		return replayed, err
	}
	if err := snapshot.Read(d, "core", coord...); err != nil {
		return replayed, err
	}
	lc := &f.cache
	lc.numComps = 0
	for i := 0; i < f.coord; i++ { // unmetered, like Checkpoint's walk
		lc.numComps += vShard(f.cl.Machine(i)).heads()
	}
	lc.installWarm(warm, func(v int) int { return vShard(f.cl.Machine(f.part.Owner(v))).compOf(v) })
	dc.search.reset()
	dc.journal.Reset() // the restored state is the new delta baseline
	return replayed, nil
}

// AckCheckpoint starts the journal over: the current state is the new delta
// baseline.
func (dc *DynamicConnectivity) AckCheckpoint() { dc.journal.Reset() }
