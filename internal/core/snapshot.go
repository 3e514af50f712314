package core

// Crash-safe checkpoint/restore of the connectivity stack (see package
// snapshot for the container format). A checkpoint captures everything a
// fresh instance cannot rederive: the per-machine vertex and edge shards,
// the sketch arenas, the coordinator-local tour-id counter and label cache
// (epoch-preserving, so a restored run's warm queries stay warm), and the
// cluster execution metrics. Shared randomness (edge hash, sketch spaces)
// is reconstructed deterministically from the configuration seed, so it is
// validated, not serialized.
//
// A delta checkpoint is logical: the batches ApplyBatch received since the
// last acknowledged checkpoint, replayed on restore (CheckpointDelta,
// RestoreDelta below). The sketches are a seed-fixed linear function of the
// stream and ApplyBatch is deterministic, so replaying the same chunks onto
// the same base reproduces shards, arenas and tour ids bit for bit; only the
// driver state a replay cannot rederive rides along.
//
// This file holds the writers (Checkpoint, CheckpointDelta), the delta reader
// (RestoreDelta) and the record codecs of the full container; the one reader
// of a full container, Restore, is in reshard.go. The container-level checks (magic, version, CRC) have already
// rejected corrupt files before any reader here runs.

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/eulertour"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// Section tags of the core layer. 0x13–0x15 were the physical delta (dirty
// component entries, tree-edge upserts and tombstones, arena regions) and
// stay retired: a delta file holding them is rejected by tag, never migrated.
const (
	tagForest      = 0x10
	tagForestShard = 0x11
	tagSketchShard = 0x12
	tagReplayDelta = 0x16
)

// Record codecs: the configuration echo, the fragment map and the tree-edge
// record each have one writer and one reader (the shard header's are package
// snapshot's), so a layout or validation change is made once.

// writeConfig writes the configuration echo that opens the forest's full
// section and the delta section: the state-shaping parameters a restoring
// instance must match, then the shape of the fleet that wrote the container.
func (f *Forest) writeConfig(e *snapshot.Encoder) {
	e.Int(f.cfg.N)
	e.F64(f.cfg.Phi)
	e.Int(f.cfg.SketchCopies)
	e.U64(f.cfg.Seed)
	e.Int(f.cfg.VerticesPerMachine)
	e.Bool(f.weighted)
	e.Int(f.cl.Machines())
}

// readConfig reads the configuration echo, validates the state-shaping
// parameters (Parallelism and Strict are execution-engine choices, not
// state, and may differ between writer and reader; so may the fleet shape)
// and returns the writer's machine count.
func (f *Forest) readConfig(d *snapshot.Decoder) (int, error) {
	n := d.Int()
	phi := d.F64()
	copies := d.Int()
	seed := d.U64()
	d.Int() // the writer's VerticesPerMachine: its machine count follows
	weighted := d.Bool()
	mach := d.Int()
	if err := d.Err(); err != nil {
		return 0, err
	}
	switch {
	case n != f.cfg.N:
		return 0, fmt.Errorf("core: snapshot of N=%d restored into N=%d", n, f.cfg.N)
	case phi != f.cfg.Phi:
		return 0, fmt.Errorf("core: snapshot of Phi=%v restored into Phi=%v", phi, f.cfg.Phi)
	case copies != f.cfg.SketchCopies:
		return 0, fmt.Errorf("core: snapshot of SketchCopies=%d restored into SketchCopies=%d", copies, f.cfg.SketchCopies)
	case seed != f.cfg.Seed:
		return 0, fmt.Errorf("core: snapshot of Seed=%d restored into Seed=%d", seed, f.cfg.Seed)
	case weighted != f.weighted:
		return 0, fmt.Errorf("core: snapshot weighted=%v restored into weighted=%v", weighted, f.weighted)
	case mach < 2:
		return 0, fmt.Errorf("core: snapshot claims %d machines (corrupt)", mach)
	}
	return mach, nil
}

// writeFrag writes a fragment map in vertex order, so a container is a
// deterministic function of the logical state.
func writeFrag(e *snapshot.Encoder, frag map[int]uint64) {
	verts := make([]int, 0, len(frag))
	for v := range frag {
		verts = append(verts, v)
	}
	slices.Sort(verts)
	e.Int(len(verts))
	for _, v := range verts {
		e.Int(v)
		e.U64(frag[v])
	}
}

// readFrag reads the fragment map of the shard covering [lo,hi) into frag.
func readFrag(d *snapshot.Decoder, lo, hi int, frag map[int]uint64) error {
	n := d.Count(2)
	for j := 0; j < n; j++ {
		v, k := d.Int(), d.U64()
		if v < lo || v >= hi {
			return fmt.Errorf("core: fragment entry for vertex %d filed on the shard covering [%d,%d)", v, lo, hi)
		}
		frag[v] = k
	}
	return d.Err()
}

// sortedEdges returns the map's keys in edge-id order.
func sortedEdges[V any](m map[graph.Edge]V, n int) []graph.Edge {
	edges := make([]graph.Edge, 0, len(m))
	for ed := range m {
		edges = append(edges, ed)
	}
	slices.SortFunc(edges, func(a, b graph.Edge) int { return cmp.Compare(a.ID(n), b.ID(n)) })
	return edges
}

// writeTreeEdges writes the records of the given edges of shard es.
func writeTreeEdges(e *snapshot.Encoder, edges []graph.Edge, es *edgeShard) {
	e.Int(len(edges))
	for _, ed := range edges {
		te := es.recs[ed]
		e.Int(ed.U)
		e.Int(ed.V)
		e.U64(uint64(te.rec.Tour))
		e.Int(te.rec.UPos[0])
		e.Int(te.rec.UPos[1])
		e.Int(te.rec.VPos[0])
		e.Int(te.rec.VPos[1])
		e.I64(te.weight)
	}
}

// readTreeEdge reads one record of a forest on n vertices.
func readTreeEdge(d *snapshot.Decoder, n int) (graph.Edge, *treeEdge, error) {
	ed := graph.Edge{U: d.Int(), V: d.Int()}
	if d.Err() == nil && (ed.U < 0 || ed.U >= ed.V || ed.V >= n) {
		return ed, nil, fmt.Errorf("core: snapshot holds invalid tree edge {%d,%d}", ed.U, ed.V)
	}
	te := &treeEdge{rec: eulertour.Record{E: ed, Tour: eulertour.TourID(d.U64())}}
	te.rec.UPos = [2]eulertour.Pos{d.Int(), d.Int()}
	te.rec.VPos = [2]eulertour.Pos{d.Int(), d.Int()}
	te.weight = d.I64()
	return ed, te, d.Err()
}

// Checkpoint serializes the forest: configuration echo, tour-id counter,
// label cache, cluster stats, and one section per machine shard.
func (f *Forest) Checkpoint(e *snapshot.Encoder) {
	e.Begin(tagForest)
	f.writeConfig(e)
	e.U64(f.nextID)
	lc := &f.cache
	e.U64(uint64(lc.epoch))
	e.Int(lc.valid)
	e.Int(lc.numComps)
	e.Bool(lc.numCompsOK)
	e.Ints(lc.labels)
	e.Int(len(lc.stamp))
	for _, s := range lc.stamp {
		e.U64(uint64(s))
	}
	snapshot.EncodeClusterStats(e, f.cl.Stats())
	for i := 0; i < f.cl.Machines(); i++ {
		mm := f.cl.Machine(i)
		vs := vShard(mm)
		snapshot.WriteShardHeader(e, tagForestShard, i, vs != nil)
		if vs != nil {
			e.Int(vs.lo)
			e.Int(vs.hi)
			e.Ints(vs.comp)
			writeFrag(e, vs.frag)
		}
		es := eShard(mm)
		writeTreeEdges(e, sortedEdges(es.recs, f.cfg.N), es)
	}
}

// Checkpoint serializes the full dynamic-connectivity state: the forest
// plus every machine's sketch arena (one contiguous word image per shard).
func (dc *DynamicConnectivity) Checkpoint(e *snapshot.Encoder) {
	dc.f.Checkpoint(e)
	for i := 0; i < dc.f.cl.Machines(); i++ {
		sh := sShard(dc.f.cl.Machine(i))
		snapshot.WriteShardHeader(e, tagSketchShard, i, sh != nil)
		if sh != nil {
			e.U64s(sh.arena.Raw())
		}
	}
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

// CheckpointDelta serializes what changed since the last acknowledged
// checkpoint as one section: the configuration echo; the journal — the
// batches ApplyBatch received since, chunk boundaries kept; the replay
// fingerprint (tour-id counter, tree-edge count) a restore compares its replay
// against; and the coordinator driver state a replay cannot rederive, because
// it depends on the queries run in between: the current epoch's label-cache
// entries, the cached component count, the cluster stats. It declines (false)
// when the journal was dropped: it outgrew its bound, ApplyBatch
// returned an error, or Bootstrap bypassed it. Call AckCheckpoint once the
// container is durable.
func (dc *DynamicConnectivity) CheckpointDelta(e *snapshot.Encoder) bool {
	f := dc.f
	e.Begin(tagReplayDelta)
	f.writeConfig(e)
	if !dc.journal.Encode(e) {
		return false
	}
	e.U64(f.nextID)
	e.Int(f.treeEdges())
	lc := &f.cache
	e.U64(uint64(lc.epoch))
	e.Int(lc.numComps)
	e.Bool(lc.numCompsOK)
	e.Int(lc.valid)
	for v, s := range lc.stamp {
		if s == lc.epoch {
			e.Int(v)
			e.Int(lc.labels[v])
		}
	}
	snapshot.EncodeClusterStats(e, f.cl.Stats())
	return true
}

// RestoreDelta applies a delta written by CheckpointDelta on top of already
// restored state (the base snapshot plus any earlier deltas of the chain) of
// the same fleet shape: every journaled batch, validated as outside input, is
// replayed through the one apply path; a replay that does not arrive at the
// recorded fingerprint is an error; then the label cache and the cluster
// stats are installed verbatim and the search counters zeroed, so the
// instance equals one restored from a full checkpoint of the same state. The
// label cache is installed by clearing every stamp and re-stamping the
// delta's current-epoch entries — observationally identical to the full
// restore's stamp image, because stale stamps behave exactly like cleared
// ones (the epoch is never 0). On error the instance must be discarded.
func (dc *DynamicConnectivity) RestoreDelta(d *snapshot.Decoder) (snapshot.Replay, error) {
	f := dc.f
	d.Begin(tagReplayDelta)
	if mach, err := f.readConfig(d); err != nil {
		return snapshot.Replay{}, err
	} else if mach != f.cl.Machines() {
		return snapshot.Replay{}, fmt.Errorf("core: delta written on %d machines cannot extend a base on %d", mach, f.cl.Machines())
	}
	replayed, err := snapshot.ReplayJournal(d, f.cfg.N, dc.MaxBatch(), dc.applyBatch)
	if err != nil {
		return replayed, err
	}
	nextID, treeEdges := d.U64(), d.Int()
	lc := &f.cache
	epoch := uint32(d.U64())
	numComps, numCompsOK := d.Int(), d.Bool()
	nv := d.Count(2)
	if err := d.Err(); err != nil {
		return replayed, err
	}
	if nextID != f.nextID || treeEdges != f.treeEdges() {
		return replayed, fmt.Errorf("core: replay diverged: the journal leaves tour counter %d and %d tree edges, the delta recorded %d and %d",
			f.nextID, f.treeEdges(), nextID, treeEdges)
	}
	lc.epoch, lc.numComps, lc.numCompsOK = epoch, numComps, numCompsOK
	clear(lc.stamp)
	for j := 0; j < nv; j++ {
		v, label := d.Int(), d.Int()
		if v < 0 || v >= f.cfg.N {
			return replayed, fmt.Errorf("core: delta label-cache entry for vertex %d out of range [0,%d)", v, f.cfg.N)
		}
		lc.labels[v] = label
		lc.stamp[v] = lc.epoch
	}
	lc.valid = nv
	st := snapshot.DecodeClusterStats(d)
	if err := d.Err(); err != nil {
		return replayed, err
	}
	f.cl.RestoreStats(st)
	dc.search.reset()
	dc.journal.Reset() // the restored state is the new delta baseline
	return replayed, nil
}

// AckCheckpoint starts the journal over: the current state is the new delta
// baseline.
func (dc *DynamicConnectivity) AckCheckpoint() { dc.journal.Reset() }
