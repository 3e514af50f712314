package core

// Crash-safe checkpoint/restore of the connectivity stack (see package
// snapshot for the container format). A full checkpoint is the logical state
// and nothing of its placement: the coordinator-local tour-id counter and
// label cache (epoch-preserving, so a restored run's warm queries stay warm),
// the cluster execution metrics, the component column in vertex order, the
// fragment keys sorted by vertex, the tree-edge records sorted by edge id,
// and, for a DynamicConnectivity, the sketch words of all N vertices as one
// run. No machine id, vertex range or machine count is written: which
// machine holds what is a rule of the loading instance (reshard.go). Shared
// randomness (edge hash, sketch spaces) is reconstructed deterministically
// from the configuration seed, so it is validated, not serialized.
//
// A delta checkpoint is logical: the batches ApplyBatch received since the
// last acknowledged checkpoint, replayed on restore (CheckpointDelta,
// RestoreDelta below). The sketches are a seed-fixed linear function of the
// stream and ApplyBatch is deterministic, so replaying the same chunks onto
// the same base reproduces shards, arenas and tour ids bit for bit; only the
// driver state a replay cannot rederive rides along.
//
// This file holds the writers (Checkpoint, CheckpointDelta) and the delta
// reader (RestoreDelta); the one reader of a full container, Restore, is in
// reshard.go. The container-level checks (magic, version, CRC) have already
// rejected corrupt files before any reader here runs.

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/snapshot"
)

// Section tags of the core layer. A layout that changes takes a new tag and
// the old one stays retired, so a file holding it is rejected by tag, never
// migrated: 0x10–0x12 were the full container's per-machine layout (a forest
// header, one section per machine shard, one per sketch arena), 0x13–0x15
// the physical delta (dirty component entries, tree-edge upserts and
// tombstones, arena regions), 0x16 the delta whose echo carried the writer's
// VerticesPerMachine.
const (
	tagForest      = 0x17
	tagSketches    = 0x18
	tagReplayDelta = 0x19
)

// writeConfig writes the configuration echo that opens the forest's full
// section and the delta section: the state-shaping parameters a restoring
// instance must match.
func (f *Forest) writeConfig(e *snapshot.Encoder) {
	e.Int(f.cfg.N)
	e.F64(f.cfg.Phi)
	e.Int(f.cfg.SketchCopies)
	e.U64(f.cfg.Seed)
	e.Bool(f.weighted)
}

// readConfig reads the configuration echo and validates it (Parallelism and
// Strict are execution-engine choices, not state, and may differ between
// writer and reader; so may the fleet shape).
func (f *Forest) readConfig(d *snapshot.Decoder) error {
	n := d.Int()
	phi := d.F64()
	copies := d.Int()
	seed := d.U64()
	weighted := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	switch {
	case n != f.cfg.N:
		return fmt.Errorf("core: snapshot of N=%d restored into N=%d", n, f.cfg.N)
	case phi != f.cfg.Phi:
		return fmt.Errorf("core: snapshot of Phi=%v restored into Phi=%v", phi, f.cfg.Phi)
	case copies != f.cfg.SketchCopies:
		return fmt.Errorf("core: snapshot of SketchCopies=%d restored into SketchCopies=%d", copies, f.cfg.SketchCopies)
	case seed != f.cfg.Seed:
		return fmt.Errorf("core: snapshot of Seed=%d restored into Seed=%d", seed, f.cfg.Seed)
	case weighted != f.weighted:
		return fmt.Errorf("core: snapshot weighted=%v restored into weighted=%v", weighted, f.weighted)
	}
	return nil
}

// Checkpoint serializes the forest as one section: configuration echo,
// tour-id counter, label cache, cluster stats, then the component column, the
// fragment keys and the tree-edge records (see the file comment). It reads
// the shards directly — no collective, no metering.
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
	e.Int(f.cfg.N)
	var fragVerts []int
	for i := 0; i < f.coord; i++ { // the vertex machines, in vertex order
		vs := vShard(f.cl.Machine(i))
		for _, c := range vs.comp {
			e.Int(c)
		}
		for v := range vs.frag {
			fragVerts = append(fragVerts, v)
		}
	}
	slices.Sort(fragVerts)
	e.Int(len(fragVerts))
	for _, v := range fragVerts {
		e.Int(v)
		e.U64(vShard(f.cl.Machine(f.part.Owner(v))).frag[v])
	}
	var recs []*treeEdge
	for i := 0; i < f.cl.Machines(); i++ {
		for _, te := range eShard(f.cl.Machine(i)).recs {
			recs = append(recs, te)
		}
	}
	slices.SortFunc(recs, func(a, b *treeEdge) int { return cmp.Compare(a.rec.E.ID(f.cfg.N), b.rec.E.ID(f.cfg.N)) })
	e.Int(len(recs))
	for _, te := range recs {
		e.Int(te.rec.E.U)
		e.Int(te.rec.E.V)
		e.U64(uint64(te.rec.Tour))
		e.Int(te.rec.UPos[0])
		e.Int(te.rec.UPos[1])
		e.Int(te.rec.VPos[0])
		e.Int(te.rec.VPos[1])
		e.I64(te.weight)
	}
}

// Checkpoint serializes the full dynamic-connectivity state: the forest's
// section, then one section holding the sketch words of every vertex in
// vertex order (the arenas back to back).
func (dc *DynamicConnectivity) Checkpoint(e *snapshot.Encoder) {
	f := dc.f
	f.Checkpoint(e)
	e.Begin(tagSketches)
	e.Int(f.cfg.N * dc.space.SketchWords())
	for i := 0; i < f.coord; i++ {
		e.Words(sShard(f.cl.Machine(i)).arena.Raw())
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
	e.Int(f.cl.Machines())
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
	if err := f.readConfig(d); err != nil {
		return snapshot.Replay{}, err
	}
	if mach := d.Int(); d.Err() == nil && mach != f.cl.Machines() {
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
