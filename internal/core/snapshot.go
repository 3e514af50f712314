package core

// Crash-safe checkpoint/restore of the connectivity stack (see package
// snapshot for the container format). A full checkpoint holds what the rest
// of the state is a function of, and nothing of its placement: the
// coordinator-local tour-id counter, whether the component count is cached,
// the label cache's warm set as an n-bit bitmap, the cluster execution
// metrics, the tree-edge records sorted by edge id, and, for a
// DynamicConnectivity, the sketch words of all N vertices as one run. The
// component column is the minimum-root union-find over the tree edges, so a
// loader derives it, and with it every warm label and the component count
// (reshard.go); no fragment key outlives the Cut that made it. No machine id,
// vertex range or machine count is written: which machine holds what is a
// rule of the loading instance. Shared randomness (edge hash, sketch spaces)
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
// This file holds the writers (Checkpoint, CheckpointDelta), the warm-set
// bitmap both write, and the delta reader (RestoreDelta); the one reader of a
// full container, Restore, is in reshard.go. The container-level checks
// (magic, version, CRC) have already rejected corrupt files before any reader
// here runs.

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
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
// keys, stamps and epoch) rather than derive them, and 0x18 the sketch run of
// three-word cells (an ℓ0 counter beside the index sum and fingerprint).
const (
	tagSketches    = 0x1C
	tagForest      = 0x1A
	tagReplayDelta = 0x1B
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
// tour-id counter, whether the component count is cached, the label cache's
// warm set, cluster stats, then the tree-edge records (see the file comment).
// It reads the shards directly — no collective, no metering.
func (f *Forest) Checkpoint(e *snapshot.Encoder) {
	e.Begin(tagForest)
	f.writeConfig(e)
	e.U64(f.nextID)
	e.Bool(f.cache.numCompsOK)
	f.cache.writeWarm(e)
	snapshot.EncodeClusterStats(e, f.cl.Stats())
	var recs []*treeEdge
	for i := 0; i < f.cl.Machines(); i++ {
		es := eShard(f.cl.Machine(i))
		for j := range es.recs {
			recs = append(recs, &es.recs[j])
		}
	}
	slices.SortFunc(recs, func(a, b *treeEdge) int { return cmpEdge(a.rec.E, b.rec.E) })
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

// writeWarm writes the warm set — the vertices whose label is cached — as an
// n-bit bitmap, ⌈n/64⌉ words with no length prefix (the echo fixes n), vertex
// v at bit v%64 of word v/64. The labels are not written: each is its
// vertex's component, which a loader reads off the restored column
// (installWarm).
func (lc *labelCache) writeWarm(e *snapshot.Encoder) {
	var w uint64
	for v, s := range lc.stamp {
		if s == lc.epoch {
			w |= 1 << (v % 64)
		}
		if v%64 == 63 || v == len(lc.stamp)-1 {
			e.U64(w)
			w = 0
		}
	}
}

// readWarm reads the bitmap writeWarm wrote for n vertices; a bit set past
// vertex n-1 is an error.
func readWarm(d *snapshot.Decoder, n int) ([]uint64, error) {
	warm := make([]uint64, (n+63)/64)
	for i := range warm {
		warm[i] = d.U64()
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if tail := n % 64; tail != 0 && warm[len(warm)-1]>>tail != 0 {
		return nil, fmt.Errorf("core: snapshot warm set names a vertex past %d", n-1)
	}
	return warm, nil
}

// installWarm makes the cache hold exactly the warm set, stamped in the
// current epoch, each label read off the component column (compOf).
func (lc *labelCache) installWarm(warm []uint64, compOf func(v int) int) {
	clear(lc.stamp)
	clear(lc.pend)
	lc.valid = 0
	for i, w := range warm {
		for ; w != 0; w &= w - 1 {
			v := 64*i + bits.TrailingZeros64(w)
			lc.labels[v] = compOf(v)
			lc.stamp[v] = lc.epoch
			lc.valid++
		}
	}
}

// Checkpoint serializes the full dynamic-connectivity state: the forest's
// section, then one section holding the sketch words of every vertex in
// vertex order (the arenas back to back).
func (dc *DynamicConnectivity) Checkpoint(e *snapshot.Encoder) {
	f := dc.f
	f.Checkpoint(e)
	run := f.cfg.N * dc.space.SketchWords()
	e.Grow(3 + run) // the section header, the length word and the run
	e.Begin(tagSketches)
	e.Int(run)
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
// it depends on the queries run in between: whether the component count is
// cached, the label cache's warm set, the cluster stats. It declines (false)
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
	e.Bool(f.cache.numCompsOK)
	f.cache.writeWarm(e)
	snapshot.EncodeClusterStats(e, f.cl.Stats())
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
	if err := f.readConfig(d); err != nil {
		return snapshot.Replay{}, err
	}
	if mach := d.Int(); d.Err() == nil && mach != f.cl.Machines() {
		return snapshot.Replay{}, fmt.Errorf("core: delta written on %d machines cannot extend a base on %d", mach, f.cl.Machines())
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
	nextID, treeEdges := d.U64(), d.Int()
	numCompsOK := d.Bool()
	warm, err := readWarm(d, f.cfg.N)
	if err != nil {
		return replayed, err
	}
	st := snapshot.DecodeClusterStats(d)
	if err := d.Err(); err != nil {
		return replayed, err
	}
	if nextID != f.nextID || treeEdges != f.treeEdges() {
		return replayed, fmt.Errorf("core: replay diverged: the journal leaves tour counter %d and %d tree edges, the delta recorded %d and %d",
			f.nextID, f.treeEdges(), nextID, treeEdges)
	}
	lc := &f.cache
	lc.numComps, lc.numCompsOK = 0, numCompsOK
	for i := 0; i < f.coord; i++ { // unmetered, like Checkpoint's walk
		lc.numComps += vShard(f.cl.Machine(i)).heads()
	}
	lc.installWarm(warm, func(v int) int { return vShard(f.cl.Machine(f.part.Owner(v))).compOf(v) })
	f.cl.RestoreStats(st)
	dc.search.reset()
	dc.journal.Reset() // the restored state is the new delta baseline
	return replayed, nil
}

// AckCheckpoint starts the journal over: the current state is the new delta
// baseline.
func (dc *DynamicConnectivity) AckCheckpoint() { dc.journal.Reset() }
