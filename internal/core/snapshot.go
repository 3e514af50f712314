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
// This file holds the writers (Checkpoint, CheckpointDelta), the delta reader
// (RestoreDelta) and the record codecs they share; the one reader of a full
// container — behind both Restore and ReshardRestore — is in reshard.go. The
// container-level checks (magic, version, CRC) have already rejected corrupt
// files before any reader here runs.

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/eulertour"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// Section tags of the core layer.
const (
	tagForest           = 0x10
	tagForestShard      = 0x11
	tagSketchShard      = 0x12
	tagForestDelta      = 0x13
	tagForestShardDelta = 0x14
	tagSketchShardDelta = 0x15
)

// Record codecs: the configuration echo, the shard header, the fragment map
// and the tree-edge record each have one writer and one reader, shared by the
// full and the delta container, so a layout or validation change is made
// once.

// writeConfig writes the configuration echo that opens the forest's full and
// delta sections: the state-shaping parameters a restoring instance must
// match, then the shape of the fleet that wrote the container.
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
// state, and may differ between writer and reader) and returns the writer's
// machine count. sameShape adds the demand that the writer's fleet shape
// equals this instance's.
func (f *Forest) readConfig(d *snapshot.Decoder, sameShape bool) (int, error) {
	n := d.Int()
	phi := d.F64()
	copies := d.Int()
	seed := d.U64()
	vpm := d.Int()
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
	case sameShape && (vpm != f.cfg.VerticesPerMachine || mach != f.cl.Machines()):
		return 0, fmt.Errorf("core: snapshot of VerticesPerMachine=%d on %d machines restored into VerticesPerMachine=%d on %d machines (re-shard it instead)",
			vpm, mach, f.cfg.VerticesPerMachine, f.cl.Machines())
	}
	return mach, nil
}

// writeShardHeader opens machine i's section under tag; has says whether the
// machine carries vertex state (every machine but the coordinator does).
func writeShardHeader(e *snapshot.Encoder, tag uint64, i int, has bool) {
	e.Begin(tag)
	e.Int(i)
	e.Bool(has)
}

// readShardHeader opens the section under tag that machine i of a fleet of
// mach machines wrote, checks it against the coordinator-last layout, and
// reports whether it carries vertex state.
func readShardHeader(d *snapshot.Decoder, tag uint64, i, mach int) (bool, error) {
	d.Begin(tag)
	id := d.Int()
	has := d.Bool()
	if err := d.Err(); err != nil {
		return false, err
	}
	if id != i {
		return false, fmt.Errorf("core: section %#x of machine %d where machine %d was expected", tag, id, i)
	}
	if has != (i != mach-1) {
		return false, fmt.Errorf("core: section %#x of machine %d of %d disagrees with the coordinator-last layout", tag, i, mach)
	}
	return has, nil
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

// writeTreeEdges writes the records of the given edges of shard es. The
// delta layout flags each record present or deleted (a tombstone, te == nil);
// the full layout holds live records only.
func writeTreeEdges(e *snapshot.Encoder, edges []graph.Edge, es *edgeShard, delta bool) {
	e.Int(len(edges))
	for _, ed := range edges {
		te := es.recs[ed]
		e.Int(ed.U)
		e.Int(ed.V)
		if delta {
			e.Bool(te != nil)
			if te == nil {
				continue
			}
		}
		e.U64(uint64(te.rec.Tour))
		e.Int(te.rec.UPos[0])
		e.Int(te.rec.UPos[1])
		e.Int(te.rec.VPos[0])
		e.Int(te.rec.VPos[1])
		e.I64(te.weight)
	}
}

// readTreeEdge reads one record of a forest on n vertices; in the delta
// layout a nil record is a tombstone for the returned edge.
func readTreeEdge(d *snapshot.Decoder, n int, delta bool) (graph.Edge, *treeEdge, error) {
	ed := graph.Edge{U: d.Int(), V: d.Int()}
	if d.Err() == nil && (ed.U < 0 || ed.U >= ed.V || ed.V >= n) {
		return ed, nil, fmt.Errorf("core: snapshot holds invalid tree edge {%d,%d}", ed.U, ed.V)
	}
	if delta && !d.Bool() {
		return ed, nil, d.Err()
	}
	te := &treeEdge{rec: eulertour.Record{E: ed, Tour: eulertour.TourID(d.U64())}}
	te.rec.UPos = [2]eulertour.Pos{d.Int(), d.Int()}
	te.rec.VPos = [2]eulertour.Pos{d.Int(), d.Int()}
	te.weight = d.I64()
	return ed, te, d.Err()
}

// Checkpoint serializes the forest: configuration echo, tour-id counter,
// label cache, cluster stats, and one section per machine shard. It does
// not reset the delta journals — call AckCheckpoint once the container is
// durably written.
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
		writeShardHeader(e, tagForestShard, i, vs != nil)
		if vs != nil {
			e.Int(vs.lo)
			e.Int(vs.hi)
			e.Ints(vs.comp)
			writeFrag(e, vs.frag)
		}
		es := eShard(mm)
		writeTreeEdges(e, sortedEdges(es.recs, f.cfg.N), es, false)
	}
}

// CheckpointDelta serializes only what changed since the last acknowledged
// checkpoint: the coordinator driver state wholesale (tour counter, the
// current epoch's label-cache entries, cluster stats — all small and
// epoch-scoped, so diffing buys nothing) plus per-shard journals (changed
// component entries, the fragment map when touched, changed or deleted tree
// edges), in sorted order so a delta is a deterministic function of the
// logical change set. Like Checkpoint it does not reset the journals;
// AckCheckpoint does, once the container is durable.
func (f *Forest) CheckpointDelta(e *snapshot.Encoder) {
	e.Begin(tagForestDelta)
	f.writeConfig(e)
	e.U64(f.nextID)
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
	for i := 0; i < f.cl.Machines(); i++ {
		mm := f.cl.Machine(i)
		vs := vShard(mm)
		writeShardHeader(e, tagForestShardDelta, i, vs != nil)
		if vs != nil {
			e.Int(vs.compDirtyCount)
			vs.forEachDirtyComp(func(idx, c int) {
				e.Int(idx)
				e.Int(c)
			})
			// The fragment map is transient and rebuilt wholesale by Cut;
			// ship it whole (it is empty or tiny between batches).
			e.Bool(vs.fragDirty)
			if vs.fragDirty {
				writeFrag(e, vs.frag)
			}
		}
		es := eShard(mm)
		writeTreeEdges(e, sortedEdges(es.dirty, f.cfg.N), es, true)
	}
}

// RestoreDelta applies a delta written by CheckpointDelta on top of already
// restored state (the base snapshot plus any earlier deltas of the chain) of
// the same fleet shape. Upserts and tombstones are idempotent, so replaying
// a delta that overlaps an already-applied one (a retried checkpoint after a
// failed write) is harmless. Label-cache entries are restored by clearing
// every stamp and re-stamping the delta's current-epoch entries —
// observationally identical to the full restore's stamp image, because stale
// stamps behave exactly like cleared ones (the epoch is never 0). On error
// the instance must be discarded.
func (f *Forest) RestoreDelta(d *snapshot.Decoder) error {
	d.Begin(tagForestDelta)
	if _, err := f.readConfig(d, true); err != nil {
		return err
	}
	f.nextID = d.U64()
	lc := &f.cache
	lc.epoch = uint32(d.U64())
	lc.numComps = d.Int()
	lc.numCompsOK = d.Bool()
	nv := d.Count(2)
	if err := d.Err(); err != nil {
		return err
	}
	clear(lc.stamp)
	for j := 0; j < nv; j++ {
		v, label := d.Int(), d.Int()
		if v < 0 || v >= f.cfg.N {
			return fmt.Errorf("core: delta label-cache entry for vertex %d out of range [0,%d)", v, f.cfg.N)
		}
		lc.labels[v] = label
		lc.stamp[v] = lc.epoch
	}
	lc.valid = nv
	st := snapshot.DecodeClusterStats(d)
	if err := d.Err(); err != nil {
		return err
	}
	f.cl.RestoreStats(st)
	for i := 0; i < f.cl.Machines(); i++ {
		if err := f.restoreShardDelta(d, i); err != nil {
			return err
		}
	}
	f.AckCheckpoint() // the restored state is the new delta baseline
	return nil
}

// restoreShardDelta applies machine i's journaled changes.
func (f *Forest) restoreShardDelta(d *snapshot.Decoder, i int) error {
	mm := f.cl.Machine(i)
	has, err := readShardHeader(d, tagForestShardDelta, i, f.cl.Machines())
	if err != nil {
		return err
	}
	if has {
		vs := vShard(mm)
		nc := d.Count(2)
		for j := 0; j < nc; j++ {
			idx, c := d.Int(), d.Int()
			if idx < 0 || idx >= vs.hi-vs.lo {
				return fmt.Errorf("core: delta shard %d component index %d out of range [0,%d)", i, idx, vs.hi-vs.lo)
			}
			vs.comp[idx] = c
		}
		if d.Bool() {
			frag := map[int]uint64{}
			if err := readFrag(d, vs.lo, vs.hi, frag); err != nil {
				return err
			}
			vs.frag = frag
		}
	}
	es := eShard(mm)
	ne := d.Count(3)
	for j := 0; j < ne; j++ {
		ed, te, err := readTreeEdge(d, f.cfg.N, true)
		if err != nil {
			return err
		}
		if o := f.edgeOwner(ed); o != i {
			return fmt.Errorf("core: delta files tree edge {%d,%d} on machine %d, but machine %d owns it", ed.U, ed.V, i, o)
		}
		if te == nil {
			delete(es.recs, ed)
		} else {
			es.recs[ed] = te
		}
	}
	return d.Err()
}

// AckCheckpoint marks the current forest state as durably captured: the
// per-shard delta journals reset, so the next CheckpointDelta emits only
// changes made after this call.
func (f *Forest) AckCheckpoint() {
	for i := 0; i < f.cl.Machines(); i++ {
		mm := f.cl.Machine(i)
		if vs := vShard(mm); vs != nil {
			vs.resetJournal()
		}
		eShard(mm).resetJournal()
	}
}

// Checkpoint serializes the full dynamic-connectivity state: the forest
// plus every machine's sketch arena (one contiguous word image per shard).
func (dc *DynamicConnectivity) Checkpoint(e *snapshot.Encoder) {
	dc.f.Checkpoint(e)
	for i := 0; i < dc.f.cl.Machines(); i++ {
		sh := sShard(dc.f.cl.Machine(i))
		writeShardHeader(e, tagSketchShard, i, sh != nil)
		if sh != nil {
			e.U64s(sh.arena.Raw())
		}
	}
}

// CheckpointDelta serializes the forest delta plus only the sketch-arena
// regions dirtied since the last acknowledged checkpoint — the piece that
// makes delta checkpoints scale with churn instead of graph size, since the
// arenas dominate the full image. Call AckCheckpoint once durable.
func (dc *DynamicConnectivity) CheckpointDelta(e *snapshot.Encoder) {
	dc.f.CheckpointDelta(e)
	for i := 0; i < dc.f.cl.Machines(); i++ {
		sh := sShard(dc.f.cl.Machine(i))
		writeShardHeader(e, tagSketchShardDelta, i, sh != nil)
		if sh != nil {
			e.Int(sh.arena.DirtyCount())
			sh.arena.ForEachDirtyRegion(func(r int, words []uint64) {
				e.Int(r)
				e.U64s(words)
			})
		}
	}
}

// RestoreDelta applies a delta written by CheckpointDelta: the forest delta,
// then each shipped arena region (idempotent region overwrites, like the
// forest's upserts).
func (dc *DynamicConnectivity) RestoreDelta(d *snapshot.Decoder) error {
	if err := dc.f.RestoreDelta(d); err != nil {
		return err
	}
	m := dc.f.cl.Machines()
	for i := 0; i < m; i++ {
		has, err := readShardHeader(d, tagSketchShardDelta, i, m)
		if err != nil {
			return err
		}
		if !has {
			continue
		}
		sh := sShard(dc.f.cl.Machine(i))
		nr := d.Count(2)
		for j := 0; j < nr; j++ {
			r, words := d.Int(), d.U64s()
			if err := d.Err(); err != nil {
				return err
			}
			if err := sh.arena.ApplyRegion(r, words); err != nil {
				return err
			}
		}
	}
	return d.Err()
}

// AckCheckpoint resets the forest journals and every arena's dirty bitmap:
// the current state is the new delta baseline.
func (dc *DynamicConnectivity) AckCheckpoint() {
	dc.f.AckCheckpoint()
	for i := 0; i < dc.f.cl.Machines(); i++ {
		if sh := sShard(dc.f.cl.Machine(i)); sh != nil {
			sh.arena.ResetDirty()
		}
	}
}
