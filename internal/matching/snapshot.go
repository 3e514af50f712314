package matching

// Checkpoint/restore of the matching algorithms (see package snapshot).
// GreedyInsertOnly serializes its match column in vertex order and its
// coordinator counter — no placement, so it loads onto any fleet size;
// AKLYDynamic serializes, per guess instance, every pair sampler's sketch
// cells and last reported outcome plus the embedded nowickionak matcher.
// Hash families and the active-pair layout are rederived from the
// construction seed, so they are validated structurally, not serialized.

import (
	"fmt"
	"sort"

	"repro/internal/mpc"
	"repro/internal/snapshot"
)

// Section tags of the matching layer. 0x30–0x31 were the greedy matching's
// per-machine layout and stay retired: a file holding them is rejected by
// tag, never migrated.
const (
	tagAKLY       = 0x32
	tagSparsifier = 0x33
	tagGreedy     = 0x34
)

// Checkpoint serializes the greedy matching state as one section: n, the
// cap, the size counter, the cluster stats, then the match column in vertex
// order.
func (g *GreedyInsertOnly) Checkpoint(e *snapshot.Encoder) {
	e.Begin(tagGreedy)
	e.Int(g.n)
	e.Int(g.cap)
	e.Int(g.size)
	snapshot.EncodeClusterStats(e, g.cl.Stats())
	e.Int(g.n)
	for i := 0; i < g.coord; i++ { // the vertex machines, in vertex order
		for _, p := range g.cl.Machine(i).Get(slotShard).(*greedyShard).match {
			e.Int(p)
		}
	}
}

// Restore loads a checkpoint written by Checkpoint, at any machine count,
// into this freshly constructed instance (see core/reshard.go for the
// scheme): the match column is installed onto this instance's contiguous
// vertex ranges; the cap and size are coordinator state. Validation (n, cap,
// partner ranges) completes before any state is touched.
func (g *GreedyInsertOnly) Restore(d *snapshot.Decoder) error {
	d.Begin(tagGreedy)
	n, capSize, size := d.Int(), d.Int(), d.Int()
	st := snapshot.DecodeClusterStats(d)
	match := d.Ints()
	if err := d.Err(); err != nil {
		return err
	}
	if n != g.n || capSize != g.cap {
		return fmt.Errorf("matching: snapshot of (n=%d, cap=%d) restored into (n=%d, cap=%d)", n, capSize, g.n, g.cap)
	}
	if len(match) != n {
		return fmt.Errorf("matching: snapshot match column of %d entries, want %d", len(match), n)
	}
	for v, p := range match {
		if p < -1 || p >= n {
			return fmt.Errorf("matching: snapshot gives vertex %d invalid match partner %d", v, p)
		}
	}
	g.size = size
	g.cl.LocalAll(func(mm *mpc.Machine) {
		if sh, ok := mm.Get(slotShard).(*greedyShard); ok {
			copy(sh.match, match[sh.lo:sh.hi])
		}
	})
	// Last, so that LocalAll's memory metering of the install itself does not
	// leak into the metrics: a loaded instance's Stats are the checkpoint's.
	g.cl.RestoreStats(st)
	return nil
}

// Checkpoint serializes every guess instance: the sparsifier's pair
// samplers (in sorted pair order, so checkpoints are deterministic) and
// the embedded maximal matcher.
func (a *AKLYDynamic) Checkpoint(e *snapshot.Encoder) {
	e.Begin(tagAKLY)
	e.Int(a.n)
	e.F64(a.alpha)
	e.Int(len(a.instances))
	for _, inst := range a.instances {
		inst.sp.checkpoint(e)
		inst.sp.matcher.Checkpoint(e)
	}
}

// Restore loads a checkpoint written by Checkpoint. The instance must have
// been built with the same n, alpha, and seed, so that the rederived hash
// families and active-pair layouts match; structural disagreements are
// rejected. The embedded matchers may run on a fleet of any size: each
// installs its columns under its own placement. On error the instance must
// be discarded.
func (a *AKLYDynamic) Restore(d *snapshot.Decoder) error {
	d.Begin(tagAKLY)
	n := d.Int()
	alpha := d.F64()
	insts := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n != a.n || alpha != a.alpha {
		return fmt.Errorf("matching: snapshot of (n=%d, alpha=%v) restored into (n=%d, alpha=%v)", n, alpha, a.n, a.alpha)
	}
	if insts != len(a.instances) {
		return fmt.Errorf("matching: snapshot of %d guess instances restored into %d", insts, len(a.instances))
	}
	for _, inst := range a.instances {
		if err := inst.sp.restore(d); err != nil {
			return err
		}
		if err := inst.sp.matcher.Restore(d); err != nil {
			return err
		}
	}
	return d.Err()
}

// checkpoint serializes the sparsifier's sampler shards.
func (sp *sparsifier) checkpoint(e *snapshot.Encoder) {
	e.Begin(tagSparsifier)
	e.Int(sp.n)
	e.Int(sp.mach)
	snapshot.EncodeClusterStats(e, sp.cl.Stats())
	for i := 0; i < sp.mach; i++ {
		mm := sp.cl.Machine(i)
		sh, ok := mm.Get(slotShard).(*sparsifierShard)
		e.Bool(ok)
		if !ok {
			continue
		}
		keys := make([]pairKey, 0, len(sh.pairs))
		for p := range sh.pairs {
			keys = append(keys, p)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].i != keys[b].i {
				return keys[a].i < keys[b].i
			}
			return keys[a].j < keys[b].j
		})
		e.Int(len(keys))
		for _, p := range keys {
			st := sh.pairs[p]
			e.Int(p.i)
			e.Int(p.j)
			e.Int(st.outcome.U)
			e.Int(st.outcome.V)
			e.Bool(st.has)
			e.U64s(st.sk.Cells())
		}
	}
}

// restore loads the sampler shards; every snapshotted pair must exist in
// the rederived layout (same seed), and sketch images must match the
// space's stride.
func (sp *sparsifier) restore(d *snapshot.Decoder) error {
	d.Begin(tagSparsifier)
	n, mach := d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n != sp.n || mach != sp.mach {
		return fmt.Errorf("matching: sparsifier snapshot of (n=%d, machines=%d) restored into (n=%d, machines=%d)",
			n, mach, sp.n, sp.mach)
	}
	st := snapshot.DecodeClusterStats(d)
	if err := d.Err(); err != nil {
		return err
	}
	sp.cl.RestoreStats(st)
	for i := 0; i < sp.mach; i++ {
		mm := sp.cl.Machine(i)
		sh, ok := mm.Get(slotShard).(*sparsifierShard)
		hasShard := d.Bool()
		if err := d.Err(); err != nil {
			return err
		}
		if hasShard != ok {
			return fmt.Errorf("matching: sparsifier snapshot/instance disagree on machine %d holding samplers", i)
		}
		if !ok {
			continue
		}
		cnt := d.Int()
		if d.Err() == nil && cnt != len(sh.pairs) {
			return fmt.Errorf("matching: sparsifier snapshot holds %d pairs on machine %d, instance %d (seed skew)",
				cnt, i, len(sh.pairs))
		}
		for j := 0; j < cnt && d.Err() == nil; j++ {
			key := pairKey{i: d.Int(), j: d.Int()}
			u, v := d.Int(), d.Int()
			has := d.Bool()
			cells := d.U64s()
			if d.Err() != nil {
				break
			}
			ps, exists := sh.pairs[key]
			if !exists {
				return fmt.Errorf("matching: sparsifier snapshot holds pair (%d,%d) unknown to machine %d (seed skew)",
					key.i, key.j, i)
			}
			if len(cells) != len(ps.sk.Cells()) {
				return fmt.Errorf("matching: sparsifier snapshot sketch of %d words, want %d", len(cells), len(ps.sk.Cells()))
			}
			copy(ps.sk.Cells(), cells)
			ps.outcome.U, ps.outcome.V = u, v
			ps.has = has
		}
	}
	return d.Err()
}
