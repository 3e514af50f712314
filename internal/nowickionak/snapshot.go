package nowickionak

// Checkpoint/restore of the maximal-matching state (see package snapshot).
// A checkpoint captures the adjacency multiset and match pointer of every
// shard, the conflict-retry counter, the cached size readout, and the
// cluster metrics; the cluster shape is rederived by the constructor and
// validated on restore.

import (
	"fmt"
	"sort"

	"repro/internal/snapshot"
)

// Section tags of the nowickionak layer.
const (
	tagMatcher      = 0x40
	tagMatcherShard = 0x41
)

// Checkpoint serializes the matcher state. Adjacency maps are emitted in
// sorted neighbor order so a checkpoint is a deterministic function of the
// logical state.
func (m *Matcher) Checkpoint(e *snapshot.Encoder) {
	e.Begin(tagMatcher)
	e.Int(m.n)
	e.Int(m.cl.Machines())
	e.Int(m.retryRounds)
	e.Int(m.size)
	e.Bool(m.sizeOK)
	snapshot.EncodeClusterStats(e, m.cl.Stats())
	for i := 0; i < m.cl.Machines(); i++ {
		mm := m.cl.Machine(i)
		sh := getShard(mm)
		snapshot.WriteShardHeader(e, tagMatcherShard, i, sh != nil)
		if sh == nil {
			continue
		}
		e.Int(sh.lo)
		e.Int(sh.hi)
		e.Ints(sh.match)
		for _, adj := range sh.adj {
			ns := make([]int, 0, len(adj))
			for o := range adj {
				ns = append(ns, o)
			}
			sort.Ints(ns)
			e.Int(len(ns))
			for _, o := range ns {
				e.Int(o)
				e.Int(adj[o])
			}
		}
	}
}

// Restore loads a checkpoint written by Checkpoint into this freshly
// constructed matcher. On error the instance must be discarded.
func (m *Matcher) Restore(d *snapshot.Decoder) error {
	d.Begin(tagMatcher)
	n := d.Int()
	mach := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n != m.n {
		return fmt.Errorf("nowickionak: snapshot of N=%d restored into N=%d", n, m.n)
	}
	if mach != m.cl.Machines() {
		return fmt.Errorf("nowickionak: snapshot of %d machines restored into %d", mach, m.cl.Machines())
	}
	m.retryRounds = d.Int()
	m.size = d.Int()
	m.sizeOK = d.Bool()
	st := snapshot.DecodeClusterStats(d)
	if err := d.Err(); err != nil {
		return err
	}
	m.cl.RestoreStats(st)
	for i := 0; i < m.cl.Machines(); i++ {
		if err := m.restoreShard(d, i); err != nil {
			return err
		}
	}
	return d.Err()
}

// restoreShard loads machine i's adjacency and match state.
func (m *Matcher) restoreShard(d *snapshot.Decoder, i int) error {
	// The writer's machine count is this instance's (Restore checked), so its
	// partition is too.
	hasShard, err := snapshot.ReadShardHeader(d, tagMatcherShard, i, m.part)
	if err != nil || !hasShard {
		return err
	}
	lo, hi, err := snapshot.ReadShardRange(d, i, m.part)
	if err != nil {
		return err
	}
	sh := getShard(m.cl.Machine(i))
	match := d.Ints()
	if err := d.Err(); err != nil {
		return err
	}
	if len(match) != hi-lo {
		return fmt.Errorf("nowickionak: snapshot shard %d has %d match entries, want %d", i, len(match), hi-lo)
	}
	for _, p := range match {
		if p < -1 || p >= m.n {
			return fmt.Errorf("nowickionak: snapshot shard %d holds invalid match partner %d", i, p)
		}
	}
	copy(sh.match, match)
	sh.words = 0
	for v := range sh.adj {
		cnt := d.Count(2)
		adj := make(map[int]int, cnt)
		for j := 0; j < cnt && d.Err() == nil; j++ {
			o := d.Int()
			mult := d.Int()
			if o < 0 || o >= m.n || mult <= 0 {
				return fmt.Errorf("nowickionak: snapshot shard %d vertex %d holds invalid adjacency (%d, ×%d)",
					i, sh.lo+v, o, mult)
			}
			adj[o] = mult
		}
		sh.adj[v] = adj
		sh.words += 2 * len(adj)
	}
	return d.Err()
}
