package nowickionak

// Checkpoint/restore of the maximal-matching state (see package snapshot).
// A checkpoint captures the adjacency multiset and match pointer of every
// shard, the conflict-retry counter, the cached size readout, and the
// cluster metrics; the cluster shape is the constructor's, and a restore
// regroups the shards of whatever machine count wrote the checkpoint.

import (
	"fmt"
	"sort"

	"repro/internal/mpc"
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

// Restore loads a checkpoint written by Checkpoint, at any machine count,
// into this freshly constructed matcher (see core/reshard.go for the
// scheme): match pointers and adjacency multisets are per-vertex logical
// state, so every source shard is decoded into one flat per-vertex image,
// which is installed under this instance's partition once it has been
// validated — configuration, shard layout, partners, and each target
// machine's memory budget — so a rejection leaves the matcher untouched.
// Any error past that is structural: discard the instance.
func (m *Matcher) Restore(d *snapshot.Decoder) error {
	d.Begin(tagMatcher)
	n, mach := d.Int(), d.Int()
	retryRounds, size, sizeOK := d.Int(), d.Int(), d.Bool()
	st := snapshot.DecodeClusterStats(d)
	if err := d.Err(); err != nil {
		return err
	}
	if n != m.n {
		return fmt.Errorf("nowickionak: snapshot of N=%d restored into N=%d", n, m.n)
	}
	if mach < 2 {
		return fmt.Errorf("nowickionak: snapshot claims %d machines (corrupt)", mach)
	}
	src := mpc.Partition{N: n, Machines: mach - 1}
	match := make([]int, n)
	adj := make([]map[int]int, n)
	for i := 0; i < mach; i++ {
		if err := m.readShard(d, i, src, match, adj); err != nil {
			return err
		}
	}
	for i := 0; i < m.coord; i++ {
		lo, hi := m.part.Range(i)
		words := 2*(hi-lo) + 2
		for _, a := range adj[lo:hi] {
			words += 2 * len(a)
		}
		if words > m.cl.LocalMemory() {
			return fmt.Errorf("nowickionak: restore onto %d machines rejected: machine %d needs %d words but the per-machine budget is %d",
				m.cl.Machines(), i, words, m.cl.LocalMemory())
		}
	}
	m.retryRounds, m.size, m.sizeOK = retryRounds, size, sizeOK
	m.cl.LocalAll(func(mm *mpc.Machine) {
		if sh := getShard(mm); sh != nil {
			copy(sh.match, match[sh.lo:sh.hi])
			copy(sh.adj, adj[sh.lo:sh.hi])
			sh.words = 0
			for _, a := range sh.adj {
				sh.words += 2 * len(a)
			}
		}
	})
	// Last, so that LocalAll's memory metering of the install itself does not
	// leak into the metrics: a loaded instance's Stats are the checkpoint's.
	m.cl.RestoreStats(st)
	return nil
}

// readShard decodes machine i's section of the fleet partitioned by src into
// the per-vertex image.
func (m *Matcher) readShard(d *snapshot.Decoder, i int, src mpc.Partition, match []int, adj []map[int]int) error {
	hasShard, err := snapshot.ReadShardHeader(d, tagMatcherShard, i, src)
	if err != nil || !hasShard {
		return err
	}
	lo, hi, err := snapshot.ReadShardRange(d, i, src)
	if err != nil {
		return err
	}
	shardMatch := d.Ints()
	if err := d.Err(); err != nil {
		return err
	}
	if len(shardMatch) != hi-lo {
		return fmt.Errorf("nowickionak: snapshot shard %d has %d match entries, want %d", i, len(shardMatch), hi-lo)
	}
	for _, p := range shardMatch {
		if p < -1 || p >= m.n {
			return fmt.Errorf("nowickionak: snapshot shard %d holds invalid match partner %d", i, p)
		}
	}
	copy(match[lo:hi], shardMatch)
	for v := lo; v < hi; v++ {
		cnt := d.Count(2)
		a := make(map[int]int, cnt)
		for j := 0; j < cnt && d.Err() == nil; j++ {
			o := d.Int()
			mult := d.Int()
			if o < 0 || o >= m.n || mult <= 0 {
				return fmt.Errorf("nowickionak: snapshot shard %d vertex %d holds invalid adjacency (%d, ×%d)", i, v, o, mult)
			}
			a[o] = mult
		}
		adj[v] = a
	}
	return d.Err()
}
