package nowickionak

// Checkpoint/restore of the maximal-matching state (see package snapshot).
// A checkpoint is one section of logical state: the conflict-retry counter,
// the cached size readout, the cluster metrics, then the match column and
// every vertex's adjacency multiset, both in vertex order. It records nothing
// of the placement that wrote it, so a restore installs it under whatever
// fleet the constructor built.

import (
	"fmt"
	"sort"

	"repro/internal/mpc"
	"repro/internal/snapshot"
)

// Section tags of the nowickionak layer. 0x40–0x41 were the per-machine
// layout and stay retired: a file holding them is rejected by tag, never
// migrated.
const tagMatcher = 0x42

// Checkpoint serializes the matcher state. Adjacency maps are emitted in
// sorted neighbor order so a checkpoint is a deterministic function of the
// logical state.
func (m *Matcher) Checkpoint(e *snapshot.Encoder) {
	e.Begin(tagMatcher)
	e.Int(m.n)
	e.Int(m.retryRounds)
	e.Int(m.size)
	e.Bool(m.sizeOK)
	snapshot.EncodeClusterStats(e, m.cl.Stats())
	e.Int(m.n)
	for i := 0; i < m.coord; i++ { // the vertex machines, in vertex order
		for _, p := range getShard(m.cl.Machine(i)).match {
			e.Int(p)
		}
	}
	for i := 0; i < m.coord; i++ {
		for _, adj := range getShard(m.cl.Machine(i)).adj {
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
// scheme). The columns are validated — configuration, partners, adjacency,
// and each target machine's memory budget — before they are installed under
// this instance's partition, so every rejection leaves the matcher untouched.
func (m *Matcher) Restore(d *snapshot.Decoder) error {
	d.Begin(tagMatcher)
	n := d.Int()
	retryRounds, size, sizeOK := d.Int(), d.Int(), d.Bool()
	st := snapshot.DecodeClusterStats(d)
	match := d.Ints()
	if err := d.Err(); err != nil {
		return err
	}
	if n != m.n {
		return fmt.Errorf("nowickionak: snapshot of N=%d restored into N=%d", n, m.n)
	}
	if len(match) != n {
		return fmt.Errorf("nowickionak: snapshot match column of %d entries, want %d", len(match), n)
	}
	for v, p := range match {
		if p < -1 || p >= n {
			return fmt.Errorf("nowickionak: snapshot gives vertex %d invalid match partner %d", v, p)
		}
	}
	adj := make([]map[int]int, n)
	for v := range adj {
		cnt := d.Count(2)
		adj[v] = make(map[int]int, cnt)
		for j, prev := 0, -1; j < cnt; j++ {
			o, mult := d.Int(), d.Int()
			if o <= prev || o >= n || mult <= 0 {
				return fmt.Errorf("nowickionak: snapshot vertex %d holds invalid adjacency (%d, ×%d)", v, o, mult)
			}
			adj[v][o], prev = mult, o
		}
	}
	if err := d.Err(); err != nil {
		return err
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
