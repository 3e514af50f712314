package nowickionak

// Checkpoint/restore of the maximal-matching state (see package snapshot).
// A checkpoint is one section of logical state: the conflict-retry counter,
// the cached size readout, the cluster metrics, then the match column and
// every vertex's adjacency multiset, both in vertex order. It records nothing
// of the placement that wrote it, so a restore installs it under whatever
// fleet the constructor built.

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/mpc"
	"repro/internal/snapshot"
)

// Section tags of the nowickionak layer. 0x40–0x41 were the per-machine
// layout and stay retired: a file holding them is rejected by tag, never
// migrated.
const tagMatcher = 0x42

// image declares the matcher's full image. Each vertex's adjacency is a
// table of (neighbour, multiplicity) entries in neighbour order; the install
// sets each shard's adjacency meter to the words its tables decoded to, which
// is also what the cap check counts for it.
func (m *Matcher) image() *snapshot.Image {
	sizeOK := snapshot.Scalar("size cached", &m.sizeOK)
	parts := []snapshot.Part{
		snapshot.Echo("N", m.n), snapshot.Scalar("retry rounds", &m.retryRounds), snapshot.Scalar("size", &m.size), sizeOK,
		snapshot.Stats(m.cl),
		&snapshot.Column{Name: "match", Part: m.part, Layout: snapshot.Layout{Width: 1, Fields: []snapshot.Field{{Name: "partner", Lo: -1, Hi: m.n}}},
			Ints: func(i int) []int { return getShard(m.cl.Machine(i)).match }},
	}
	entry := snapshot.Layout{Width: 2, Key: 1, Order: "neighbour", Fields: []snapshot.Field{{Name: "neighbour", Hi: m.n}, {Name: "multiplicity", Lo: 1, Hi: math.MaxInt}}}
	adj := make([]*snapshot.Table, m.n)
	for i := range m.part.Machines {
		sh := getShard(m.cl.Machine(i))
		for j, a := range sh.adj {
			keys := slices.Sorted(maps.Keys(a))
			adj[sh.lo+j] = &snapshot.Table{Name: fmt.Sprintf("adjacency of vertex %d", sh.lo+j), Layout: entry, Len: len(keys),
				Row: func(r int, row []uint64) { row[0], row[1] = uint64(keys[r]), uint64(a[keys[r]]) }}
			parts = append(parts, adj[sh.lo+j])
		}
	}
	words := func(lo, hi int) (k int) {
		for _, t := range adj[lo:hi] {
			k += t.Rows() * t.Width
		}
		return k
	}
	return &snapshot.Image{
		Pkg:      "nowickionak",
		Cluster:  m.cl,
		Sections: []snapshot.Section{{Tag: tagMatcher, Parts: parts}},
		Staged: func(i int, slot string) mpc.Sized {
			switch slot {
			case slotShard:
				lo, hi := m.part.Range(i)
				return &shard{lo: lo, hi: hi, words: words(lo, hi)}
			case slotSize:
				return sizeMeter{&sizeOK.Val}
			}
			return nil
		},
		Install: func() {
			for i := range m.part.Machines {
				sh := getShard(m.cl.Machine(i))
				for j := range sh.adj {
					t := adj[sh.lo+j]
					sh.adj[j] = make(map[int]int, t.Rows())
					for r := range t.Rows() {
						sh.adj[j][int(t.At(r)[0])] = int(t.At(r)[1])
					}
				}
				sh.words = words(sh.lo, sh.hi)
			}
		},
	}
}

// Checkpoint serializes the matcher state. Adjacency maps are emitted in
// sorted neighbour order so a checkpoint is a deterministic function of the
// logical state.
func (m *Matcher) Checkpoint(e *snapshot.Encoder) { m.image().Encode(e) }

// Restore loads a checkpoint written by Checkpoint, at any machine count,
// into this freshly constructed matcher. The columns are validated —
// configuration, partners, adjacency, and each target machine's memory
// budget — before they are installed under this instance's partition, so
// every rejection leaves the matcher untouched.
func (m *Matcher) Restore(d *snapshot.Decoder) error { return m.image().Load(d) }
