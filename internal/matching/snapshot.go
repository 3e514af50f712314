package matching

// Checkpoint/restore of the matching algorithms (see package snapshot).
// GreedyInsertOnly serializes its match column in vertex order and its
// coordinator counter — no placement, so it loads onto any fleet size;
// AKLYDynamic serializes, per guess instance, every pair sampler's sketch
// cells and last reported outcome, one table per machine of the sparsifier's
// fixed fleet, plus the embedded nowickionak matcher. Hash families and the
// active-pair layout are rederived from the construction seed, so they are
// validated structurally, not serialized.

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"repro/internal/mpc"
	"repro/internal/sketch"
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

// image declares the greedy matching's full image: n, the cap, the size
// counter, the cluster stats, then the match column in vertex order.
func (g *GreedyInsertOnly) image() *snapshot.Image {
	match := &snapshot.Column{Name: "match", Part: g.part, Layout: snapshot.Layout{Width: 1, Fields: []snapshot.Field{{Name: "partner", Lo: -1, Hi: g.n}}},
		Ints: func(i int) []int { return g.cl.Machine(i).Get(slotShard).(*greedyShard).match }}
	return &snapshot.Image{Pkg: "matching", Cluster: g.cl, Sections: []snapshot.Section{{Tag: tagGreedy, Parts: []snapshot.Part{
		snapshot.Echo("n", g.n), snapshot.Echo("cap", g.cap), snapshot.Scalar("size", &g.size), snapshot.Stats(g.cl), match,
	}}}}
}

// Checkpoint serializes the greedy matching state (image).
func (g *GreedyInsertOnly) Checkpoint(e *snapshot.Encoder) { g.image().Encode(e) }

// Restore loads a checkpoint written by Checkpoint, at any machine count,
// into this freshly constructed instance: the match column is installed onto
// this instance's contiguous vertex ranges; the cap and size are coordinator
// state. Validation (n, cap, partner ranges) completes before any state is
// touched.
func (g *GreedyInsertOnly) Restore(d *snapshot.Decoder) error { return g.image().Load(d) }

// image is the AKLY structure's own section, the configuration its guess
// instances were built from, and then every guess instance: the
// sparsifier's pair samplers and the embedded maximal matcher.
func (a *AKLYDynamic) image() *snapshot.Image {
	img := &snapshot.Image{Pkg: "matching", Sections: []snapshot.Section{{Tag: tagAKLY, Parts: []snapshot.Part{
		snapshot.Echo("n", a.n), snapshot.Echo("alpha", a.alpha), snapshot.Echo("guess instances", len(a.instances)),
	}}}}
	for _, inst := range a.instances {
		img.Then = append(img.Then, inst.sp, inst.sp.matcher)
	}
	return img
}

// Checkpoint serializes every guess instance (image).
func (a *AKLYDynamic) Checkpoint(e *snapshot.Encoder) { a.image().Encode(e) }

// Restore loads a checkpoint written by Checkpoint. The instance must have
// been built with the same n, alpha, and seed, so that the rederived hash
// families and active-pair layouts match; structural disagreements are
// rejected. The embedded matchers may run on a fleet of any size: each
// installs its columns under its own placement. On error the instance must
// be discarded.
func (a *AKLYDynamic) Restore(d *snapshot.Decoder) error { return a.image().Load(d) }

// Checkpoint serializes the sparsifier's pair samplers (image).
func (sp *sparsifier) Checkpoint(e *snapshot.Encoder) { sp.image().Encode(e) }

// Restore loads what Checkpoint wrote into the rederived layout.
func (sp *sparsifier) Restore(d *snapshot.Decoder) error { return sp.image().Load(d) }

// image declares the sparsifier's image: n, the machine count, the cluster
// stats, then per machine of its fixed fleet whether it holds samplers and,
// if so, how many pairs, and each pair in pair order — the pair, its last
// outcome and its sketch cells, each a field element (sketch.CheckCells).
// The pairs are echoes: they are rederived from the seed, so a load must
// find exactly this machine's pairs in this order.
func (sp *sparsifier) image() *snapshot.Image {
	parts := []snapshot.Part{snapshot.Echo("n", sp.n), snapshot.Echo("machines", sp.cl.Machines()), snapshot.Stats(sp.cl)}
	for i := range sp.cl.Machines() {
		sh, ok := sp.cl.Machine(i).Get(slotShard).(*sparsifierShard)
		parts = append(parts, snapshot.Echo(fmt.Sprintf("samplers on machine %d", i), ok))
		if !ok {
			continue
		}
		keys := slices.SortedFunc(maps.Keys(sh.pairs), func(a, b pairKey) int { return cmp.Or(cmp.Compare(a.i, b.i), cmp.Compare(a.j, b.j)) })
		parts = append(parts, snapshot.Echo(fmt.Sprintf("pairs on machine %d", i), len(keys)))
		for r, p := range keys {
			st, at := sh.pairs[p], fmt.Sprintf("machine %d pair %d ", i, r)
			parts = append(parts, snapshot.Echo(at+"i", p.i), snapshot.Echo(at+"j", p.j),
				snapshot.Scalar(at+"u", &st.outcome.U), snapshot.Scalar(at+"v", &st.outcome.V), snapshot.Scalar(at+"has", &st.has),
				&snapshot.Column{Name: at + "sketch", Part: mpc.Partition{N: 1, Machines: 1}, Layout: snapshot.Layout{Width: sh.perSk, Rest: sketch.CheckCells},
					Words: func(int) []uint64 { return st.sk.Cells() }})
		}
	}
	return &snapshot.Image{Pkg: "matching", Cluster: sp.cl, Sections: []snapshot.Section{{Tag: tagSparsifier, Parts: parts}}}
}
