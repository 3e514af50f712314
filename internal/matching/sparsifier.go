package matching

import (
	"cmp"
	"slices"

	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/mpc"
	"repro/internal/nowickionak"
	"repro/internal/sketch"
)

// pairKey identifies one group pair of a sparsifier.
type pairKey struct{ i, j int }

// frameKey orders pairs (by i, then j) as the first word of a frame.
func (p pairKey) frameKey() uint64 { return uint64(p.i)<<32 | uint64(p.j) }

// pairState is one pair's ℓ0-sampler and its last reported outcome.
type pairState struct {
	sk      sketch.Sketch
	outcome graph.Edge
	has     bool
}

// sparsifierShard stores the pair samplers assigned to one machine.
type sparsifierShard struct {
	pairs map[pairKey]*pairState
	perSk int
}

// Words implements mpc.Sized.
func (s *sparsifierShard) Words() int { return len(s.pairs) * (s.perSk + 3) }

// sparsifier is the shared machinery of Theorems 8.2 and 8.6: a set of
// group pairs, one linear ℓ0-sampler per pair over the edge-id space, and a
// batch-dynamic maximal matching (package nowickionak) maintained on the
// graph H formed by the samplers' outcomes. Updating a batch costs O(1)
// collective rounds (one Ask: local sampler updates, outcome diffs back)
// plus the matcher's batch.
type sparsifier struct {
	n        int
	cl       *mpc.Cluster
	coord    int
	mach     int
	classify func(graph.Edge) (pairKey, bool)
	matcher  *nowickionak.Matcher
}

// newSparsifier builds the distributed sampler state for the given pairs.
func newSparsifier(
	n int,
	pairs []pairKey,
	classify func(graph.Edge) (pairKey, bool),
	prg *hash.PRG,
	matcherCfg nowickionak.Config,
) (*sparsifier, error) {
	space := sketch.NewSpace(graph.IDSpace(n), 6, prg)
	const mach = 9
	perMachine := (len(pairs)/(mach-1) + 2) * (space.SketchWords() + 16)
	sp := &sparsifier{
		n:        n,
		cl:       mpc.NewCluster(mpc.Config{Machines: mach, LocalMemory: perMachine + 4096}),
		coord:    mach - 1,
		mach:     mach,
		classify: classify,
	}
	matcher, err := nowickionak.New(matcherCfg)
	if err != nil {
		return nil, err
	}
	sp.matcher = matcher
	owner := func(p pairKey) int { return (p.i*31 + p.j*17 + 7) % (mach - 1) }
	sp.cl.LocalAll(func(mm *mpc.Machine) {
		if mm.ID == sp.coord {
			return
		}
		sh := &sparsifierShard{pairs: map[pairKey]*pairState{}, perSk: space.SketchWords()}
		for _, p := range pairs {
			if owner(p) == mm.ID {
				if _, dup := sh.pairs[p]; !dup {
					sh.pairs[p] = &pairState{sk: space.NewSketch()}
				}
			}
		}
		mm.Set(slotShard, sh)
	})
	return sp, nil
}

// batchPayload carries an update batch to the samplers.
type batchPayload struct{ b graph.Batch }

func (p batchPayload) Words() int { return 3 * len(p.b) }

// applyBatch updates the pair samplers, re-queries the touched ones, and
// forwards the outcome changes to the maximal matching on H as deletions
// plus insertions (the X and Y sets of Theorem 8.2's proof). One Ask: every
// shard applies the batch to its samplers and answers one
// [pair, hadOld, old edge id, hasNew, new edge id] frame per pair whose
// outcome changed, sorted by pair (a pair lives on one machine).
func (sp *sparsifier) applyBatch(b graph.Batch) error {
	res := sp.cl.Ask(sp.coord, batchPayload{b: b}, func(mm *mpc.Machine, payload mpc.Sized) *mpc.MessageBatch {
		sh, ok := mm.Get(slotShard).(*sparsifierShard)
		if !ok {
			return nil
		}
		var touched []pairKey
		for _, u := range payload.(batchPayload).b {
			e := u.Edge.Canonical()
			p, ok := sp.classify(e)
			if !ok {
				continue
			}
			st, mine := sh.pairs[p]
			if !mine {
				continue
			}
			delta := 1
			if u.Op == graph.Delete {
				delta = -1
			}
			st.sk.Update(e.ID(sp.n), delta)
			touched = append(touched, p)
		}
		slices.SortFunc(touched, func(a, b pairKey) int { return cmp.Compare(a.frameKey(), b.frameKey()) })
		out := mpc.AcquireMessageBatch()
		for _, p := range slices.Compact(touched) {
			st := sh.pairs[p]
			oldEdge, hadOld := st.outcome, st.has
			if id, res := st.sk.QueryAny(0); res == sketch.Found {
				st.outcome, st.has = graph.EdgeFromID(id, sp.n), true
			} else {
				st.outcome, st.has = graph.Edge{}, false
			}
			if hadOld == st.has && oldEdge == st.outcome {
				continue
			}
			fr := out.Grow(5)
			fr[0] = p.frameKey()
			if hadOld {
				fr[1], fr[2] = 1, oldEdge.ID(sp.n)
			}
			if st.has {
				fr[3], fr[4] = 1, st.outcome.ID(sp.n)
			}
		}
		return out
	}, mpc.KeepFirst)
	var hBatch graph.Batch
	if res != nil {
		for fr := range res.Frames {
			if fr[1] == 1 {
				hBatch = append(hBatch, graph.Update{Op: graph.Delete, Edge: graph.EdgeFromID(fr[2], sp.n)})
			}
			if fr[3] == 1 {
				hBatch = append(hBatch, graph.Update{Op: graph.Insert, Edge: graph.EdgeFromID(fr[4], sp.n)})
			}
		}
		res.Release()
	}
	return sp.matcher.ApplyBatch(hBatch)
}

// peakWords reports the sparsifier's peak total memory.
func (sp *sparsifier) peakWords() int { return sp.cl.Stats().PeakTotalWords }
