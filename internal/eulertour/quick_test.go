package eulertour

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hash"
)

// TestQuickRelabelSetDisjointCoverage: for randomly generated disjoint
// descriptor sets, Map must move exactly the covered positions, each by the
// descriptor whose interval holds it, and leave every position of another
// tour where it is.
func TestQuickRelabelSetDisjointCoverage(t *testing.T) {
	prg := hash.NewPRG(1)
	f := func(seed uint64) bool {
		local := hash.NewPRG(seed ^ prg.Next())
		// Build 1..6 disjoint intervals over [1, 200].
		var rs []Relabel
		pos := Pos(1)
		for i := 0; i < int(local.NextN(6))+1 && pos < 190; i++ {
			lo := pos + Pos(local.NextN(10))
			hi := lo + Pos(local.NextN(15))
			if hi > 200 {
				hi = 200
			}
			rs = append(rs, Relabel{
				OldTour: 1, Lo: lo, Hi: hi,
				NewTour: TourID(2 + local.NextN(3)),
				Delta:   int(local.NextN(40)) - 20,
			})
			pos = hi + 1 + Pos(local.NextN(5))
		}
		set := NewRelabelSet(rs).Applier()
		for p := Pos(1); p <= 200; p++ {
			inSome := false
			for _, r := range rs {
				if p >= r.Lo && p <= r.Hi {
					inSome = true
					tr, np := set.Map(1, p)
					if tr != r.NewTour || np != p+r.Delta {
						return false
					}
				}
			}
			if !inSome {
				if tr, np := set.Map(1, p); tr != 1 || np != p {
					return false
				}
			}
			// Positions of other tours are never touched.
			if tr, np := set.Map(9, p); tr != 9 || np != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickJoinSplitInverse: joining a random batch of edges and then
// cutting the same edges must restore the original component structure, for
// arbitrary seeds.
func TestQuickJoinSplitInverse(t *testing.T) {
	f := func(seed uint64) bool {
		const n = 20
		prg := hash.NewPRG(seed)
		h := newHost(n)
		// Phase 1: build a random forest.
		for v := 1; v < n; v++ {
			if prg.Next()&1 == 0 {
				u := int(prg.NextN(uint64(v)))
				if err := h.insertBatch([]graph.Edge{graph.NewEdge(u, v)}); err != nil {
					return false
				}
			}
		}
		before, _ := h.components()
		// Phase 2: join a batch of cross-component edges.
		labels, uf := h.components()
		var batch []graph.Edge
		for attempts := 0; attempts < 50 && len(batch) < 4; attempts++ {
			u := int(prg.NextN(n))
			v := int(prg.NextN(n))
			if u == v || labels[u] == labels[v] || uf.Find(u) == uf.Find(v) {
				continue
			}
			uf.Union(u, v)
			batch = append(batch, graph.NewEdge(u, v))
		}
		if len(batch) == 0 {
			return true
		}
		if err := h.insertBatch(batch); err != nil {
			return false
		}
		// Phase 3: cut the same edges; components must match phase 1.
		if err := h.deleteBatch(batch); err != nil {
			return false
		}
		after, _ := h.components()
		for v := range before {
			if before[v] != after[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickRecordChildConsistency: for any valid record layout, the child's
// interval is strictly inside the parent's.
func TestQuickRecordChildConsistency(t *testing.T) {
	f := func(gapRaw, lenRaw uint8) bool {
		gap := Pos(gapRaw%50) + 1
		inner := Pos(lenRaw % 40)
		// Construct darts (p, p+1) and (q, q+1) with q = p+1+inner+1.
		p := gap
		q := p + 2 + inner
		r := Record{
			E: graph.NewEdge(0, 1), Tour: 1,
			UPos: [2]Pos{p, q + 1},
			VPos: [2]Pos{p + 1, q},
		}
		if err := r.Validate(); err != nil {
			return false
		}
		if r.Child() != 1 || r.Parent() != 0 {
			return false
		}
		return r.ChildF() == p+1 && r.ChildL() == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
