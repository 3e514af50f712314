package sketchtest_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/sketch"
	"repro/internal/sketch/sketchtest"
	"repro/internal/workload"
)

// pairedSketches is a vertex's sketch on both representations: the flat
// arena view under test and the pointer-based reference oracle.
type paired struct {
	space    *sketch.Space
	refSpace *sketchtest.RefSpace
	arena    *sketch.Arena
	refs     []*sketchtest.RefSketch
	n        int
}

// newPaired builds equal-seeded spaces (so both define the same sampler)
// and one sketch per vertex on each path.
func newPaired(n, copies int, seed uint64) *paired {
	p := &paired{
		space:    sketch.NewSpace(graph.IDSpace(n), copies, hash.NewPRG(seed)),
		refSpace: sketchtest.NewRefSpace(graph.IDSpace(n), copies, hash.NewPRG(seed)),
		n:        n,
	}
	p.arena = p.space.NewArena(n)
	p.refs = make([]*sketchtest.RefSketch, n)
	for v := range p.refs {
		p.refs[v] = p.refSpace.NewSketch()
	}
	return p
}

// apply mirrors one edge update into the incidence sketches of both
// endpoints on both paths.
func (p *paired) apply(u graph.Update) {
	e := u.Edge.Canonical()
	for _, v := range []int{e.U, e.V} {
		delta := sketch.EdgeSign(v, e)
		if u.Op == graph.Delete {
			delta = -delta
		}
		p.arena.At(v).Update(e.ID(p.n), delta)
		p.refs[v].Update(e.ID(p.n), delta)
	}
}

// compareAll queries every vertex sketch on every copy and fails on the
// first diverging QueryResult or recovered index.
func (p *paired) compareAll(t *testing.T, context string) {
	t.Helper()
	for v := 0; v < p.n; v++ {
		for c := 0; c < p.space.Copies(); c++ {
			gotIdx, gotRes := p.arena.At(v).Query(c)
			wantIdx, wantRes := p.refs[v].Query(c)
			if gotRes != wantRes || (gotRes == sketch.Found && gotIdx != wantIdx) {
				t.Fatalf("%s: vertex %d copy %d: arena (%d, %v) != reference (%d, %v)",
					context, v, c, gotIdx, gotRes, wantIdx, wantRes)
			}
		}
	}
}

// comparePrefixSums merges vertex sketches 0..k on both paths (Add on a
// growing accumulator, the replacement-search merge pattern) and compares
// every query outcome of the running sums.
func (p *paired) comparePrefixSums(t *testing.T, context string) {
	t.Helper()
	acc := p.space.ScratchCopy(p.arena.At(0))
	defer p.space.Release(acc)
	refAcc := p.refs[0].Clone()
	for v := 1; v < p.n; v++ {
		acc.Add(p.arena.At(v))
		refAcc.Add(p.refs[v])
		for c := 0; c < p.space.Copies(); c++ {
			gotIdx, gotRes := acc.Query(c)
			wantIdx, wantRes := refAcc.Query(c)
			if gotRes != wantRes || (gotRes == sketch.Found && gotIdx != wantIdx) {
				t.Fatalf("%s: prefix sum 0..%d copy %d: arena (%d, %v) != reference (%d, %v)",
					context, v, c, gotIdx, gotRes, wantIdx, wantRes)
			}
		}
	}
}

// TestArenaMatchesReferenceAcrossScenarios drives the incidence sketches of
// every vertex through the update streams of every registered scenario
// generator and asserts that the flat arena path and the pointer-based
// reference path return identical QueryResults — per vertex after every
// batch, and along merged prefix sums (the Add path) at the end of the
// stream.
func TestArenaMatchesReferenceAcrossScenarios(t *testing.T) {
	const (
		n       = 24
		copies  = 5
		batches = 6
		k       = 12
	)
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			sc, err := workload.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{3, 17} {
				p := newPaired(n, copies, seed^0xbeef)
				stream := workload.Record(sc.New(n, seed), batches, k)
				for bi, b := range stream {
					for _, u := range b {
						p.apply(u)
					}
					p.compareAll(t, sc.Name)
					_ = bi
				}
				p.comparePrefixSums(t, sc.Name)
			}
		})
	}
}

// TestRandomOpsEquivalence hammers both representations with the same
// randomized Update/Add/Query sequence over a small set of standalone
// sketches: whatever cell states the sequence produces (including vectors
// outside the ±1 regime after sums), the two paths must stay cell-for-cell
// equivalent, hence query-for-query identical.
func TestRandomOpsEquivalence(t *testing.T) {
	const (
		idSpace = 1 << 9
		copies  = 4
		sketchN = 4
		ops     = 3000
	)
	for _, seed := range []uint64{1, 2, 42} {
		space := sketch.NewSpace(idSpace, copies, hash.NewPRG(seed))
		refSpace := sketchtest.NewRefSpace(idSpace, copies, hash.NewPRG(seed))
		flat := make([]sketch.Sketch, sketchN)
		refs := make([]*sketchtest.RefSketch, sketchN)
		for i := range flat {
			flat[i] = space.NewSketch()
			refs[i] = refSpace.NewSketch()
		}
		prg := hash.NewPRG(seed * 7)
		for op := 0; op < ops; op++ {
			i := int(prg.NextN(sketchN))
			switch prg.NextN(4) {
			case 0, 1: // update
				idx := prg.NextN(idSpace)
				delta := 1
				if prg.Next()&1 == 0 {
					delta = -1
				}
				flat[i].Update(idx, delta)
				refs[i].Update(idx, delta)
			case 2: // add another sketch in
				j := int(prg.NextN(sketchN))
				if j == i {
					break
				}
				flat[i].Add(flat[j])
				refs[i].Add(refs[j])
			case 3: // sum into a pooled scratch and query it
				j := int(prg.NextN(sketchN))
				s := space.ScratchCopy(flat[i])
				s.Add(flat[j])
				r := refs[i].Clone()
				r.Add(refs[j])
				c := int(prg.NextN(copies))
				gotIdx, gotRes := s.Query(c)
				wantIdx, wantRes := r.Query(c)
				space.Release(s)
				if gotRes != wantRes || (gotRes == sketch.Found && gotIdx != wantIdx) {
					t.Fatalf("seed %d op %d: scratch sum query: arena (%d, %v) != reference (%d, %v)",
						seed, op, gotIdx, gotRes, wantIdx, wantRes)
				}
			}
			c := int(prg.NextN(copies))
			gotIdx, gotRes := flat[i].Query(c)
			wantIdx, wantRes := refs[i].Query(c)
			if gotRes != wantRes || (gotRes == sketch.Found && gotIdx != wantIdx) {
				t.Fatalf("seed %d op %d: sketch %d copy %d: arena (%d, %v) != reference (%d, %v)",
					seed, op, i, c, gotIdx, gotRes, wantIdx, wantRes)
			}
		}
	}
}
