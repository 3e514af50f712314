package sketch_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/sketch"
)

// The sketch benchmarks are pinned in BENCH_sketch.json (see
// scripts/benchdiff.go and the CI gate): allocs/op and B/op hold the
// zero-allocation contract of the arena representation.

func benchSpace(b *testing.B) (*sketch.Space, *sketch.Arena) {
	b.Helper()
	space := sketch.NewGraphSpace(256, 12, hash.NewPRG(42))
	return space, space.NewArena(64)
}

func BenchmarkSketchUpdate(b *testing.B) {
	_, arena := benchSpace(b)
	sk := arena.At(7)
	e := graph.NewEdge(3, 200)
	idx := e.ID(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Update(idx, +1)
		sk.Update(idx, -1)
	}
}

func BenchmarkSketchAdd(b *testing.B) {
	_, arena := benchSpace(b)
	dst, src := arena.At(0), arena.At(1)
	for v := 0; v < 32; v++ {
		src.Update(graph.NewEdge(v, v+1).ID(256), +1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Add(src)
	}
}

func BenchmarkSketchQuery(b *testing.B) {
	space, arena := benchSpace(b)
	sk := arena.At(2)
	for v := 0; v < 24; v++ {
		sk.Update(graph.NewEdge(v, v+100).ID(256), +1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < space.Copies(); c++ {
			sk.Query(c)
		}
	}
}

func BenchmarkSketchScratchMerge(b *testing.B) {
	// The pooled transient-merge pattern of the recovery paths: scratch
	// copy, fold four sketches, query, release.
	space, arena := benchSpace(b)
	for v := 0; v < 4; v++ {
		arena.At(v).Update(graph.NewEdge(v, v+50).ID(256), +1)
	}
	// Fill the pool first: its per-P table and first buffer are one-time
	// costs that scale with GOMAXPROCS, not part of the pinned pattern.
	space.Release(space.ScratchCopy(arena.At(0)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := space.ScratchCopy(arena.At(0))
		for v := 1; v < 4; v++ {
			s.Add(arena.At(v))
		}
		s.QueryAny(0)
		space.Release(s)
	}
}
