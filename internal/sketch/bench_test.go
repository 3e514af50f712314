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

// BenchmarkSketchUpdateArena updates random vertices of a 4096-vertex,
// t = 32 arena (54 MB): the shape of a shard applying a batch, where every
// copy's level-0 cell is a cache miss. Its 0 allocs/op holds the update's
// stack arrays on the stack.
func BenchmarkSketchUpdateArena(b *testing.B) {
	const n, slots = 4096, 4096
	arena := sketch.NewGraphSpace(n, 32, hash.NewPRG(42)).NewArena(slots)
	prg := hash.NewPRG(5)
	var vs [1024]int
	var ids [1024]uint64
	for i := range vs {
		u, v := int(prg.NextN(n)), int(prg.NextN(n-1))
		if v >= u {
			v++
		}
		vs[i], ids[i] = u, graph.NewEdge(u, v).ID(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(vs)
		arena.At(vs[j]).Update(ids[j], +1)
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

// BenchmarkAddIncidence sums a degree-16 list vertex into an 8-copy window
// of a 4096-vertex, t = 32 space: the shape of a search summing a list
// vertex's window (serve-window's). Its 0 allocs/op holds the kernel's
// stack arrays on the stack.
func BenchmarkAddIncidence(b *testing.B) {
	const n, v, deg = 4096, 1000, 16
	space := sketch.NewGraphSpace(n, 32, hash.NewPRG(42))
	ids := make([]uint64, deg)
	for i := range ids {
		ids[i] = graph.NewEdge(v, (v+1+251*i)%n).ID(n) // neighbours above and below v
	}
	dst := space.NewSketch().Window(8, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.AddIncidence(n, v, ids)
	}
}
