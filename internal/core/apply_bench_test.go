package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/workload"
)

// BenchmarkDeleteTreeEdgesGiant is the micro form of the churn workloads'
// hot path; BENCH_sketch.json pins its allocs/op and B/op, and its time is
// what serve-window and recover-churn measure in `go run ./bench`. One
// connected graph on 1024 vertices at φ = 0.6, and per op a batch that
// deletes MaxBatch()/2 tree edges of the giant component (cut, sketch
// aggregation, replacement search, re-link) followed by a batch that puts
// them back. Every cut is inside the one component, so what an op costs is
// set by how much of that component the search touches.
func BenchmarkDeleteTreeEdgesGiant(b *testing.B) {
	const n = 1024
	dc, err := core.NewDynamicConnectivity(core.Config{N: n, Phi: 0.6, Seed: 31})
	if err != nil {
		b.Fatal(err)
	}
	// A random spanning tree plus 2n random chords: connected, and nearly
	// every tree edge has a replacement.
	prg := hash.NewPRG(32)
	var edges []graph.Edge
	seen := map[graph.Edge]bool{}
	add := func(u, v int) {
		if u == v {
			return
		}
		if e := graph.NewEdge(u, v); !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	for v := 1; v < n; v++ {
		add(int(prg.NextN(uint64(v))), v)
	}
	for len(edges) < 3*n {
		add(int(prg.NextN(n)), int(prg.NextN(n)))
	}
	if _, err := dc.Bootstrap(edges); err != nil {
		b.Fatal(err)
	}
	k := dc.MaxBatch() / 2
	del, ins := make(graph.Batch, k), make(graph.Batch, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		forest := dc.SnapshotForest()
		for j := range del {
			e := forest[(j*len(forest)/k+i)%len(forest)]
			del[j], ins[j] = graph.Del(e.U, e.V), graph.Ins(e.U, e.V)
		}
		b.StartTimer()
		if err := dc.ApplyBatch(del); err != nil {
			b.Fatal(err)
		}
		if err := dc.ApplyBatch(ins); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if dc.NumComponents() != 1 {
		b.Fatalf("%d components after the run, want the one it started with", dc.NumComponents())
	}
	if st := dc.SearchStats(); st.Exhausted != 0 {
		b.Fatalf("%d of %d searches exhausted", st.Exhausted, st.Searches)
	}
}

// BenchmarkApplyInsertOnly is the micro form of ingest-grow's hot path: per
// op one batch of 256 insertions of edges never seen before on 4096 vertices
// at φ = 0.75, most of them closing cycles, so an op is the batch's label
// lookup, its few Links and the insertion of 512 edge ids into their
// endpoints' lists. BENCH_sketch.json pins its allocs/op and B/op.
func BenchmarkApplyInsertOnly(b *testing.B) {
	const n, size = 4096, 256
	dc, err := core.NewDynamicConnectivity(core.Config{N: n, Phi: 0.75, Seed: 41})
	if err != nil {
		b.Fatal(err)
	}
	if dc.MaxBatch() < size {
		b.Fatalf("MaxBatch %d below the batch of %d", dc.MaxBatch(), size)
	}
	prg := hash.NewPRG(42)
	seen := map[graph.Edge]bool{}
	next := func() graph.Batch {
		batch := make(graph.Batch, 0, size)
		for len(batch) < size {
			u, v := int(prg.NextN(n)), int(prg.NextN(n))
			if e := (graph.Edge{U: min(u, v), V: max(u, v)}); u != v && !seen[e] {
				seen[e] = true
				batch = append(batch, graph.Ins(u, v))
			}
		}
		return batch
	}
	// Warm the instance to a connected graph of 4n edges first, so the
	// measured batches are the steady state.
	for range 4 * n / size {
		if err := dc.ApplyBatch(next()); err != nil {
			b.Fatal(err)
		}
	}
	batches := make([]graph.Batch, b.N)
	for i := range batches {
		batches[i] = next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, batch := range batches {
		if err := dc.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyPromotedHub is the micro form of a promoted vertex's update
// path: a path through 4096 vertices at φ = 0.75 and a hub, vertex 0, joined
// to every other vertex, far past the S words at which a vertex's edge list
// is promoted to a sketch. Every hub edge but {0,1} closes a cycle, so per
// op a batch deletes 256 of those chords and a second puts them back: no
// search, and each update is a list edit at the far endpoint and a ±1
// coordinate of the hub's sketch (sketch.Sketch.Update). BENCH_sketch.json
// pins its allocs/op and B/op.
func BenchmarkApplyPromotedHub(b *testing.B) {
	const n, size = 4096, 256
	dc, err := core.NewDynamicConnectivity(core.Config{N: n, Phi: 0.75, Seed: 51})
	if err != nil {
		b.Fatal(err)
	}
	if dc.MaxBatch() < size {
		b.Fatalf("MaxBatch %d below the batch of %d", dc.MaxBatch(), size)
	}
	var edges []graph.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, graph.NewEdge(v-1, v))
	}
	for v := 2; v < n; v++ {
		edges = append(edges, graph.NewEdge(0, v))
	}
	if _, err := dc.Bootstrap(edges); err != nil {
		b.Fatal(err)
	}
	del, ins := make(graph.Batch, size), make(graph.Batch, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range del {
			v := 2 + (i*size+j)%(n-2)
			del[j], ins[j] = graph.Del(0, v), graph.Ins(0, v)
		}
		if err := dc.ApplyBatch(del); err != nil {
			b.Fatal(err)
		}
		if err := dc.ApplyBatch(ins); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if dc.NumComponents() != 1 {
		b.Fatalf("%d components after the run, want 1", dc.NumComponents())
	}
}

// BenchmarkBootstrap is the micro form of recover-churn's setup: per op a
// fresh instance at n = 4096, φ = 0.5 (built off the clock) loads the 16,384
// edges of a powerlaw stream with Bootstrap. BENCH_sketch.json pins its
// allocs/op and B/op.
func BenchmarkBootstrap(b *testing.B) {
	const n = 4096
	cfg := core.Config{N: n, Phi: 0.5, Seed: 1}
	sc, err := workload.Get("powerlaw")
	if err != nil {
		b.Fatal(err)
	}
	gen := sc.New(n, 1)
	for gen.Mirror().M() < 16384 {
		gen.Next(cfg.MaxBatch())
	}
	var edges []graph.Edge
	for _, e := range gen.Mirror().Edges() {
		edges = append(edges, e.Edge)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dc, err := core.NewDynamicConnectivity(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := dc.Bootstrap(edges); err != nil {
			b.Fatal(err)
		}
	}
}
