package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hash"
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
