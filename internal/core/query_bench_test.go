package core_test

import (
	"testing"

	"repro/internal/core"
)

// The query-path benchmarks pinned in BENCH_sketch.json: three regimes of
// the batched query engine, each reporting rounds/query from Stats deltas
// (pinned exactly by scripts/benchdiff.go, next to allocs/op and B/op).
//
//   - BenchmarkConnectedBatch: the steady-state read-mostly regime — 1024
//     queries per op against a warm label cache. Zero rounds, zero allocs.
//   - BenchmarkConnectedLoop: the pre-cache per-query regime the engine
//     replaces — every query pays its own collective.
//   - BenchmarkComponentsOf: the cold batched regime — one invalidation and
//     one collective per op resolving 256 labels.
//   - BenchmarkQueryCacheHit: a warm single-pair point query.

// benchQueryInstance builds a warmed-up instance plus a query working set.
func benchQueryInstance(b *testing.B, n, queries int) (*core.DynamicConnectivity, []core.Pair) {
	b.Helper()
	dc, mix := newQueryRun(b, n, 1, 29)
	for i := 0; i < 6; i++ {
		if err := dc.ApplyBatch(mix.Next(dc.MaxBatch())); err != nil {
			b.Fatal(err)
		}
	}
	return dc, toPairs(mix.NextQueries(queries))
}

// reportRoundsPerQuery attaches the MPC-rounds-per-query metric.
func reportRoundsPerQuery(b *testing.B, dc *core.DynamicConnectivity, startRounds, queriesPerOp int) {
	b.Helper()
	delta := dc.Cluster().Stats().Rounds - startRounds
	b.ReportMetric(float64(delta)/float64(b.N*queriesPerOp), "rounds/query")
}

func BenchmarkConnectedBatch(b *testing.B) {
	const queries = 1024
	dc, pairs := benchQueryInstance(b, 256, queries)
	dst := make([]bool, 0, queries)
	dst = dc.ConnectedAllInto(dst, pairs) // warm the cache
	start := dc.Cluster().Stats().Rounds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = dc.ConnectedAllInto(dst, pairs)
	}
	b.StopTimer()
	reportRoundsPerQuery(b, dc, start, queries)
}

func BenchmarkConnectedLoop(b *testing.B) {
	const queries = 1024
	dc, pairs := benchQueryInstance(b, 256, queries)
	start := dc.Cluster().Stats().Rounds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			dc.InvalidateQueryCache()
			dc.Connected(p.U, p.V)
		}
	}
	b.StopTimer()
	reportRoundsPerQuery(b, dc, start, queries)
}

func BenchmarkComponentsOf(b *testing.B) {
	const queries = 256
	dc, _ := benchQueryInstance(b, 256, 0)
	vertices := make([]int, queries)
	for v := range vertices {
		vertices[v] = v
	}
	dst := make([]int, 0, queries)
	start := dc.Cluster().Stats().Rounds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dc.InvalidateQueryCache()
		dst = dc.ComponentsOfInto(dst, vertices)
	}
	b.StopTimer()
	reportRoundsPerQuery(b, dc, start, queries)
}

func BenchmarkQueryCacheHit(b *testing.B) {
	dc, pairs := benchQueryInstance(b, 256, 2)
	dc.Connected(pairs[0].U, pairs[0].V) // warm
	dc.Connected(pairs[1].U, pairs[1].V)
	start := dc.Cluster().Stats().Rounds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dc.Connected(pairs[i%2].U, pairs[i%2].V)
	}
	b.StopTimer()
	reportRoundsPerQuery(b, dc, start, 1)
}
