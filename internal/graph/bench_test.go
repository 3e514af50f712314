package graph

import (
	"math/rand/v2"
	"testing"
)

// BenchmarkAdmit admits steady churn at 1 M edges on n = 4096: one op is a
// 256-update batch that alternately inserts an edge of the absent block of
// 128 and deletes one of the next block, so the edge count holds at 1 M and
// the live set rotates through a fixed universe. One full rotation runs
// before the clock, so every adjacency row has met its largest size and a
// batch allocates nothing.
func BenchmarkAdmit(b *testing.B) {
	const (
		n     = 4096
		half  = 128
		edges = 1 << 20
	)
	r := rand.New(rand.NewPCG(1, 4096))
	g := New(n)
	universe := make([]Edge, 0, edges+half)
	for len(universe) < cap(universe) {
		u, v := r.IntN(n), r.IntN(n)
		if u != v && !g.Has(u, v) {
			_ = g.Insert(u, v, int64(len(universe)))
			universe = append(universe, NewEdge(u, v))
		}
	}
	blocks := len(universe) / half
	block := func(k int) []Edge { k %= blocks; return universe[k*half : (k+1)*half] }
	for _, e := range block(0) {
		_ = g.Delete(e.U, e.V)
	}
	batch := make(Batch, 2*half)
	admit := func(k int) {
		ins, del := block(k), block(k+1)
		for i := range half {
			batch[2*i] = Update{Op: Insert, Edge: ins[i], Weight: int64(k)}
			batch[2*i+1] = Update{Op: Delete, Edge: del[i]}
		}
		if err := g.Admit(batch); err != nil {
			b.Fatal(err)
		}
	}
	for k := range blocks {
		admit(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := range b.N {
		admit(k)
	}
	b.StopTimer()
	if g.M() != edges {
		b.Fatalf("M = %d, want %d", g.M(), edges)
	}
}
