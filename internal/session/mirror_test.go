package session

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/snapshot"
)

// BenchmarkMirrorRestore loads a mirror of 16,500 edges on n = 4096 — the
// edge count of recover-churn's power-law graph — from a full container.
// The install builds the graph in one presized pass (graph.FromEdges), so
// the count is a small constant, not one allocation per row.
func BenchmarkMirrorRestore(b *testing.B) {
	const n, m = 4096, 16500
	src := NewMirror(n)
	r := rand.New(rand.NewPCG(3, m))
	for src.Graph().M() < m {
		if u, v := r.IntN(n), r.IntN(n); u != v && !src.Graph().Has(u, v) {
			_ = src.Graph().Insert(u, v, int64(r.IntN(1000)))
		}
	}
	var raw bytes.Buffer
	if err := snapshot.Save(&raw, src); err != nil {
		b.Fatal(err)
	}
	dst := NewMirror(n)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := snapshot.Load(bytes.NewReader(raw.Bytes()), dst); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if dst.Graph().M() != m {
		b.Fatalf("restored %d edges, want %d", dst.Graph().M(), m)
	}
}
