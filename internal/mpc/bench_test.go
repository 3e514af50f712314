package mpc_test

import (
	"testing"

	"repro/internal/mpc"
)

// The mpc benchmarks are pinned in BENCH_sketch.json (scripts/benchdiff.go)
// at zero allocations: the batch codec's encode and decode, and the steady
// state of a fully batched executor round (see also alloc_test.go).

func BenchmarkMessageBatchEncode(b *testing.B) {
	batch := mpc.NewMessageBatch(4 * 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Reset()
		for f := 0; f < 128; f++ {
			batch.Append(uint64(f), uint64(f+1), uint64(f&1))
		}
	}
}

func BenchmarkMessageBatchDecode(b *testing.B) {
	batch := mpc.NewMessageBatch(4 * 128)
	for f := 0; f < 128; f++ {
		batch.Append(uint64(f), uint64(f+1), uint64(f&1))
	}
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for fr := range batch.Frames {
			sink += fr[0] ^ fr[2]
		}
	}
	_ = sink
}

func BenchmarkStepBatchRound(b *testing.B) {
	// One synchronous round of the simulator with fully batched traffic —
	// the executor-layer cost underneath every algorithm round.
	cr := newChurnRounds(b, 1)
	for i := 0; i < 8; i++ {
		cr.step() // converge buffer capacities
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr.step()
	}
}
