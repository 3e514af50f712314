package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/mpc"
)

// stepBenchWorkers is the worker count of the pool variants of
// BenchmarkStepParallel: fixed (not NumCPU) so the pinned counts are the
// same on every host.
const stepBenchWorkers = 8

// stepStoreWords returns the per-machine store size (and therefore the
// per-machine local work, which scans the store) of one BenchmarkStepParallel
// round. The uniform variant gives every machine 512 words. The skewed
// variant spreads the same total budget by a powerlaw (Zipf s=1) over a
// deterministically shuffled machine order — the head machine carries
// total/H(machines) ≈ 13% of all work at 1024 machines — modeling the hot
// machines of the powerlaw/bursty/community scenarios, where a static
// contiguous split serializes on the shard holding the head.
func stepStoreWords(machines int, skewed bool) []int {
	const uniform = 512
	ws := make([]int, machines)
	if !skewed {
		for i := range ws {
			ws[i] = uniform
		}
		return ws
	}
	h := 0.0
	for r := 0; r < machines; r++ {
		h += 1.0 / float64(r+1)
	}
	total := float64(machines * uniform)
	for i := range ws {
		// Odd multiplier mod a power-of-two machine count is a bijection:
		// a fixed, seedless shuffle of ranks over machine ids.
		r := (i * 2654435761) % machines
		w := int(total / (float64(r+1) * h))
		if w < 32 {
			w = 32
		}
		ws[i] = w
	}
	return ws
}

// newStepCluster builds the BenchmarkStepParallel instance: a cluster whose
// machines each hold a store sized by stepStoreWords.
func newStepCluster(machines, parallelism int, skewed bool) *mpc.Cluster {
	c := mpc.NewCluster(mpc.Config{
		Machines:    machines,
		LocalMemory: 1 << 20,
		Parallelism: parallelism,
	})
	ws := stepStoreWords(machines, skewed)
	c.LocalAll(func(m *mpc.Machine) {
		buf := make(mpc.U64s, ws[m.ID])
		for i := range buf {
			buf[i] = uint64(m.ID + i)
		}
		m.Set("shard", buf)
	})
	return c
}

// word is a one-word message payload.
type word uint64

// Words implements mpc.Sized.
func (word) Words() int { return 1 }

// stepRound is the measured round: every machine scans its local store
// (deterministic local work, as an algorithm's shard scan would) and sends
// one word to a neighbor. Per-machine sinks keep the scan from being
// optimized away without sharing state across concurrent callbacks
// (StepFunc contract).
func stepRound(c *mpc.Cluster, machines int, sinks []uint64) {
	c.Step(func(m *mpc.Machine, inbox []mpc.Message) []mpc.Message {
		buf := m.Get("shard").(mpc.U64s)
		var acc uint64
		for pass := 0; pass < 4; pass++ {
			for _, v := range buf {
				acc = acc*31 + v
			}
		}
		sinks[m.ID] += acc
		return []mpc.Message{{To: (m.ID + 1) % machines, Payload: word(acc)}}
	})
}

// benchmarkStep runs raw synchronous rounds of the simulator substrate
// under a given execution engine: the same StepFunc, message volume, and
// metering at every parallelism, so the allocation counts the micro gate
// pins (scripts/benchdiff.go) are the engine's own.
func benchmarkStep(b *testing.B, machines, parallelism int, skewed bool) {
	c := newStepCluster(machines, parallelism, skewed)
	sinks := make([]uint64, machines)
	// Warm past the engine's one-time buffer growth (outboxes, routing
	// buckets) so the measured loop is the steady state.
	for i := 0; i < 4; i++ {
		stepRound(c, machines, sinks)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepRound(c, machines, sinks)
	}
}

// BenchmarkStepParallel runs the sequential executor and the worker-pool
// executor (stepBenchWorkers workers) on identical rounds at several
// cluster sizes and two load shapes: uniform per-machine work and the
// powerlaw-skewed variant that exercises the work-stealing scheduler. The
// seq/pool pairs at each machine count must allocate alike; their relative
// wall clock is reported by the E13 table, not gated.
func BenchmarkStepParallel(b *testing.B) {
	for _, machines := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("seq/%d", machines), func(b *testing.B) {
			benchmarkStep(b, machines, 1, false)
		})
		b.Run(fmt.Sprintf("pool/%d", machines), func(b *testing.B) {
			benchmarkStep(b, machines, stepBenchWorkers, false)
		})
		b.Run(fmt.Sprintf("seq-skew/%d", machines), func(b *testing.B) {
			benchmarkStep(b, machines, 1, true)
		})
		b.Run(fmt.Sprintf("pool-skew/%d", machines), func(b *testing.B) {
			benchmarkStep(b, machines, stepBenchWorkers, true)
		})
	}
}
