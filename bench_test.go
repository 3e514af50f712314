package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mpc"
	"repro/internal/workload"
)

// The benchmarks regenerate the experiment tables (one bench per
// experiment; the paper has no measured tables of its own, so each theorem
// of the evaluation-grade claims is converted into a table — see README.md
// "Experiments"). Each bench prints its table once and then times the core
// operation it measures.

var printed = map[string]bool{}

func printOnce(b *testing.B, t *experiments.Table) {
	b.Helper()
	if !printed[t.Title] {
		printed[t.Title] = true
		b.Log("\n" + t.String())
	}
}

func BenchmarkE1ConnectivityRounds(b *testing.B) {
	printOnce(b, experiments.E1ConnectivityRounds([]int{64, 128, 256}, []float64{0.5, 0.7}, 6, 1))
	dc, err := core.NewDynamicConnectivity(core.Config{N: 128, Phi: 0.6, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewChurn(workload.Config{N: 128, Seed: 2, InsertBias: 0.6})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dc.ApplyBatch(gen.Next(dc.MaxBatch())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2ConnectivityMemory(b *testing.B) {
	printOnce(b, experiments.E2ConnectivityMemory(128, 0.6, []int{100, 300, 600, 1000}, 2))
	for i := 0; i < b.N; i++ {
		experiments.E2ConnectivityMemory(64, 0.6, []int{50, 150}, uint64(i))
	}
}

func BenchmarkE3QueryRoundsVsAGM(b *testing.B) {
	printOnce(b, experiments.E3QueryVsAGM([]int{64, 128, 256, 512}, 3))
	for i := 0; i < b.N; i++ {
		experiments.E3QueryVsAGM([]int{64}, uint64(i))
	}
}

func BenchmarkE4ExactMSF(b *testing.B) {
	printOnce(b, experiments.E4ExactMSF([]int{64, 128, 256}, 8, 4))
	for i := 0; i < b.N; i++ {
		experiments.E4ExactMSF([]int{48}, 4, uint64(i))
	}
}

func BenchmarkE5ApproxMSF(b *testing.B) {
	printOnce(b, experiments.E5ApproxMSF(64, []float64{0.1, 0.25, 0.5}, 8, 5))
	for i := 0; i < b.N; i++ {
		experiments.E5ApproxMSF(32, []float64{0.25}, 4, uint64(i))
	}
}

func BenchmarkE6Bipartiteness(b *testing.B) {
	printOnce(b, experiments.E6Bipartiteness(64, 10, 6))
	for i := 0; i < b.N; i++ {
		experiments.E6Bipartiteness(32, 6, uint64(i))
	}
}

func BenchmarkE7InsertMatching(b *testing.B) {
	printOnce(b, experiments.E7InsertMatching(128, []float64{2, 4, 8}, 7))
	for i := 0; i < b.N; i++ {
		experiments.E7InsertMatching(48, []float64{2}, uint64(i))
	}
}

func BenchmarkE8DynamicMatching(b *testing.B) {
	printOnce(b, experiments.E8DynamicMatching(48, []float64{2, 4}, 8, 8))
	for i := 0; i < b.N; i++ {
		experiments.E8DynamicMatching(24, []float64{2}, 4, uint64(i))
	}
}

func BenchmarkE9BatchScaling(b *testing.B) {
	printOnce(b, experiments.E9BatchScaling(256, []float64{0.1, 0.25, 0.5, 1}, 5, 9))
	for i := 0; i < b.N; i++ {
		experiments.E9BatchScaling(64, []float64{0.5}, 3, uint64(i))
	}
}

func BenchmarkE10EulerTourAblation(b *testing.B) {
	printOnce(b, experiments.E10EulerTourAblation(512, []int{4, 16, 64}, 10))
	for i := 0; i < b.N; i++ {
		experiments.E10EulerTourAblation(128, []int{8}, uint64(i))
	}
}

func BenchmarkE11SketchCopies(b *testing.B) {
	printOnce(b, experiments.E11SketchCopiesAblation(64, []int{1, 2, 4, 24}, 6, []uint64{1, 2, 3, 4, 5, 6}))
	for i := 0; i < b.N; i++ {
		experiments.E11SketchCopiesAblation(32, []int{4}, 3, []uint64{uint64(i + 1)})
	}
}

func BenchmarkE12CommunicationPerRound(b *testing.B) {
	printOnce(b, experiments.E12CommunicationPerRound([]int{64, 128, 256}, 8, 12))
	for i := 0; i < b.N; i++ {
		experiments.E12CommunicationPerRound([]int{64}, 3, uint64(i))
	}
}

func BenchmarkE14ScenarioSweep(b *testing.B) {
	printOnce(b, experiments.E14ScenarioSweep(48, 6, nil, 14))
	for i := 0; i < b.N; i++ {
		experiments.E14ScenarioSweep(48, 3, []string{"powerlaw", "window"}, uint64(i))
	}
}

func BenchmarkE15QueryThroughput(b *testing.B) {
	printOnce(b, experiments.E15QueryThroughput([]int{64, 128, 256}, 8, 1024, 15))
	for i := 0; i < b.N; i++ {
		experiments.E15QueryThroughput([]int{64}, 4, 128, uint64(i))
	}
}

// stepBenchWorkers is the worker count of the pool variants of
// BenchmarkStepParallel: fixed (not NumCPU) so the speedup-vs-seq metric is
// comparable across machines and gateable in CI.
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

// seqStepNs caches the sequential-executor per-round wall clock for each
// (machines, skewed) shape, measured once with a fixed iteration count; the
// pool variants divide by it to report the speedup-vs-seq derived metric.
var seqStepNs = map[string]float64{}

func seqStepBaselineNs(machines int, skewed bool) float64 {
	key := fmt.Sprintf("%d/%v", machines, skewed)
	if ns, ok := seqStepNs[key]; ok {
		return ns
	}
	c := newStepCluster(machines, 1, skewed)
	sinks := make([]uint64, machines)
	const warm, timed = 4, 24
	for i := 0; i < warm; i++ {
		stepRound(c, machines, sinks)
	}
	start := time.Now()
	for i := 0; i < timed; i++ {
		stepRound(c, machines, sinks)
	}
	ns := float64(time.Since(start).Nanoseconds()) / timed
	seqStepNs[key] = ns
	return ns
}

// benchmarkStep times raw synchronous rounds of the simulator substrate
// under a given execution engine. This isolates the engine itself — the
// same StepFunc, message volume, and metering at every parallelism. Pool
// variants additionally report speedup-vs-seq (sequential ns/round over
// pool ns/round, higher is better), the derived metric the benchdiff gate
// enforces so the pool silently regressing to parity fails CI.
func benchmarkStep(b *testing.B, machines, parallelism int, skewed bool) {
	c := newStepCluster(machines, parallelism, skewed)
	sinks := make([]uint64, machines)
	var seqNs float64
	if parallelism != 1 {
		seqNs = seqStepBaselineNs(machines, skewed)
	}
	// Warm past the engine's one-time buffer growth (outboxes, routing
	// buckets) so the timed loop measures the steady state.
	for i := 0; i < 4; i++ {
		stepRound(c, machines, sinks)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		stepRound(c, machines, sinks)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	if parallelism != 1 && b.N > 0 && elapsed > 0 {
		poolNs := float64(elapsed.Nanoseconds()) / float64(b.N)
		b.ReportMetric(seqNs/poolNs, "speedup-vs-seq")
	}
	var sink uint64
	for _, s := range sinks {
		sink += s
	}
	_ = sink
}

// BenchmarkStepParallel compares the sequential executor against the
// worker-pool executor (stepBenchWorkers workers) on identical rounds at
// several cluster sizes and two load shapes: uniform per-machine work and
// the powerlaw-skewed variant that measures the work-stealing scheduler.
// The seq/pool pairs at each machine count are directly comparable.
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
