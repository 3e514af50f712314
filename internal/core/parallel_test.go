package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// runSeededChurn replays a fixed churn workload through the full dynamic
// connectivity machinery at the given cluster parallelism and returns the
// final stats and outputs.
func runSeededChurn(t *testing.T, parallelism int) (mpc.Stats, []int, []graph.Edge, *graph.Graph) {
	t.Helper()
	dc, err := NewDynamicConnectivity(Config{N: 96, Phi: 0.6, Seed: 7, Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewChurn(workload.Config{N: 96, Seed: 8, InsertBias: 0.6})
	for i := 0; i < 10; i++ {
		if err := dc.ApplyBatch(gen.Next(dc.MaxBatch())); err != nil {
			t.Fatal(err)
		}
	}
	return dc.Cluster().Stats(), dc.SnapshotComponents(), dc.SnapshotForest(), gen.Mirror()
}

// TestParallelismDeterminism is the engine guarantee at the algorithm layer:
// the same seed produces bit-identical Stats (rounds, messages, words,
// peaks, violations) and identical solutions at parallelism 1, 4, and
// NumCPU.
func TestParallelismDeterminism(t *testing.T) {
	baseStats, baseComps, baseForest, mirror := runSeededChurn(t, 1)
	want := oracle.Components(mirror)
	for v := range want {
		if baseComps[v] != want[v] {
			t.Fatalf("sequential run diverged from oracle at vertex %d", v)
		}
	}
	for _, p := range []int{4, runtime.NumCPU()} {
		st, comps, forest, _ := runSeededChurn(t, p)
		if !reflect.DeepEqual(st, baseStats) {
			t.Errorf("parallelism %d: stats diverged\nseq: %+v\npar: %+v", p, baseStats, st)
		}
		if !reflect.DeepEqual(comps, baseComps) {
			t.Errorf("parallelism %d: components diverged", p)
		}
		if !reflect.DeepEqual(forest, baseForest) {
			t.Errorf("parallelism %d: forest diverged", p)
		}
	}
}

// TestParallelForestOps exercises the weighted-forest operations (Link, Cut,
// HeaviestSeparating) under a parallel engine against the sequential baseline.
func TestParallelForestOps(t *testing.T) {
	run := func(parallelism int) (mpc.Stats, []graph.WeightedEdge, map[[2]int]graph.WeightedEdge) {
		f, err := NewWeightedForest(Config{N: 64, Phi: 0.7, Seed: 3, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		var batch []graph.WeightedEdge
		for v := 0; v < 48; v++ {
			batch = append(batch, graph.NewWeightedEdge(v, v+1, int64(v%9+1)))
			if len(batch) == 8 {
				if err := f.Link(batch); err != nil {
					t.Fatal(err)
				}
				batch = nil
			}
		}
		if _, err := f.Cut([]graph.Edge{{U: 10, V: 11}, {U: 30, V: 31}}); err != nil {
			t.Fatal(err)
		}
		heavy := f.HeaviestSeparating(tourTerminals(f, 0, 5, 10, 12, 20, 30, 32, 40, 48))
		if len(heavy) == 0 {
			t.Fatal("no virtual edge answered")
		}
		return f.Cluster().Stats(), f.SnapshotForest(), heavy
	}
	seqStats, seqForest, seqHeavy := run(1)
	parStats, parForest, parHeavy := run(4)
	if !reflect.DeepEqual(seqStats, parStats) {
		t.Errorf("stats diverged\nseq: %+v\npar: %+v", seqStats, parStats)
	}
	if !reflect.DeepEqual(seqForest, parForest) {
		t.Error("forest snapshots diverged")
	}
	if !reflect.DeepEqual(seqHeavy, parHeavy) {
		t.Error("HeaviestSeparating results diverged")
	}
}
