package harness

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// faultOptions is the shared shape for the twin comparison: a pinned
// initial cluster (7 machines) with a pinned batch size, so the faulted
// run and its uninterrupted twin consume bit-identical streams regardless
// of their (different) machine counts.
func faultOptions(par int) Options {
	return Options{
		N: 48, Batches: 12, BatchSize: 4, Seed: 1, Parallelism: par,
		VerticesPerMachine: 8,
		FaultEvery:         3,
	}
}

// fingerprint renders the machine-count-independent solution state of an
// instance: component labels, forest edges and query answers for
// connectivity, the answer and both instances' labels for bipartiteness,
// the maintained forest and weight for the MSF pair, the sorted match set
// and its size for the three matchings. MPC Stats are deliberately excluded
// — a recovered run spends extra rounds on the replay.
func fingerprint(t *testing.T, inst Instance) string {
	t.Helper()
	switch v := inst.(type) {
	case connectivityInstance:
		n := v.Config().N
		pairs := make([]core.Pair, 0, 2*n)
		for i := 0; i+1 < n; i++ {
			pairs = append(pairs, core.Pair{U: i, V: i + 1}, core.Pair{U: 0, V: i + 1})
		}
		forest := v.SnapshotForest()
		sort.Slice(forest, func(i, j int) bool {
			return forest[i].ID(n) < forest[j].ID(n)
		})
		return fmt.Sprintf("comp=%v forest=%v conn=%v",
			v.SnapshotComponents(), forest, v.ConnectedAll(pairs))
	case exactMSFInstance:
		forest := v.Snapshot()
		sort.Slice(forest, func(i, j int) bool {
			return forest[i].ID(v.Forest().Config().N) < forest[j].ID(v.Forest().Config().N)
		})
		return fmt.Sprintf("weight=%d forest=%v", v.Weight(), forest)
	case approxMSFInstance:
		return fmt.Sprintf("weight=%d forestweight=%d", v.Weight(), v.ForestWeight())
	case bipartiteInstance:
		return fmt.Sprintf("bipartite=%v graph=%v cover=%v",
			v.IsBipartite(), v.Graph().SnapshotComponents(), v.Cover().SnapshotComponents())
	case greedyMatchingInstance:
		return matchingPrint(v.Size(), v.Matching())
	case nowickiOnakInstance:
		return matchingPrint(v.Size(), v.Matching())
	case aklyInstance:
		return matchingPrint(v.Size(), v.Matching())
	}
	t.Fatalf("no fingerprint for instance type %T", inst)
	return ""
}

func matchingPrint(size int, m []graph.Edge) string {
	sort.Slice(m, func(i, j int) bool { return m[i].ID(48) < m[j].ID(48) })
	return fmt.Sprintf("size=%d matching=%v", size, m)
}

// TestFaultReshardTwinBitIdentical is the machine-loss acceptance
// criterion: for every registered algorithm over every compatible scenario,
// a run that loses machines mid-stream (each loss recovered by re-sharding
// the last checkpoint onto the surviving fleet and replaying the journal)
// must end with a solution bit-identical to an uninterrupted twin run at
// the surviving machine count — at parallelism 1 and 8, with the
// brute-force oracle checking both runs batch by batch.
func TestFaultReshardTwinBitIdentical(t *testing.T) {
	for _, name := range AlgorithmNames() {
		algo, err := GetAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scenario := range workload.Names() {
			sc, err := workload.Get(scenario)
			if err != nil {
				t.Fatal(err)
			}
			if Compatible(algo, sc) != nil {
				continue
			}
			for _, par := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/p%d", name, scenario, par), func(t *testing.T) {
					opt := faultOptions(par)
					if name == "bipartite" {
						// Its doubled cover graph halves core's MaxBatch of 4
						// at 8 vertices/machine; the pin must fit every shape.
						opt.BatchSize = 2
					}
					inst, cur, rep, err := runScenario(algo, sc, opt)
					if err != nil {
						t.Fatal(err)
					}
					if rep.Faults == 0 {
						t.Fatalf("fault schedule fired 0 times over %d batches: %s", rep.Batches, rep)
					}
					if rep.Reshards != rep.Faults {
						t.Fatalf("%d faults but %d reshards: %s", rep.Faults, rep.Reshards, rep)
					}
					if rep.ReplayedBatches < rep.Faults {
						t.Fatalf("%d faults replayed only %d batches: %s", rep.Faults, rep.ReplayedBatches, rep)
					}
					if cur.VerticesPerMachine <= opt.VerticesPerMachine {
						t.Fatalf("fleet never shrank: VerticesPerMachine %d -> %d", opt.VerticesPerMachine, cur.VerticesPerMachine)
					}
					twinOpt := opt
					twinOpt.FaultEvery = 0
					twinOpt.VerticesPerMachine = cur.VerticesPerMachine
					twin, _, twinRep, err := runScenario(algo, sc, twinOpt)
					if err != nil {
						t.Fatal(err)
					}
					if twinRep.Batches != rep.Batches || twinRep.Updates != rep.Updates {
						t.Fatalf("streams diverged: faulted %d batches/%d updates, twin %d/%d",
							rep.Batches, rep.Updates, twinRep.Batches, twinRep.Updates)
					}
					got, want := fingerprint(t, inst), fingerprint(t, twin)
					if got != want {
						t.Errorf("solution differs from uninterrupted twin at %d vertices/machine:\n  faulted: %s\n  twin:    %s",
							cur.VerticesPerMachine, got, want)
					}
				})
			}
		}
	}
}

// TestLoadIsReshardAtTheSourceShape pins the single full-checkpoint loader
// of every registered algorithm from the outside: a container records the
// state, not its placement, so snapshot.Load into a fresh instance of the
// shape that wrote it or of another shape re-saves the input byte for byte,
// and the instance of the other shape holds the source's solution.
func TestLoadIsReshardAtTheSourceShape(t *testing.T) {
	scenarioFor := map[string]string{
		"connectivity": "churn", "bipartite": "churn", "msf": "grow-weighted", "approxmsf": "churn-weighted",
		"matching": "grow", "dynmatching": "churn", "nowickionak": "churn",
	}
	for _, name := range AlgorithmNames() {
		t.Run(name, func(t *testing.T) {
			algo, err := GetAlgorithm(name)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := workload.Get(scenarioFor[name])
			if err != nil {
				t.Fatal(err)
			}
			opt := faultOptions(1)
			opt.FaultEvery = 0
			live, opt, _, err := runScenario(algo, sc, opt)
			if err != nil {
				t.Fatal(err)
			}
			var input bytes.Buffer
			if err := snapshot.Save(&input, live); err != nil {
				t.Fatal(err)
			}
			load := func(o Options) Instance {
				inst, err := algo.New(o)
				if err != nil {
					t.Fatal(err)
				}
				if err := snapshot.Load(bytes.NewReader(input.Bytes()), inst); err != nil {
					t.Fatalf("Load at VerticesPerMachine=%d: %v", o.VerticesPerMachine, err)
				}
				return inst
			}
			resave := func(inst Instance) {
				var out bytes.Buffer
				if err := snapshot.Save(&out, inst); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), input.Bytes()) {
					t.Fatalf("re-saved container (%d bytes) differs from the input (%d bytes)", out.Len(), input.Len())
				}
			}
			resave(load(opt))
			// 16 vertices/machine is a 4-machine fleet; the container's is 7
			// machines at 8. Re-save before fingerprint: its queries change
			// Stats and the label cache.
			other := opt
			other.VerticesPerMachine = 16
			moved := load(other)
			resave(moved)
			if got, want := fingerprint(t, moved), fingerprint(t, live); got != want {
				t.Fatalf("loaded onto another shape:\n  got:  %s\n  want: %s", got, want)
			}
		})
	}
}

// TestFaultWithCrashAndCheckpoint runs all three failure decorations at
// once — periodic checkpoints, process crashes, machine faults — and
// demands the oracle checks keep passing while the chain is re-based
// across cluster shapes.
func TestFaultWithCrashAndCheckpoint(t *testing.T) {
	rep, err := Run("connectivity", "churn", Options{
		N: 48, Batches: 16, BatchSize: 4, Seed: 5,
		VerticesPerMachine: 8,
		FaultEvery:         8, CrashEvery: 5, CheckpointEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults == 0 || rep.Crashes == 0 {
		t.Fatalf("decorations did not all fire: %s", rep)
	}
	if rep.Checks == 0 {
		t.Fatalf("no oracle checks ran: %s", rep)
	}
}
