package harness

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// pinScenario is the scenario each algorithm streams for the containers the
// pins and the load fuzzer read.
var pinScenario = map[string]string{
	"connectivity": "churn", "bipartite": "churn", "msf": "grow-weighted", "approxmsf": "churn-weighted",
	"matching": "grow", "dynmatching": "churn", "nowickionak": "churn",
}

// pinned returns the named algorithm's instance after its pinScenario at a
// pinned shape — seven machines of 8 vertices, batches of at most 4 — and
// the options it ran at: what RunScenario leaves, every batch checked
// against the oracle as it does (a check runs queries, so it is part of
// the state).
func pinned(t testing.TB, name string, par int) (Instance, Options) {
	t.Helper()
	opt := Options{N: 48, Batches: 12, BatchSize: 4, Seed: 1, Parallelism: par, VerticesPerMachine: 8}.withDefaults()
	algo, err := GetAlgorithm(name)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := workload.Get(pinScenario[name])
	if err != nil {
		t.Fatal(err)
	}
	inst, err := algo.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	gen := sc.New(opt.N, opt.Seed+1)
	for range opt.Batches {
		b := gen.Next(min(inst.MaxBatch(), opt.BatchSize))
		if len(b) == 0 {
			continue
		}
		if err := inst.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := inst.Check(gen.Mirror()); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.Check(gen.Mirror()); err != nil {
		t.Fatal(err)
	}
	if fc, ok := inst.(finalChecker); ok {
		if err := fc.FinalCheck(gen.Mirror()); err != nil {
			t.Fatal(err)
		}
	}
	return inst, opt
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
// criterion at fixed points, where TestLifecycleModel draws them: for every
// registered algorithm over every compatible scenario, a run that loses a
// machine while every third batch is in flight (each loss recovered by
// session.Session.RecoverOnto: the last checkpoint re-sharded onto the
// survivors and the batches since replayed) must end with a solution
// bit-identical to an uninterrupted twin run at the surviving machine count
// — at parallelism 1 and 8, with the oracle checking both runs batch by
// batch.
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
					// Seven machines of 8 vertices, with a pinned batch size,
					// so both runs consume bit-identical streams at their
					// different machine counts.
					opt := Options{N: 48, Batches: 12, BatchSize: 4, Seed: 1, Parallelism: par, VerticesPerMachine: 8}.withDefaults()
					if name == "bipartite" {
						// Its doubled cover graph halves core's MaxBatch of 4
						// at 8 vertices/machine; the pin must fit every shape.
						opt.BatchSize = 2
					}
					inst, shape, losses, replayed := lossRun(t, algo, sc, opt, 3)
					if losses == 0 || replayed < losses {
						t.Fatalf("%d machine losses replayed %d batches", losses, replayed)
					}
					if shape.VerticesPerMachine <= opt.VerticesPerMachine {
						t.Fatalf("fleet never shrank: VerticesPerMachine %d -> %d", opt.VerticesPerMachine, shape.VerticesPerMachine)
					}
					opt.VerticesPerMachine = shape.VerticesPerMachine
					twin, _, _, _ := lossRun(t, algo, sc, opt, 0)
					if got, want := fingerprint(t, inst), fingerprint(t, twin); got != want {
						t.Errorf("solution differs from uninterrupted twin at %d vertices/machine:\n  faulted: %s\n  twin:    %s",
							shape.VerticesPerMachine, got, want)
					}
				})
			}
		}
	}
}

// lossRun streams opt.Batches batches of sc through a session on an
// in-memory chain, checking every batch against the oracle. With lossEvery
// > 0 a machine dies while every lossEvery-th applied batch is in flight:
// the batch never lands on the old fleet, RecoverOnto rebuilds the state on
// one machine fewer from the batches since the last re-base, and the batch
// is applied there. It returns the final instance and shape, the losses and
// the batches they replayed, in-flight ones included.
func lossRun(t *testing.T, algo Algorithm, sc workload.Scenario, opt Options, lossEvery int) (Instance, session.Shape, int, int) {
	t.Helper()
	cfg := sessionConfig(algo, opt)
	cfg.Chain = snapshot.OpenChainIn(snapshot.NewMemStore(), algo.Name, 0)
	sess, err := session.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst := func() Instance { return sess.State().(Instance) }
	size := min(inst().MaxBatch(), opt.BatchSize)
	gen := sc.New(opt.N, opt.Seed+1)
	var since []graph.Batch
	losses, replayed := 0, 0
	for i := range opt.Batches {
		b := gen.Next(size)
		if len(b) == 0 {
			continue
		}
		if lossEvery > 0 && sess.Applied() > 0 && sess.Applied()%lossEvery == 0 {
			if _, err := sess.RecoverOnto(sess.Shape().MachineCount()-1, since); err != nil {
				t.Fatalf("machine loss at batch %d: %v", i, err)
			}
			losses, replayed, since = losses+1, replayed+len(since)+1, since[:0]
		}
		if err := sess.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		since = append(since, append(graph.Batch(nil), b...))
		if err := inst().Check(gen.Mirror()); err != nil {
			t.Fatalf("diverged at batch %d: %v", i, err)
		}
	}
	if fc, ok := inst().(finalChecker); ok {
		if err := fc.FinalCheck(gen.Mirror()); err != nil {
			t.Fatal(err)
		}
	}
	return inst(), sess.Shape(), losses, replayed
}

// TestLoadIsReshardAtTheSourceShape pins the single full-checkpoint loader
// of every registered algorithm from the outside: a container records the
// state, not its placement, so snapshot.Load into a fresh instance of the
// shape that wrote it or of another shape re-saves the input byte for byte,
// and the instance of the other shape holds the source's solution.
func TestLoadIsReshardAtTheSourceShape(t *testing.T) {
	for _, name := range AlgorithmNames() {
		t.Run(name, func(t *testing.T) {
			algo, err := GetAlgorithm(name)
			if err != nil {
				t.Fatal(err)
			}
			live, opt := pinned(t, name, 1)
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
