package harness

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mpc"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// crashRun streams a scenario through dynamic connectivity, killing and
// restoring the cluster at the seeded crash points (crashEvery = 0 runs
// uninterrupted), and returns the final Stats, component labels, and the
// serialized golden stream it consumed.
func crashRun(t *testing.T, scenario string, n, batches, parallelism, crashEvery int, seed uint64) (mpc.Stats, []int, int) {
	t.Helper()
	sc, err := workload.Get(scenario)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{N: n, Phi: 0.6, Seed: seed, Parallelism: parallelism}
	dc, err := core.NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := sc.New(n, seed+1)
	var sched *workload.CrashSchedule
	if crashEvery > 0 {
		sched = workload.NewCrashSchedule(seed+3, crashEvery)
	}
	crashes := 0
	for i := 0; i < batches; i++ {
		if err := dc.ApplyBatch(gen.Next(dc.MaxBatch())); err != nil {
			t.Fatal(err)
		}
		// Warm the query path so the checkpoint must carry a live cache.
		dc.Connected(0, n-1)
		if sched != nil && sched.Crash() {
			var buf bytes.Buffer
			if err := snapshot.Save(&buf, dc); err != nil {
				t.Fatal(err)
			}
			fresh, err := core.NewDynamicConnectivity(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := snapshot.Load(&buf, fresh); err != nil {
				t.Fatal(err)
			}
			dc = fresh
			crashes++
		}
	}
	if err := VerifyConnectivity(dc, gen.Mirror()); err != nil {
		t.Fatalf("%s (crashEvery %d): diverged from oracle: %v", scenario, crashEvery, err)
	}
	return dc.Cluster().Stats(), dc.SnapshotComponents(), crashes
}

// TestCrashRestoreBitIdentical is the tentpole acceptance criterion: a
// kill+restore-decorated run over the golden scenarios must produce Stats
// and component labels bit-identical to an uninterrupted run, at
// parallelism 1 and 8, with the oracle verifying both runs.
func TestCrashRestoreBitIdentical(t *testing.T) {
	for _, scenario := range []string{"powerlaw", "window"} {
		for _, par := range []int{1, 8} {
			baseStats, baseComp, _ := crashRun(t, scenario, 64, 16, par, 0, 99)
			crashStats, crashComp, crashes := crashRun(t, scenario, 64, 16, par, 4, 99)
			if crashes == 0 {
				t.Fatalf("%s par %d: crash schedule fired 0 times over 16 batches", scenario, par)
			}
			if !reflect.DeepEqual(baseStats, crashStats) {
				t.Errorf("%s par %d: Stats differ after %d crash/restore cycles:\n  base:  %+v\n  crash: %+v",
					scenario, par, crashes, baseStats, crashStats)
			}
			if !reflect.DeepEqual(baseComp, crashComp) {
				t.Errorf("%s par %d: component labels differ after crash/restore", scenario, par)
			}
		}
	}
}

// TestCrashScenarioEveryAlgorithm runs every registered algorithm over a
// compatible scenario with fault injection through the harness itself: the
// per-batch brute-force oracle checks must keep passing across restores,
// for every algorithm including the randomized ones whose outputs are not
// bit-reproducible.
func TestCrashScenarioEveryAlgorithm(t *testing.T) {
	scenarioFor := map[string]string{
		"connectivity": "churn",
		"bipartite":    "churn",
		"msf":          "grow-weighted",
		"approxmsf":    "churn-weighted",
		"matching":     "grow",
		"dynmatching":  "churn",
		"nowickionak":  "bursty",
	}
	for _, name := range AlgorithmNames() {
		scenario, ok := scenarioFor[name]
		if !ok {
			t.Fatalf("no crash scenario mapped for algorithm %q", name)
		}
		t.Run(name, func(t *testing.T) {
			rep, err := Run(name, scenario, Options{
				N: 48, Batches: 12, Seed: 7, CrashEvery: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Crashes == 0 {
				t.Fatalf("crash schedule fired 0 times: %s", rep)
			}
			if rep.Checks == 0 {
				t.Fatalf("no oracle checks ran: %s", rep)
			}
		})
	}
}

// TestCrashScenarioEveryScenario is the snapshot round-trip property test
// across the whole scenario registry: every stream family runs through a
// deterministic algorithm twice — uninterrupted, and with kill/restore
// cycles at seeded batch indices — and the two runs must produce equal
// reports (batches, updates, oracle checks passed, cumulative MPC rounds)
// with every per-batch brute-force check green. Each existing scenario
// doubles as a crash/recovery scenario.
func TestCrashScenarioEveryScenario(t *testing.T) {
	for _, scenario := range workload.Names() {
		sc, err := workload.Get(scenario)
		if err != nil {
			t.Fatal(err)
		}
		algo := "connectivity"
		if sc.InsertOnly && sc.Weighted {
			algo = "msf"
		} else if sc.InsertOnly {
			algo = "matching"
		}
		t.Run(scenario, func(t *testing.T) {
			opt := Options{N: 48, Batches: 10, Seed: 21}
			base, err := Run(algo, scenario, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.CrashEvery = 3
			crash, err := Run(algo, scenario, opt)
			if err != nil {
				t.Fatal(err)
			}
			if crash.Crashes == 0 {
				t.Fatalf("crash schedule fired 0 times: %s", crash)
			}
			crash.Crashes = 0
			crash.FullCheckpoints, crash.DeltaCheckpoints = 0, 0
			if !reflect.DeepEqual(base, crash) {
				t.Errorf("crash-injected run differs from uninterrupted:\n  base:  %+v\n  crash: %+v", base, crash)
			}
		})
	}
}

// TestCrashReportEqualsUninterrupted checks the harness-level contract for
// the deterministic algorithms: the full Report of a crash-injected run
// (minus the crash counter itself) matches the uninterrupted twin.
func TestCrashReportEqualsUninterrupted(t *testing.T) {
	for _, algo := range []string{"connectivity", "msf", "nowickionak", "bipartite"} {
		scenario := "churn"
		if algo == "msf" {
			scenario = "grow-weighted"
		}
		base, err := Run(algo, scenario, Options{N: 48, Batches: 10, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		crash, err := Run(algo, scenario, Options{N: 48, Batches: 10, Seed: 5, CrashEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		if crash.Crashes == 0 {
			t.Fatalf("%s: crash schedule fired 0 times", algo)
		}
		if algo == "connectivity" {
			// The final instance is a restored one: the comparison below
			// holds only if its Stats carry the whole run. The search
			// counters add up across every instance.
			if crash.Searches == nil || crash.Searches.Exhausted != 0 {
				t.Errorf("connectivity: replacement searches %+v missing or exhausted", crash.Searches)
			}
		}
		crash.Crashes = 0
		crash.FullCheckpoints, crash.DeltaCheckpoints = 0, 0
		if !reflect.DeepEqual(base, crash) {
			t.Errorf("%s: crash-injected report differs:\n  base:  %+v\n  crash: %+v", algo, base, crash)
		}
	}
}

// TestCrashDeltaChainEqualsUninterrupted is the delta-mode twin: periodic
// delta checkpoints (CheckpointEvery) between seeded kill/restore cycles
// mean every crash restores from a base plus a multi-delta chain, and the
// run must still be report-identical to the uninterrupted twin. The tight
// MaxDeltaChain forces compaction mid-run, and the checkpoint-kind counters
// confirm both kinds were actually exercised.
func TestCrashDeltaChainEqualsUninterrupted(t *testing.T) {
	for _, scenario := range []string{"powerlaw", "window"} {
		for _, par := range []int{1, 8} {
			opt := Options{N: 64, Batches: 24, Seed: 31, Parallelism: par}
			base, err := Run("connectivity", scenario, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.CrashEvery = 6
			opt.CheckpointEvery = 2
			opt.MaxDeltaChain = 4
			crash, err := Run("connectivity", scenario, opt)
			if err != nil {
				t.Fatal(err)
			}
			if crash.Crashes == 0 {
				t.Fatalf("%s par %d: crash schedule fired 0 times", scenario, par)
			}
			if crash.FullCheckpoints == 0 || crash.DeltaCheckpoints == 0 {
				t.Fatalf("%s par %d: expected both checkpoint kinds, got full=%d delta=%d",
					scenario, par, crash.FullCheckpoints, crash.DeltaCheckpoints)
			}
			crash.Crashes = 0
			crash.FullCheckpoints, crash.DeltaCheckpoints = 0, 0
			if !reflect.DeepEqual(base, crash) {
				t.Errorf("%s par %d: delta-chain run differs from uninterrupted:\n  base:  %+v\n  crash: %+v",
					scenario, par, base, crash)
			}
		}
	}
}
