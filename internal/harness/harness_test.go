package harness

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestDifferentialAllPairs is the heart of the package: every registered
// scenario is streamed through every compatible algorithm with per-batch
// brute-force oracle checks, on the worker-pool execution engine
// (parallelism 4, so the race detector sees the concurrent path). Every
// scenario must have at least one compatible algorithm, so the full
// generator registry is exercised. No run may break a memory or
// communication cap of the model: every summed Stats records no violation.
func TestDifferentialAllPairs(t *testing.T) {
	for _, scName := range workload.Names() {
		sc, err := workload.Get(scName)
		if err != nil {
			t.Fatal(err)
		}
		compatible := 0
		for _, algoName := range AlgorithmNames() {
			algo, err := GetAlgorithm(algoName)
			if err != nil {
				t.Fatal(err)
			}
			if Compatible(algo, sc) != nil {
				continue
			}
			compatible++
			t.Run(scName+"/"+algoName, func(t *testing.T) {
				t.Parallel()
				rep, err := Run(algoName, scName, Options{N: 48, Batches: 20, Seed: 3, Parallelism: 4})
				if err != nil {
					t.Fatal(err)
				}
				if st := rep.Stats; st.ViolationCount != 0 {
					t.Errorf("%d violations, the first %q", st.ViolationCount, st.Violations[0])
				}
				if rep.Updates == 0 {
					t.Error("scenario emitted no updates")
				}
				if rep.Checks == 0 {
					t.Error("no differential checks ran")
				}
				if rep.Searches != nil && rep.Searches.Exhausted != 0 {
					t.Errorf("%d replacement searches ran out of sketch copies at the default copy count", rep.Searches.Exhausted)
				}
			})
		}
		if compatible == 0 {
			t.Errorf("scenario %s has no compatible algorithm", scName)
		}
	}
}

// TestParallelismIdenticalReports replays every registered scenario through
// every compatible algorithm at parallelism 1, 2, and 8: the reports
// (updates, checks, rounds, final edges) must be bit-identical — the
// execution engine's core guarantee (the one-worker loop and the
// work-stealing pool are interchangeable, and every round's exchange is one
// serial pass), made visible through the harness on the full generator
// registry.
func TestParallelismIdenticalReports(t *testing.T) {
	for _, scName := range workload.Names() {
		sc, err := workload.Get(scName)
		if err != nil {
			t.Fatal(err)
		}
		for _, algoName := range AlgorithmNames() {
			algo, err := GetAlgorithm(algoName)
			if err != nil {
				t.Fatal(err)
			}
			if Compatible(algo, sc) != nil {
				continue
			}
			t.Run(scName+"/"+algoName, func(t *testing.T) {
				t.Parallel()
				opt := Options{N: 48, Batches: 6, Seed: 5}
				opt.Parallelism = 1
				seq, err := Run(algoName, scName, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range []int{2, 8} {
					opt.Parallelism = p
					par, err := Run(algoName, scName, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(seq, par) {
						t.Errorf("report at parallelism %d differs from sequential:\n  seq: %v\n  par: %v", p, seq, par)
					}
				}
			})
		}
	}
}

// TestCompatibilityGates checks the pairing rules and their error messages.
func TestCompatibilityGates(t *testing.T) {
	cases := []struct {
		algo, scenario, wantErr string
	}{
		{"msf", "churn-weighted", "insertion-only"},
		{"matching", "powerlaw", "insertion-only"},
		{"msf", "grow", "weighted"},
		{"approxmsf", "churn", "weighted"},
	}
	for _, c := range cases {
		if _, err := Run(c.algo, c.scenario, Options{}); err == nil {
			t.Errorf("%s over %s accepted", c.algo, c.scenario)
		} else if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s over %s: error %q misses %q", c.algo, c.scenario, err, c.wantErr)
		}
	}
}

// TestUnknownNames checks the registry error paths.
func TestUnknownNames(t *testing.T) {
	if _, err := Run("no-such-algo", "churn", Options{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := Run("connectivity", "no-such-scenario", Options{}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := GetAlgorithm("nope"); err == nil {
		t.Error("GetAlgorithm(nope) succeeded")
	}
}

// TestReportString covers the report rendering: the summed rounds of a
// multi-cluster algorithm, and the exhausted-search suffix.
func TestReportString(t *testing.T) {
	rep, err := Run("dynmatching", "star", Options{N: 32, Batches: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.String(); strings.Contains(s, "n/a") || !strings.Contains(s, fmt.Sprintf(" %d rounds", rep.Stats.Rounds)) {
		t.Errorf("dynmatching report %q should carry its %d rounds", s, rep.Stats.Rounds)
	}
	rep, err = Run("connectivity", "churn", Options{N: 32, Batches: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.String(); strings.Contains(s, "n/a") || strings.Contains(s, "exhausted") {
		t.Errorf("connectivity report %q should have real rounds and no exhausted search", s)
	}
	rep.Searches.Exhausted = 2
	if s := rep.String(); !strings.Contains(s, "2 replacement searches exhausted") || strings.Contains(s, "violations") {
		t.Errorf("report %q hides its exhausted searches or names violations it has not got", s)
	}
	rep.Stats.ViolationCount, rep.Stats.Violations = 1, []string{"machine 0 stores 9 words (cap 8)"}
	if s := rep.String(); !strings.Contains(s, ", 1 model violations") {
		t.Errorf("report %q hides its violation", s)
	}
}

// TestEveryAlgorithmReportsRounds runs every registered algorithm for one
// batch of its first compatible scenario: each is cluster-backed, so each
// reports the rounds, messages and memory it spent, summed over all of its
// clusters.
func TestEveryAlgorithmReportsRounds(t *testing.T) {
	for _, algoName := range AlgorithmNames() {
		algo, err := GetAlgorithm(algoName)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(workload.Names(), func(name string) bool {
			sc, err := workload.Get(name)
			return err == nil && Compatible(algo, sc) == nil
		})
		if i < 0 {
			t.Fatalf("%s has no compatible scenario", algoName)
		}
		scName := workload.Names()[i]
		rep, err := Run(algoName, scName, Options{N: 32, Batches: 1, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if st := rep.Stats; rep.Batches != 1 || st.Rounds <= 0 || st.Messages <= 0 || st.PeakTotalWords <= 0 {
			t.Errorf("%s over %s: %+v after %d batches, want rounds, messages and words after 1", algoName, scName, st, rep.Batches)
		}
	}
}

// TestCheckEveryNegativeSkipsChecks verifies benchmark mode: no oracle
// work at all.
func TestCheckEveryNegativeSkipsChecks(t *testing.T) {
	rep, err := Run("connectivity", "churn", Options{N: 32, Batches: 4, Seed: 2, CheckEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checks != 0 {
		t.Errorf("CheckEvery -1 still ran %d checks", rep.Checks)
	}
}

// TestPullLoopIndexing pins how the harness indexes a generator that stalls:
// grow on 8 vertices runs out of absent edges well within 40 batches and
// then emits empty batches. Report.Batches counts only the non-empty ones,
// while the CheckEvery cadence counts generator iterations, empties included
// (an empty iteration runs no check).
func TestPullLoopIndexing(t *testing.T) {
	const batches, size, checkEvery = 40, 2, 3
	opt := Options{N: 8, Batches: batches, BatchSize: size, Seed: 5, CheckEvery: checkEvery}
	rep, err := Run("connectivity", "grow", opt)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := workload.Get("grow")
	if err != nil {
		t.Fatal(err)
	}
	twin := sc.New(opt.N, opt.Seed+1)
	applied, updates, checks := 0, 0, 1 // the end-of-stream check
	for i := range batches {
		b := twin.Next(size)
		if len(b) == 0 {
			continue
		}
		applied++
		updates += len(b)
		if (i+1)%checkEvery == 0 {
			checks++
		}
	}
	if applied == batches {
		t.Fatal("grow never stalled: the test needs empty batches")
	}
	if rep.Batches != applied || rep.Updates != updates {
		t.Errorf("report counts %d batches of %d updates, want the %d non-empty of %d updates", rep.Batches, rep.Updates, applied, updates)
	}
	if rep.Checks != checks {
		t.Errorf("%d checks, want %d", rep.Checks, checks)
	}
	if rep.FinalEdges != opt.N*(opt.N-1)/2 {
		t.Errorf("%d edges final, want the complete graph's %d", rep.FinalEdges, opt.N*(opt.N-1)/2)
	}
}

// TestApproxMSFForestIsAForest is the regression test for the approximate
// forest's extraction: keeping an F_i edge whenever its endpoints differ in
// G_{i-1}'s labels closed a cycle when two such edges reached one G_{i-1}
// component from the same outside component, and the forest then weighed
// more than (1+ε) times the MSF (seed 0, batch 10).
func TestApproxMSFForestIsAForest(t *testing.T) {
	if _, err := Run("approxmsf", "churn-weighted", Options{Batches: 20}); err != nil {
		t.Fatal(err)
	}
}
