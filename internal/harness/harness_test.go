package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestDifferentialAllPairs is the heart of the package: every registered
// scenario is streamed through every compatible algorithm with per-batch
// brute-force oracle checks, on the worker-pool execution engine
// (parallelism 4, so the race detector sees the concurrent path). Every
// scenario must have at least one compatible algorithm, so the full
// generator registry is exercised.
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
				rep, err := Run(algoName, scName, Options{N: 48, Batches: 8, Seed: 3, Parallelism: 4})
				if err != nil {
					t.Fatal(err)
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
// execution engine's core guarantee (sequential loop, work-stealing pool,
// and sharded parallel merge are interchangeable), made visible through the
// harness on the full generator registry.
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

// TestReportString covers the report rendering, including the n/a rounds
// case of non-cluster-backed algorithms.
func TestReportString(t *testing.T) {
	rep, err := Run("dynmatching", "star", Options{N: 32, Batches: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.String(); !strings.Contains(s, "n/a rounds") {
		t.Errorf("dynmatching report %q should have n/a rounds", s)
	}
	rep, err = Run("connectivity", "churn", Options{N: 32, Batches: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.String(); strings.Contains(s, "n/a") || strings.Contains(s, "exhausted") {
		t.Errorf("connectivity report %q should have real rounds and no exhausted search", s)
	}
	rep.Searches.Exhausted = 2
	if s := rep.String(); !strings.Contains(s, "2 replacement searches exhausted") {
		t.Errorf("report %q hides its exhausted searches", s)
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
