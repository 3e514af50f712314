// Command experiments regenerates every experiment table (E1–E16; see
// README.md "Experiments").
//
// Usage:
//
//	experiments [-quick] [-only E1,E3] [-parallelism N] [-scenario powerlaw,window]
//
// -quick shrinks the instance sizes for a fast smoke run; -only restricts
// to a comma-separated list of experiment ids; -parallelism sets the
// execution-engine worker count for every experiment (0 or 1 sequential,
// negative = NumCPU). Tables are identical at every parallelism; only
// wall-clock changes. -scenario restricts the E14 differential sweep to a
// comma-separated subset of the workload scenario registry (default: all).
// Checkpoint files on disk are mpcstream's (-checkpoint, -resume).
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the run (see
// README.md "Profiling"); combine with -only to profile one experiment.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/workload"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-size instances")
	only := flag.String("only", "", "comma-separated experiment ids (default all)")
	parallelism := flag.Int("parallelism", runtime.NumCPU(),
		"execution-engine workers per cluster (0 or 1 = sequential, <0 = NumCPU)")
	scenario := flag.String("scenario", "",
		fmt.Sprintf("comma-separated scenarios for the E14 sweep (default all; have %v)", workload.Names()))
	queries := flag.Int("queries", 0,
		"query batch size for the E15 query-throughput experiment (0 = 1024, or 256 with -quick)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if *queries < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -queries must be non-negative (got %d)\n", *queries)
		os.Exit(2)
	}
	experiments.Parallelism = *parallelism

	var scenarios []string
	if *scenario != "" {
		for _, s := range strings.Split(*scenario, ",") {
			name := strings.TrimSpace(s)
			if _, err := workload.Get(name); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			scenarios = append(scenarios, name)
		}
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	for id := range want {
		switch id {
		case "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16":
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment id %q\n", id)
			os.Exit(2)
		}
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	run := func(id string, fn func() *experiments.Table) {
		if len(want) > 0 && !want[id] {
			return
		}
		fmt.Println(fn())
	}

	sizes := []int{64, 128, 256, 512}
	msfSizes := []int{64, 128, 256}
	batches := 8
	if *quick {
		sizes = []int{48, 96}
		msfSizes = []int{48}
		batches = 4
	}

	run("E1", func() *experiments.Table {
		return experiments.E1ConnectivityRounds(sizes[:len(sizes)-1], []float64{0.5, 0.7}, batches, 1)
	})
	run("E2", func() *experiments.Table {
		return experiments.E2ConnectivityMemory(sizes[1], 0.6, []int{100, 300, 600, 1000}, 2)
	})
	run("E3", func() *experiments.Table {
		return experiments.E3QueryVsAGM(sizes, 3)
	})
	run("E4", func() *experiments.Table {
		return experiments.E4ExactMSF(msfSizes, batches, 4)
	})
	run("E5", func() *experiments.Table {
		return experiments.E5ApproxMSF(msfSizes[0], []float64{0.1, 0.25, 0.5}, batches, 5)
	})
	run("E6", func() *experiments.Table {
		return experiments.E6Bipartiteness(msfSizes[0], 10, 6)
	})
	run("E7", func() *experiments.Table {
		return experiments.E7InsertMatching(2*msfSizes[0], []float64{2, 4, 8}, 7)
	})
	run("E8", func() *experiments.Table {
		return experiments.E8DynamicMatching(48, []float64{2, 4}, batches, 8)
	})
	run("E9", func() *experiments.Table {
		return experiments.E9BatchScaling(sizes[len(sizes)-2], []float64{0.1, 0.25, 0.5, 1}, 5, 9)
	})
	run("E10", func() *experiments.Table {
		return experiments.E10EulerTourAblation(2*sizes[len(sizes)-2], []int{4, 16, 64}, 10)
	})
	run("E11", func() *experiments.Table {
		seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
		if *quick {
			seeds = seeds[:3]
		}
		return experiments.E11SketchCopiesAblation(msfSizes[0], []int{1, 2, 4, 8, 0x0}[0:4], batches, seeds)
	})
	run("E12", func() *experiments.Table {
		return experiments.E12CommunicationPerRound(sizes[:len(sizes)-1], batches, 12)
	})
	run("E13", func() *experiments.Table {
		par := []int{1, 2, runtime.NumCPU()}
		n := 4 * sizes[len(sizes)-1]
		if *quick {
			par = []int{1, runtime.NumCPU()}
			n = 2 * sizes[len(sizes)-1]
		}
		return experiments.E13ParallelSpeedup(n, par, batches, 13)
	})
	run("E14", func() *experiments.Table {
		return experiments.E14ScenarioSweep(msfSizes[0], batches, scenarios, 14)
	})
	run("E15", func() *experiments.Table {
		q := *queries
		if q <= 0 {
			q = 1024
			if *quick {
				q = 256
			}
		}
		return experiments.E15QueryThroughput(sizes[:len(sizes)-1], batches, q, 15)
	})
	run("E16", func() *experiments.Table {
		return experiments.E16CrashRecovery(msfSizes, 2*batches, 4, 16)
	})
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
