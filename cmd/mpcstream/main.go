// Command mpcstream runs one algorithm over a stream of update batches on
// the MPC simulator, checks it against the brute-force oracle, and reports
// solution and resource statistics.
//
// Usage:
//
//	mpcstream -algo connectivity -n 256 -phi 0.6 -batches 20
//	mpcstream -algo msf -n 128
//	mpcstream -algo matching -n 128 -alpha 4
//	mpcstream -algo nowickionak -scenario bursty -n 256
//	mpcstream -algo connectivity -scenario powerlaw -n 4096 -parallelism 8
//	mpcstream -algo connectivity -stream trace.txt
//
// Algorithms: connectivity, msf (exact, insertion-only), approxmsf,
// bipartite, matching (insertion-only greedy), dynmatching (AKLY) and
// nowickionak — every algorithm registered with internal/harness, on every
// input. The input is one of -scenario (a registered workload scenario),
// -stream (a file in the streamio text format) and -trace (a segmented
// binary trace in the internal/trace format, streamed one segment at a time
// so a trace far larger than memory replays in O(segment)). Without one, the
// run streams the churn scenario the algorithm accepts: churn, or grow for
// an insertion-only algorithm, with a -weighted suffix for one that needs
// weights. A scenario of -batches batches on -n vertices runs under the
// differential harness, which cross-checks every batch against the
// brute-force oracle; a replay is verified against its mirror graph at the
// end. A divergence fails the run. -parallelism selects the simulator's
// execution engine (worker-pool rounds); results and reported statistics
// are identical at every setting. Batched connectivity queries are measured,
// and every answer oracle-checked, by experiment E15 (cmd/experiments).
//
// Ingestion (see internal/trace): -convert in.edges converts a SNAP-style
// text edge list ("u v", "u v t", or "u v w t" lines, timestamps
// non-decreasing) into the output(s) named by -trace (binary) and/or
// -stream (text), streaming both ends; -window W expires each edge W time
// units after insertion, emitting deletions. Self-loops and duplicate live
// edges are dropped and counted. The replay paths then consume either
// format interchangeably:
//
//	mpcstream -convert collab.edges -window 40 -trace collab.trace
//	mpcstream -algo connectivity -trace collab.trace
//	mpcstream -algo connectivity -trace collab.trace -trace-batches 50 -checkpoint c.snap
//	mpcstream -algo connectivity -trace collab.trace -resume c.snap
//
// A -trace replay records how many trace batches it applied in every
// checkpoint, so -resume seeks straight to the next segment boundary via
// the trace's footer index instead of re-reading the prefix; -trace-batches
// caps the replay to make such mid-trace checkpoints. -resume with -stream
// keeps its historical meaning: the text file holds further updates, all
// of which are replayed on top of the snapshot.
//
// Checkpoint & recovery (see internal/snapshot): -checkpoint writes a
// crash-safe snapshot of the final state of any algorithm replaying a
// -stream or -trace, plus the mirror graph, so a later invocation can
// continue the run without replaying it (to checkpoint a synthetic stream,
// generate an edge list with scripts/genedges and -convert it);
// -resume restores such a snapshot before replaying a -stream trace of
// further updates, oracle-verified against the restored mirror. Checkpoints
// form a chain: when -resume and -checkpoint name the same path, the new
// checkpoint is an incremental delta carrying only the replayed update
// batches (a later -resume replays them on top of the base and prints how
// many), compacted into a fresh full base every -max-delta-chain deltas, or
// at once when the delta would hold more than one update per vertex; stale
// temp files from an interrupted checkpoint
// are swept before loading. The replay runs on an internal/session Session
// (the same lifecycle mpcserve and the harness use); snapshots written by a
// build from before that package are rejected by their meta section tag. With -scenario, -crash-every k injects a seeded
// kill/restore cycle roughly every k batches into the differential harness
// run — every scenario doubles as a crash/recovery scenario, and the oracle
// checks must still pass after every restore — and -delta-every k cuts a
// chain checkpoint every k batches, so each restore replays a full base
// plus a multi-delta chain.
//
// Elasticity (see internal/snapshot doc): -resume-machines M re-shards the
// restored state of any algorithm onto a fleet of exactly M machines before
// replaying — the deterministic vertex→machine map makes the migration a
// pure state redistribution, rejected with a diagnostic when the shrunken
// per-machine memory budget cannot hold it. With -scenario, -fault-every k kills a
// seeded machine roughly every k batches; each loss is recovered by
// re-sharding the last checkpoint onto the surviving fleet and replaying
// the in-flight batches, with the oracle still checking every batch.
//
//	mpcstream -algo connectivity -trace collab.trace -checkpoint state.snap
//	mpcstream -algo connectivity -resume state.snap -stream more.txt
//	mpcstream -algo connectivity -resume state.snap -stream more.txt -checkpoint state.snap
//	mpcstream -algo connectivity -resume state.snap -resume-machines 9 -stream more.txt
//	mpcstream -algo connectivity -scenario powerlaw -batches 200 -crash-every 50 -delta-every 10
//	mpcstream -algo connectivity -scenario powerlaw -batches 200 -fault-every 60
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the run (see
// README.md "Profiling").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/harness"
	"repro/internal/profiling"
	"repro/internal/workload"
)

// options carries every parsed flag: one struct handed to validateFlags and
// run, so adding a flag cannot silently swap two ints at a call site.
type options struct {
	algo                               string
	n, batches                         int
	phi                                float64
	seed                               uint64
	alpha, eps                         float64
	maxWeight                          int64
	streamFile, traceFile, convertFile string
	window                             int64
	traceBatches                       int
	scenario                           string
	parallelism                        int
	checkpointFile, resumeFile         string
	resumeMachines                     int
	crashEvery, faultEvery, deltaEvery int
	maxDeltaChain                      int
	cpuProfile, memProfile             string
}

func main() {
	var o options
	flag.StringVar(&o.algo, "algo", "connectivity", "algorithm to run")
	flag.IntVar(&o.n, "n", 256, "number of vertices")
	flag.Float64Var(&o.phi, "phi", 0.6, "local-memory exponent")
	flag.IntVar(&o.batches, "batches", 20, "number of update batches")
	flag.Uint64Var(&o.seed, "seed", 1, "workload and algorithm seed")
	flag.Float64Var(&o.alpha, "alpha", 4, "matching approximation parameter")
	flag.Float64Var(&o.eps, "eps", 0.25, "MSF approximation parameter")
	flag.Int64Var(&o.maxWeight, "maxweight", 64, "maximum edge weight")
	flag.StringVar(&o.streamFile, "stream", "", "replay updates from a streamio-format text file (with -convert: the text output path)")
	flag.StringVar(&o.traceFile, "trace", "", "replay updates from a binary trace file (internal/trace format; with -convert: the binary output path)")
	flag.StringVar(&o.convertFile, "convert", "", "convert this SNAP-style edge-list file into the -trace and/or -stream output(s) instead of running an algorithm")
	flag.Int64Var(&o.window, "window", 0, "with -convert: expire each edge this many time units after insertion, emitting deletions (0 = keep edges forever)")
	flag.IntVar(&o.traceBatches, "trace-batches", 0, "with -trace replay: apply at most this many trace batches (0 = all); combine with -checkpoint and a later -resume to continue mid-trace")
	flag.StringVar(&o.scenario, "scenario", "",
		fmt.Sprintf("run a registered workload scenario under the differential harness (have %v; default: the churn scenario the algorithm accepts)", workload.Names()))
	flag.IntVar(&o.parallelism, "parallelism", runtime.NumCPU(),
		"execution-engine workers per cluster (0 or 1 = sequential, <0 = NumCPU); results are identical at every setting")
	flag.StringVar(&o.checkpointFile, "checkpoint", "",
		"write a crash-safe snapshot of the final state to this file (requires -stream or -trace)")
	flag.StringVar(&o.resumeFile, "resume", "",
		"restore state from a -checkpoint snapshot before replaying further updates (requires -stream or -trace)")
	flag.IntVar(&o.resumeMachines, "resume-machines", 0,
		"with -resume: re-shard the restored state onto a fleet of exactly this many machines before replaying (0 = keep the snapshot's shape)")
	flag.IntVar(&o.crashEvery, "crash-every", 0,
		"with -scenario: inject a seeded kill+checkpoint+restore cycle roughly every k batches (0 disables)")
	flag.IntVar(&o.faultEvery, "fault-every", 0,
		"with -scenario: kill a seeded machine roughly every k batches; each loss recovers by re-sharding the last checkpoint onto the survivors and replaying the journal (0 disables)")
	flag.IntVar(&o.deltaEvery, "delta-every", 0,
		"with -scenario: checkpoint every k batches into an in-memory chain (full base, then deltas), so crash restores replay base+chain (0 disables)")
	flag.IntVar(&o.maxDeltaChain, "max-delta-chain", 8,
		"delta checkpoints allowed per full base before compaction (0 = full checkpoints only)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// Validate flags before constructing generators or clusters, so a bad
	// combination is a usage error on stderr, not a raw panic from deep
	// inside a constructor (e.g. a generator on n < 2).
	if err := validateFlags(o); err != nil {
		fmt.Fprintln(os.Stderr, "mpcstream:", err)
		os.Exit(2)
	}
	stopProfiles, err := profiling.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpcstream:", err)
		os.Exit(2)
	}
	err = run(o, os.Stdout)
	// Profiles are written even for a failed run — a hang or slow failure
	// is exactly when a profile is wanted.
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintln(os.Stderr, "mpcstream:", perr)
		if err == nil {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpcstream:", err)
		os.Exit(1)
	}
}

// run executes the mode the (validated) options select, printing to out.
func run(o options, out io.Writer) error {
	switch {
	case o.convertFile != "":
		return runConvert(o, out)
	case o.traceFile != "" || o.streamFile != "":
		return replay(o, out)
	default:
		return runScenario(o, out)
	}
}

// runScenario streams a registered scenario — -scenario, or the churn
// scenario the algorithm accepts — through the algorithm under the
// differential harness, which oracle-checks every batch, and prints the
// harness report plus the lines a replay prints.
func runScenario(o options, out io.Writer) error {
	scenario := o.scenario
	if scenario == "" {
		algo, err := harness.GetAlgorithm(o.algo)
		if err != nil {
			return err
		}
		scenario = "churn"
		if algo.InsertOnly {
			scenario = "grow"
		}
		if algo.NeedsWeights {
			scenario += "-weighted"
		}
	}
	rep, err := harness.Run(o.algo, scenario, harness.Options{
		N: o.n, Batches: o.batches, Seed: o.seed, Phi: o.phi, Parallelism: o.parallelism,
		Alpha: o.alpha, Eps: o.eps, MaxWeight: o.maxWeight, CrashEvery: o.crashEvery,
		FaultEvery:      o.faultEvery,
		CheckpointEvery: o.deltaEvery, MaxDeltaChain: o.maxDeltaChain,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, rep)
	if rep.Stats != nil {
		report(out, *rep.Stats, rep.Batches)
	}
	if rep.Searches != nil {
		reportSearches(out, *rep.Searches)
	}
	return nil
}

// validateFlags rejects invalid or incoherent flag combinations up front.
// A zero where a positive value is required is rejected too, never replaced
// by a default.
func validateFlags(f options) error {
	if f.n < 2 {
		return fmt.Errorf("-n must be at least 2 (got %d)", f.n)
	}
	if f.batches < 1 {
		return fmt.Errorf("-batches must be at least 1 (got %d)", f.batches)
	}
	if f.phi <= 0 || f.phi > 1 {
		return fmt.Errorf("-phi must be in (0, 1] (got %v)", f.phi)
	}
	if f.alpha <= 0 {
		return fmt.Errorf("-alpha must be positive (got %v)", f.alpha)
	}
	if f.eps <= 0 {
		return fmt.Errorf("-eps must be positive (got %v)", f.eps)
	}
	if f.maxWeight < 1 {
		return fmt.Errorf("-maxweight must be at least 1 (got %d)", f.maxWeight)
	}
	if f.crashEvery < 0 {
		return fmt.Errorf("-crash-every must be non-negative (got %d)", f.crashEvery)
	}
	if f.window < 0 {
		return fmt.Errorf("-window must be non-negative (got %d)", f.window)
	}
	if f.traceBatches < 0 {
		return fmt.Errorf("-trace-batches must be non-negative (got %d)", f.traceBatches)
	}
	if f.convertFile != "" {
		// Conversion mode: -trace/-stream name the outputs.
		if f.traceFile == "" && f.streamFile == "" {
			return fmt.Errorf("-convert needs at least one output: -trace (binary) and/or -stream (text)")
		}
		if f.scenario != "" || f.resumeFile != "" || f.checkpointFile != "" ||
			f.crashEvery > 0 || f.faultEvery > 0 || f.deltaEvery > 0 || f.traceBatches > 0 {
			return fmt.Errorf("-convert only combines with -trace/-stream outputs and -window")
		}
		return nil
	}
	if f.window > 0 {
		return fmt.Errorf("-window only applies to -convert")
	}
	// Replay/run modes: the three stream selectors are mutually exclusive.
	set := 0
	for _, s := range []string{f.streamFile, f.traceFile, f.scenario} {
		if s != "" {
			set++
		}
	}
	if set > 1 {
		return fmt.Errorf("-stream, -trace, and -scenario are mutually exclusive (pick one input)")
	}
	if f.traceBatches > 0 && f.traceFile == "" {
		return fmt.Errorf("-trace-batches requires -trace")
	}
	if f.crashEvery > 0 && f.scenario == "" {
		return fmt.Errorf("-crash-every requires -scenario")
	}
	if f.faultEvery < 0 {
		return fmt.Errorf("-fault-every must be non-negative (got %d)", f.faultEvery)
	}
	if f.faultEvery > 0 && f.scenario == "" {
		return fmt.Errorf("-fault-every requires -scenario")
	}
	if f.resumeMachines < 0 {
		return fmt.Errorf("-resume-machines must be non-negative (got %d)", f.resumeMachines)
	}
	if f.resumeMachines > 0 && f.resumeFile == "" {
		return fmt.Errorf("-resume-machines requires -resume")
	}
	if f.deltaEvery < 0 {
		return fmt.Errorf("-delta-every must be non-negative (got %d)", f.deltaEvery)
	}
	if f.maxDeltaChain < 0 {
		return fmt.Errorf("-max-delta-chain must be non-negative (got %d)", f.maxDeltaChain)
	}
	if f.deltaEvery > 0 && f.scenario == "" {
		return fmt.Errorf("-delta-every requires -scenario")
	}
	// Checkpoints belong to replays: a scenario's generator state is not
	// part of a snapshot, so a scenario run can neither continue a restored
	// graph nor hand one on.
	if f.streamFile == "" && f.traceFile == "" {
		if f.resumeFile != "" {
			return fmt.Errorf("-resume requires -stream or -trace")
		}
		if f.checkpointFile != "" {
			return fmt.Errorf("-checkpoint requires -stream or -trace (to checkpoint a synthetic stream, -convert a scripts/genedges edge list)")
		}
	}
	return nil
}
