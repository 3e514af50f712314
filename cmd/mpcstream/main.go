// Command mpcstream runs one algorithm over a generated update stream on
// the MPC simulator and reports solution and resource statistics.
//
// Usage:
//
//	mpcstream -algo connectivity -n 256 -phi 0.6 -batches 20
//	mpcstream -algo msf -n 128 -maxweight 64
//	mpcstream -algo bipartite -n 128
//	mpcstream -algo matching -n 128 -alpha 4
//	mpcstream -algo connectivity -stream trace.txt
//	mpcstream -algo connectivity -n 4096 -parallelism 8
//	mpcstream -algo connectivity -n 1024 -queries 512
//	mpcstream -algo nowickionak -scenario bursty -n 256
//
// Algorithms: connectivity, msf (exact, insertion-only), approxmsf,
// bipartite, matching (insertion-only greedy), dynmatching (AKLY),
// nowickionak (with -scenario, -stream or -trace). With -stream, updates are
// replayed from a file in the streamio text format instead of being
// generated; with
// -trace, from a segmented binary trace (internal/trace format), streamed
// one segment at a time so a trace far larger than memory replays in
// O(segment). -stream, -trace, and -scenario are mutually exclusive. With
// -scenario, the named workload-registry stream is run through the
// differential harness: every batch is cross-checked against the
// brute-force oracle and the run fails loudly on divergence. -parallelism
// selects the simulator's execution engine (worker-pool rounds); results
// and reported statistics are identical at every setting. -queries turns
// the connectivity run into a read/write mix: after every update batch the
// given number of connectivity queries is answered through one batched
// ConnectedAll collective, oracle-verified, and reported as rounds/query.
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
// -stream or -trace (of connectivity in the generated mode), plus the mirror
// graph, so a later invocation can continue the run without replaying it;
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
//	mpcstream -algo connectivity -n 256 -batches 50 -checkpoint state.snap
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
	insertBias                         float64
	streamFile, traceFile, convertFile string
	window                             int64
	traceBatches, queries              int
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
	flag.Float64Var(&o.insertBias, "insertbias", 0.6, "probability of keeping an existing edge")
	flag.StringVar(&o.streamFile, "stream", "", "replay updates from a streamio-format text file (with -convert: the text output path)")
	flag.StringVar(&o.traceFile, "trace", "", "replay updates from a binary trace file (internal/trace format; with -convert: the binary output path)")
	flag.StringVar(&o.convertFile, "convert", "", "convert this SNAP-style edge-list file into the -trace and/or -stream output(s) instead of running an algorithm")
	flag.Int64Var(&o.window, "window", 0, "with -convert: expire each edge this many time units after insertion, emitting deletions (0 = keep edges forever)")
	flag.IntVar(&o.traceBatches, "trace-batches", 0, "with -trace replay: apply at most this many trace batches (0 = all); combine with -checkpoint and a later -resume to continue mid-trace")
	flag.IntVar(&o.queries, "queries", 0,
		"read/write mix: issue this many batched connectivity queries after every update batch (-algo connectivity; answers are oracle-verified)")
	flag.StringVar(&o.scenario, "scenario", "",
		fmt.Sprintf("run a registered workload scenario under the differential harness (have %v)", workload.Names()))
	flag.IntVar(&o.parallelism, "parallelism", runtime.NumCPU(),
		"execution-engine workers per cluster (0 or 1 = sequential, <0 = NumCPU); results are identical at every setting")
	flag.StringVar(&o.checkpointFile, "checkpoint", "",
		"write a crash-safe snapshot of the final state to this file (-stream or -trace mode; generated mode for -algo connectivity)")
	flag.StringVar(&o.resumeFile, "resume", "",
		"restore state from a -checkpoint snapshot before replaying further updates (requires -stream)")
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
	// inside a constructor (e.g. workload.NewQueryMix on n < 2).
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
	case o.scenario != "":
		// Stream a registered scenario through the named algorithm under
		// the differential harness, oracle-checking every batch.
		rep, err := harness.Run(o.algo, o.scenario, harness.Options{
			N: o.n, Batches: o.batches, Seed: o.seed, Phi: o.phi, Parallelism: o.parallelism,
			Alpha: o.alpha, Eps: o.eps, MaxWeight: o.maxWeight, CrashEvery: o.crashEvery,
			FaultEvery:      o.faultEvery,
			CheckpointEvery: o.deltaEvery, MaxDeltaChain: o.maxDeltaChain,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, rep)
		return nil
	default:
		return runGenerated(o, out)
	}
}

// validateFlags rejects invalid or incoherent flag combinations up front.
func validateFlags(f options) error {
	if f.n < 2 {
		return fmt.Errorf("-n must be at least 2 (got %d)", f.n)
	}
	// The generator config check covers -maxweight and -insertbias: a bad
	// value is a usage error here, not a panic inside workload.NewChurn.
	if err := (workload.Config{N: f.n, MaxWeight: f.maxWeight, InsertBias: f.insertBias}).Validate(); err != nil {
		return err
	}
	if f.batches < 0 {
		return fmt.Errorf("-batches must be non-negative (got %d)", f.batches)
	}
	if f.queries < 0 {
		return fmt.Errorf("-queries must be non-negative (got %d)", f.queries)
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
		if f.scenario != "" || f.resumeFile != "" || f.checkpointFile != "" || f.queries > 0 ||
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
	if f.queries > 0 && set > 0 {
		// Fail loudly rather than silently running a write-only stream: the
		// read/write mix is only wired into the generated-stream mode.
		return fmt.Errorf("-queries is only supported in the generated-stream mode (not with -stream, -trace, or -scenario)")
	}
	if f.queries > 0 && f.algo != "connectivity" {
		return fmt.Errorf("-queries requires -algo connectivity, got %q", f.algo)
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
	if f.resumeFile != "" && f.streamFile == "" && f.traceFile == "" {
		return fmt.Errorf("-resume requires -stream or -trace: a generated workload cannot continue a restored graph " +
			"(its generator state is not part of the snapshot)")
	}
	if f.checkpointFile != "" && (f.scenario != "" || set == 0 && f.algo != "connectivity") {
		return fmt.Errorf("-checkpoint is supported for -algo connectivity in the generated mode and for every algorithm in the -stream and -trace modes")
	}
	return nil
}
