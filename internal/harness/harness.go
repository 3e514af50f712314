// Package harness is the differential-testing engine: it runs any
// registered dynamic algorithm over any registered workload scenario and
// cross-checks every batch against the sequential brute-force oracles.
// Experiments, the CLIs (-scenario), and the test suites all share this
// one checker instead of hand-rolling per-experiment oracle comparisons.
//
// The harness pairs algorithms with scenarios through two compatibility
// axes carried by the registries: insertion-only algorithms (exact MSF,
// greedy matching) accept only insertion-only streams, and the MSF
// algorithms require weighted streams. Everything else runs everywhere.
// Cluster-backed algorithms honour Options.Parallelism, so the same
// differential run exercises both the sequential and the worker-pool
// execution engines.
package harness

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/workload"

	// Register the embedded real-trace scenario (collab32) alongside the
	// synthetic generators, so every harness sweep covers the converter
	// ingestion path too.
	_ "repro/internal/trace"
)

// Options parameterizes one differential run. The zero value is usable:
// every field has a small-instance default.
type Options struct {
	// N is the number of vertices (default 48).
	N int
	// Batches is the number of generator batches to stream (default 10).
	Batches int
	// BatchSize caps the updates requested per batch; 0 uses the
	// algorithm's MaxBatch.
	BatchSize int
	// Seed drives both the algorithm (Seed) and the generator (Seed+1),
	// mirroring the experiments' convention.
	Seed uint64
	// Phi is the local-memory exponent of cluster-backed algorithms
	// (default 0.6).
	Phi float64
	// Parallelism selects the execution engine of cluster-backed
	// algorithms (see mpc.Config.Parallelism).
	Parallelism int
	// Alpha is the matching approximation parameter (default 4).
	Alpha float64
	// Eps is the approximate-MSF parameter (default 0.25).
	Eps float64
	// MaxWeight is the weight cap assumed by the approximate MSF; it must
	// cover the scenario's weight range (default 64, matching the
	// registered weighted scenarios).
	MaxWeight int64
	// CheckEvery runs the differential check after every k-th batch plus
	// once at the end (default 1: every batch). Negative disables all
	// checks — benchmark mode, measuring pure harness overhead.
	CheckEvery int
	// CrashEvery > 0 decorates the run with fault injection: at seeded
	// batch indices (one crash per CrashEvery batches on average, drawn
	// from workload.NewCrashSchedule seeded with Seed+3) the instance is
	// checkpointed, torn down, rebuilt from scratch, and restored — so every
	// scenario doubles as a crash/recovery scenario. Results, oracle checks,
	// and (for deterministic algorithms) Stats are identical to an
	// uninterrupted run.
	//
	// Checkpoints ride an in-memory chain: the first is a full base, later
	// ones are deltas when the algorithm implements snapshot.DeltaState
	// (full otherwise), and the chain compacts back to a full base once it
	// holds MaxDeltaChain deltas. A crash restores from the whole chain.
	CrashEvery int
	// CheckpointEvery > 0 additionally checkpoints after every k-th batch
	// without restoring — the periodic-durability cadence. It extends the
	// same chain the crash path restores from, so a run with both options
	// exercises multi-delta chain restores.
	CheckpointEvery int
	// MaxDeltaChain bounds the delta chain before compaction (default 8).
	MaxDeltaChain int
	// FaultEvery > 0 decorates the run with machine-loss injection: at
	// seeded batch indices (one fault per FaultEvery batches on average,
	// drawn from workload.NewMachineFaultSchedule seeded with Seed+5) one
	// MPC machine dies while a batch is in flight. The poisoned batch is
	// discarded, the last checkpoint is loaded onto a fleet one machine
	// smaller (see session.Session.RecoverOnto), and every batch applied
	// since that checkpoint — including the in-flight one — is replayed.
	// Every registered algorithm supports it. Results and oracle checks are
	// identical to an uninterrupted run at the surviving machine count.
	FaultEvery int
	// VerticesPerMachine pins the initial cluster shape of cluster-backed
	// algorithms (0 = derived from Phi, or each algorithm's default);
	// machine-fault recovery shrinks it as the fleet loses machines.
	VerticesPerMachine int
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = 48
	}
	if o.Batches == 0 {
		o.Batches = 10
	}
	if o.Phi == 0 {
		o.Phi = 0.6
	}
	if o.Alpha == 0 {
		o.Alpha = 4
	}
	if o.Eps == 0 {
		o.Eps = 0.25
	}
	if o.MaxWeight == 0 {
		o.MaxWeight = 64
	}
	if o.CheckEvery == 0 {
		o.CheckEvery = 1
	}
	if o.MaxDeltaChain == 0 {
		o.MaxDeltaChain = 8
	}
	return o
}

// Instance is one live algorithm run under the harness: a session.State
// (it applies batches and checkpoints itself, which is what lets
// Options.CrashEvery turn any scenario into a crash/recovery scenario) that
// can also be checked against the oracles.
type Instance interface {
	session.State
	// Check cross-checks the maintained solution against the brute-force
	// oracles on the mirror graph.
	Check(mirror *graph.Graph) error
	// Rounds reports the cumulative MPC rounds consumed, or -1 when the
	// algorithm is not cluster-backed.
	Rounds() int
}

// searchCounter is an optional Instance extension for algorithms that expose
// the counters of their replacement searches.
type searchCounter interface {
	SearchStats() core.SearchStats
}

// finalChecker is an optional Instance extension for invariants that only
// hold at the end of a stream (e.g. the AKLY approximation ratio, which is
// a with-high-probability bound too noisy to assert after every batch).
type finalChecker interface {
	FinalCheck(mirror *graph.Graph) error
}

// Algorithm is a registry entry: a named dynamic algorithm plus the
// compatibility metadata pairing it with scenarios.
type Algorithm struct {
	// Name is the registry key (also the -algo CLI value).
	Name string
	// InsertOnly marks algorithms that only consume insertion streams.
	InsertOnly bool
	// NeedsWeights marks algorithms that require weighted streams.
	NeedsWeights bool
	// New builds a fresh instance.
	New func(opt Options) (Instance, error)
}

// algorithms is populated by init in algorithms.go and read-only afterwards.
var algorithms = map[string]Algorithm{}

// registerAlgorithm adds an entry; duplicate names are programming errors.
func registerAlgorithm(a Algorithm) {
	if a.Name == "" || a.New == nil {
		panic("harness: registerAlgorithm with empty name or nil constructor")
	}
	if _, dup := algorithms[a.Name]; dup {
		panic(fmt.Sprintf("harness: duplicate algorithm %q", a.Name))
	}
	algorithms[a.Name] = a
}

// GetAlgorithm returns the named algorithm or an error listing the valid
// names.
func GetAlgorithm(name string) (Algorithm, error) {
	a, ok := algorithms[name]
	if !ok {
		return Algorithm{}, fmt.Errorf("harness: unknown algorithm %q (have %v)", name, AlgorithmNames())
	}
	return a, nil
}

// AlgorithmNames returns the registered algorithm names, sorted.
func AlgorithmNames() []string {
	out := make([]string, 0, len(algorithms))
	for name := range algorithms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Compatible reports whether the algorithm can consume the scenario's
// stream, with a descriptive error when it cannot.
func Compatible(a Algorithm, s workload.Scenario) error {
	if a.InsertOnly && !s.InsertOnly {
		return fmt.Errorf("harness: %s is insertion-only but scenario %s emits deletions", a.Name, s.Name)
	}
	if a.NeedsWeights && !s.Weighted {
		return fmt.Errorf("harness: %s needs weighted updates but scenario %s is unweighted", a.Name, s.Name)
	}
	return nil
}

// Report summarizes one differential run.
type Report struct {
	Algorithm, Scenario string
	// Batches and Updates count what the generator actually emitted
	// (stalled generators may emit fewer than requested).
	Batches, Updates int
	// Checks is the number of differential checks that passed.
	Checks int
	// FinalEdges is the mirror's edge count after the stream.
	FinalEdges int
	// Rounds is the cumulative MPC round count, or -1 if not cluster-backed.
	Rounds int
	// Crashes counts the injected kill/restore cycles (Options.CrashEvery).
	Crashes int
	// FullCheckpoints and DeltaCheckpoints count the checkpoint containers
	// written by kind (crash-instant and CheckpointEvery combined).
	FullCheckpoints, DeltaCheckpoints int
	// Faults counts the injected machine losses (Options.FaultEvery),
	// Reshards the snapshot-driven state migrations that recovered from
	// them, and ReplayedBatches the batches re-applied during recovery
	// (everything since the last checkpoint plus the in-flight batch).
	Faults, Reshards, ReplayedBatches int
	// Stats is the final instance's cluster statistics; nil unless the
	// algorithm runs on one Cluster().
	Stats *mpc.Stats
	// Searches is the run's replacement-search counters, added up over every
	// instance the run used; nil unless the algorithm exposes them
	// (connectivity). Searches.Exhausted counts the searches that spent every
	// sketch copy with an active supernode left.
	Searches *core.SearchStats
}

// String renders the report in one line.
func (r *Report) String() string {
	rounds := "n/a"
	if r.Rounds >= 0 {
		rounds = fmt.Sprintf("%d", r.Rounds)
	}
	crashes := ""
	if r.Crashes > 0 {
		crashes = fmt.Sprintf(", %d crash/restore cycles", r.Crashes)
	}
	if r.Faults > 0 {
		crashes += fmt.Sprintf(", %d machine faults (%d reshards, %d batches replayed)",
			r.Faults, r.Reshards, r.ReplayedBatches)
	}
	if r.Searches != nil && r.Searches.Exhausted > 0 {
		crashes += fmt.Sprintf(", %d replacement searches exhausted", r.Searches.Exhausted)
	}
	return fmt.Sprintf("%s over %s: %d batches, %d updates, %d edges final, %d checks passed, %s rounds%s",
		r.Algorithm, r.Scenario, r.Batches, r.Updates, r.FinalEdges, r.Checks, rounds, crashes)
}

// Run streams the named scenario through the named algorithm, checking the
// maintained solution against the brute-force oracles after every
// Options.CheckEvery batches and at the end. The first divergence aborts
// the run with an error naming the batch.
func Run(algoName, scenarioName string, opt Options) (*Report, error) {
	algo, err := GetAlgorithm(algoName)
	if err != nil {
		return nil, err
	}
	sc, err := workload.Get(scenarioName)
	if err != nil {
		return nil, err
	}
	return RunScenario(algo, sc, opt)
}

// RunScenario is Run for already-resolved registry entries.
func RunScenario(algo Algorithm, sc workload.Scenario, opt Options) (*Report, error) {
	_, _, rep, err := runScenario(algo, sc, opt)
	return rep, err
}

// runScenario is the engine behind RunScenario; it additionally returns
// the final live instance and the final options (whose VerticesPerMachine
// reflects any fault-driven shrinks), which the fault-recovery tests use
// to compare a faulted run against an uninterrupted twin at the surviving
// fleet shape.
func runScenario(algo Algorithm, sc workload.Scenario, opt Options) (Instance, Options, *Report, error) {
	if err := Compatible(algo, sc); err != nil {
		return nil, opt, nil, err
	}
	opt = opt.withDefaults()
	sess, err := newSession(algo, opt)
	if err != nil {
		return nil, opt, nil, err
	}
	size := sess.State().MaxBatch()
	if opt.BatchSize > 0 && opt.BatchSize < size {
		size = opt.BatchSize
	}
	src := workload.NewGeneratorSource(sc.New(opt.N, opt.Seed+1), opt.Batches, size)
	return driveSource(algo, sc.Name, sess, src, opt)
}

// RunSource streams an external batch source (a replayed trace, a converted
// edge list, a recorded stream) through the named algorithm under the same
// differential checking as Run: the source's mirror is the oracle substrate,
// checks run every Options.CheckEvery source batches plus at the end, and
// crash/fault injection applies unchanged. Options.N defaults to the
// source's Shape().N and must cover it; Options.Batches is ignored — the
// source runs to io.EOF. Source batches larger than the algorithm's
// MaxBatch (or Options.BatchSize) are applied in chunks.
func RunSource(algoName, streamName string, src workload.MirrorSource, opt Options) (*Report, error) {
	algo, err := GetAlgorithm(algoName)
	if err != nil {
		return nil, err
	}
	shape := src.Shape()
	if opt.N == 0 {
		opt.N = shape.N
	}
	if shape.N > opt.N {
		return nil, fmt.Errorf("harness: source %s spans %d vertices but Options.N is %d", streamName, shape.N, opt.N)
	}
	if algo.NeedsWeights && !shape.Weighted {
		return nil, fmt.Errorf("harness: %s needs weighted updates but source %s is unweighted", algoName, streamName)
	}
	opt = opt.withDefaults()
	sess, err := newSession(algo, opt)
	if err != nil {
		return nil, err
	}
	_, _, rep, err := driveSource(algo, streamName, sess, src, opt)
	return rep, err
}

// newSession starts the run's session: a fresh instance at the options'
// shape, on an in-memory chain when any failure decoration is on (the chain
// must outlive the instance it checkpoints, not the process).
func newSession(algo Algorithm, opt Options) (*session.Session, error) {
	cfg := session.Config{
		Shape: opt.coreCfg(),
		New: func(sh session.Shape) (session.State, error) {
			at := opt
			at.VerticesPerMachine = sh.VerticesPerMachine
			return algo.New(at)
		},
		BatchSize: opt.BatchSize,
	}
	if opt.CrashEvery > 0 || opt.CheckpointEvery > 0 || opt.FaultEvery > 0 {
		cfg.Chain = snapshot.OpenChainIn(snapshot.NewMemStore(), algo.Name, opt.MaxDeltaChain)
	}
	return session.New(cfg)
}

// driveSource is the shared engine of RunScenario and RunSource: it pulls
// batches from src until io.EOF, applies each through the session, and runs
// the differential checks and fault decorations at source-batch indices.
// Empty batches advance the index without touching the instance, so a
// stalled generator iteration and a skipped batch stay aligned with the
// seeded crash/fault schedules.
func driveSource(algo Algorithm, scName string, sess *session.Session, src workload.MirrorSource, opt Options) (Instance, Options, *Report, error) {
	var crash *workload.CrashSchedule
	var fault *workload.MachineFaultSchedule
	if opt.CrashEvery > 0 {
		crash = workload.NewCrashSchedule(opt.Seed+3, opt.CrashEvery)
	}
	if opt.FaultEvery > 0 {
		fault = workload.NewMachineFaultSchedule(opt.Seed+5, opt.FaultEvery)
	}
	rep := &Report{Algorithm: algo.Name, Scenario: scName, Rounds: -1}
	fail := func(format string, args ...any) (Instance, Options, *Report, error) {
		return nil, opt, nil, fmt.Errorf("harness: %s over %s"+format, append([]any{algo.Name, scName}, args...)...)
	}
	checkpoint := func() error {
		cut, err := sess.Checkpoint()
		if err != nil {
			return fmt.Errorf("checkpoint (%s): %w", cut.Kind, err)
		}
		if cut.Kind == snapshot.KindDelta {
			rep.DeltaCheckpoints++
		} else {
			rep.FullCheckpoints++
		}
		return nil
	}
	// pending journals the batches applied since the last checkpoint — the
	// replay set of a fault.
	var pending []graph.Batch
	inst := func() Instance { return sess.State().(Instance) }
	// The search counters are not checkpointed: a restore or a fault
	// recovery replaces the instance and they start over, so each instance
	// is read out before it is dropped.
	countSearches := func() {
		sc, ok := inst().(searchCounter)
		if !ok {
			return
		}
		if rep.Searches == nil {
			rep.Searches = new(core.SearchStats)
		}
		s, t := rep.Searches, sc.SearchStats()
		s.Searches += t.Searches
		s.Levels += t.Levels
		s.QueryFails += t.QueryFails
		s.Refills += t.Refills
		s.Exhausted += t.Exhausted
		s.SketchesSummed += t.SketchesSummed
		s.SketchesSkipped += t.SketchesSkipped
	}
	for i := 0; ; i++ {
		b, serr := src.Next()
		if serr == io.EOF {
			break
		}
		if serr != nil {
			return fail(": batch %d: %w", i, serr)
		}
		if len(b) == 0 {
			continue // stalled (e.g. saturated insert-only stream)
		}
		if fault != nil {
			machines := sess.Shape().MachineCount()
			if _, dead := fault.Fault(machines); dead {
				// The machine died while batch i was in flight: the
				// poisoned batch never lands on the old fleet. Unlike a
				// crash, the dying fleet cannot be checkpointed — its last
				// round is poisoned — so recovery re-shards the last
				// durable checkpoint onto the survivors, replays pending,
				// and re-bases the chain at the new shape; batch i itself
				// is replayed by the Apply below, on the recovered
				// instance.
				countSearches()
				if err := recoverFault(sess, machines-1, pending, checkpoint); err != nil {
					return fail(": machine fault at batch %d: %w", i, err)
				}
				rep.Faults++
				rep.Reshards++
				rep.ReplayedBatches += len(pending) + 1 // + the in-flight batch
				pending = pending[:0]
			}
		}
		if err := sess.Apply(b); err != nil {
			return fail(": batch %d: %w", i, err)
		}
		if fault != nil {
			pending = append(pending, append(graph.Batch(nil), b...))
		}
		rep.Batches++
		rep.Updates += len(b)
		if opt.CheckEvery > 0 && (i+1)%opt.CheckEvery == 0 {
			if err := inst().Check(src.Mirror()); err != nil {
				return fail(" diverged at batch %d: %w", i, err)
			}
			rep.Checks++
		}
		if opt.CheckpointEvery > 0 && (i+1)%opt.CheckpointEvery == 0 {
			if err := checkpoint(); err != nil {
				return fail(": checkpoint at batch %d: %w", i, err)
			}
			pending = pending[:0]
		}
		if crash != nil && crash.Crash() {
			// A process crash: the live instance is checkpointed (extending
			// the chain, so the crash-instant state is the tip), dropped,
			// and a fresh one restored from the whole chain. The generator
			// (the outside world) survives; only the cluster state dies.
			countSearches()
			err := checkpoint()
			if err == nil {
				_, err = sess.Restore()
			}
			if err != nil {
				return fail(": crash at batch %d: %w", i, err)
			}
			rep.Crashes++
			pending = pending[:0]
		}
	}
	if opt.CheckEvery >= 0 {
		if err := inst().Check(src.Mirror()); err != nil {
			return fail(" diverged at end of stream: %w", err)
		}
		rep.Checks++
		if fc, ok := inst().(finalChecker); ok {
			if err := fc.FinalCheck(src.Mirror()); err != nil {
				return fail(" failed the final check: %w", err)
			}
			rep.Checks++
		}
	}
	rep.FinalEdges = src.Mirror().M()
	rep.Rounds = inst().Rounds()
	if c, ok := inst().(interface{ Cluster() *mpc.Cluster }); ok {
		st := c.Cluster().Stats()
		rep.Stats = &st
	}
	countSearches()
	opt.VerticesPerMachine = sess.Shape().VerticesPerMachine
	return inst(), opt, rep, nil
}

// recoverFault is the supervised recovery from the loss of one machine:
// the session re-shards its last checkpoint onto the survivors, the
// journaled batches are replayed on the recovered instance, and the
// checkpoint that follows re-bases the chain at the new shape.
func recoverFault(sess *session.Session, survivors int, pending []graph.Batch, checkpoint func() error) error {
	if err := sess.RecoverOnto(survivors); err != nil {
		return err
	}
	for j, b := range pending {
		if err := sess.Apply(b); err != nil {
			return fmt.Errorf("replay batch %d of %d: %w", j+1, len(pending), err)
		}
	}
	if err := checkpoint(); err != nil {
		return fmt.Errorf("re-base: %w", err)
	}
	return nil
}
