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
// Every algorithm is placed by core.Config's rule at the one cluster shape
// the options describe, which is the shape its session resizes, and honours
// Options.Parallelism, so the same differential run exercises both the
// sequential and the worker-pool execution engines.
package harness

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/session"
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
	// VerticesPerMachine pins the cluster shape (0 = derived from Phi).
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
	return o
}

// Instance is one live algorithm run under the harness: a session.State
// (it applies batches and checkpoints itself, so the whole session lifecycle
// runs on it — TestLifecycleModel drives every registered algorithm through
// checkpoints, kills, resizes and machine losses) that can also be checked
// against the oracles.
type Instance interface {
	session.State
	// Check cross-checks the maintained solution against the brute-force
	// oracles on the mirror graph.
	Check(mirror *graph.Graph) error
	// Clusters returns every cluster the algorithm runs on, in a fixed
	// order; SumStats adds up their Stats.
	Clusters() []*mpc.Cluster
}

// SumStats adds up the Stats of the clusters one algorithm runs on: counts
// add (ViolationCount too), the per-machine maxima (MaxRecvWords,
// MaxSendWords, PeakMachineWords) take the largest, and the kept violation
// messages are concatenated in cluster order. PeakTotalWords adds the
// clusters' peaks, which may fall at different rounds, so the sum is an
// upper bound on the peak of the whole.
func SumStats(clusters []*mpc.Cluster) mpc.Stats {
	var sum mpc.Stats
	for _, c := range clusters {
		st := c.Stats()
		sum.Rounds += st.Rounds
		sum.Messages += st.Messages
		sum.WordsSent += st.WordsSent
		sum.MaxRecvWords = max(sum.MaxRecvWords, st.MaxRecvWords)
		sum.MaxSendWords = max(sum.MaxSendWords, st.MaxSendWords)
		sum.PeakMachineWords = max(sum.PeakMachineWords, st.PeakMachineWords)
		sum.PeakTotalWords += st.PeakTotalWords
		sum.ViolationCount += st.ViolationCount
		sum.Violations = append(sum.Violations, st.Violations...)
	}
	return sum
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
	// Stats is the final instance's cluster statistics, summed over every
	// cluster it runs on (SumStats).
	Stats mpc.Stats
	// Searches is the run's replacement-search counters
	// (session.Session.Counters); nil unless the algorithm runs replacement
	// searches (connectivity, bipartite, approxmsf). Searches.Exhausted
	// counts the searches that spent every sketch copy with an active
	// supernode left.
	Searches *core.SearchStats
}

// String renders the report in one line.
func (r *Report) String() string {
	extra := ""
	if r.Searches != nil && r.Searches.Exhausted > 0 {
		extra += fmt.Sprintf(", %d replacement searches exhausted", r.Searches.Exhausted)
	}
	if v := r.Stats.ViolationCount; v > 0 {
		extra += fmt.Sprintf(", %d model violations", v)
	}
	return fmt.Sprintf("%s over %s: %d batches, %d updates, %d edges final, %d checks passed, %d rounds%s",
		r.Algorithm, r.Scenario, r.Batches, r.Updates, r.FinalEdges, r.Checks, r.Stats.Rounds, extra)
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

// RunScenario is Run for already-resolved registry entries: it pulls
// Options.Batches batches from the scenario's generator, applies each
// through a volatile session, and runs the differential checks against the
// generator's mirror. An empty batch (a stalled generator) touches nothing:
// it counts toward the CheckEvery cadence, which indexes generator
// iterations, but not toward Report.Batches.
func RunScenario(algo Algorithm, sc workload.Scenario, opt Options) (*Report, error) {
	if err := Compatible(algo, sc); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	sess, err := session.Open(sessionConfig(algo, opt))
	if err != nil {
		return nil, err
	}
	size := sess.State().MaxBatch()
	if opt.BatchSize > 0 && opt.BatchSize < size {
		size = opt.BatchSize
	}
	gen := sc.New(opt.N, opt.Seed+1)
	rep := &Report{Algorithm: algo.Name, Scenario: sc.Name}
	fail := func(format string, args ...any) (*Report, error) {
		return nil, fmt.Errorf("harness: %s over %s"+format, append([]any{algo.Name, sc.Name}, args...)...)
	}
	inst := sess.State().(Instance)
	for i := 0; i < opt.Batches; i++ {
		b := gen.Next(size)
		if len(b) == 0 {
			continue // stalled (e.g. saturated insert-only stream)
		}
		if err := sess.Apply(b); err != nil {
			return fail(": batch %d: %w", i, err)
		}
		rep.Batches++
		rep.Updates += len(b)
		if opt.CheckEvery > 0 && (i+1)%opt.CheckEvery == 0 {
			if err := inst.Check(gen.Mirror()); err != nil {
				return fail(" diverged at batch %d: %w", i, err)
			}
			rep.Checks++
		}
	}
	if opt.CheckEvery >= 0 {
		if err := inst.Check(gen.Mirror()); err != nil {
			return fail(" diverged at end of stream: %w", err)
		}
		rep.Checks++
		if fc, ok := inst.(finalChecker); ok {
			if err := fc.FinalCheck(gen.Mirror()); err != nil {
				return fail(" failed the final check: %w", err)
			}
			rep.Checks++
		}
	}
	rep.FinalEdges = gen.Mirror().M()
	rep.Stats = SumStats(inst.Clusters())
	rep.Searches = sess.Counters().Searches
	return rep, nil
}

// sessionConfig configures a run's session: volatile, on a fresh instance
// at the options' shape, and rebuilt at whatever shape the session moves it
// to.
func sessionConfig(algo Algorithm, opt Options) session.Config {
	return session.Config{
		Shape: opt.coreCfg(),
		New: func(sh session.Shape) (session.State, error) {
			at := opt
			at.VerticesPerMachine = sh.VerticesPerMachine
			return algo.New(at)
		},
	}
}
