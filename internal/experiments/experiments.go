// Package experiments implements the measurement harness: one function per
// experiment E1–E16, each exercising the corresponding theorem's algorithm
// (or, for E13/E14/E16, the simulator substrate, the scenario registry, and
// the crash-recovery subsystem) on a seeded oblivious workload and
// returning the table rows the experiment reports. The root bench_test.go and cmd/experiments both drive these
// functions; see README.md "Scenarios and experiments" for the table catalogue.
package experiments

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"time"

	"repro/internal/agm"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/hash"
	"repro/internal/matching"
	"repro/internal/mpc"
	"repro/internal/msf"
	"repro/internal/oracle"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// Parallelism is the execution-engine parallelism every experiment's MPC
// instances run with (see mpc.Config.Parallelism; 0 = sequential loop).
// cmd/experiments sets it from -parallelism. The engine guarantees each
// table is identical at every setting; only wall-clock time changes.
var Parallelism int

// cfg builds the standard core configuration of the experiments, carrying
// the package parallelism.
func cfg(n int, phi float64, seed uint64) core.Config {
	return core.Config{N: n, Phi: phi, Seed: seed, Parallelism: Parallelism}
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Remarks []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, rem := range t.Remarks {
		fmt.Fprintf(&sb, "# %s\n", rem)
	}
	return sb.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }

// roundsOf measures the rounds consumed by fn on the given cluster-stats
// readout functions.
func batchRounds(stats func() int, fn func()) int {
	before := stats()
	fn()
	return stats() - before
}

// E1ConnectivityRounds measures rounds per batch for mixed churn at several
// n and φ: Theorem 1.1 predicts a constant (in n and in the number of
// batches) for insertions, plus the documented O(log batch) term for
// deletions.
func E1ConnectivityRounds(sizes []int, phis []float64, batches int, seed uint64) *Table {
	t := &Table{
		Title:  "E1: connectivity rounds per batch (Theorem 1.1)",
		Header: []string{"n", "phi", "batch", "ins rounds/batch", "mix rounds/batch", "violations"},
	}
	for _, n := range sizes {
		for _, phi := range phis {
			dc, err := core.NewDynamicConnectivity(cfg(n, phi, seed))
			if err != nil {
				panic(err)
			}
			gen := workload.NewChurn(workload.Config{N: n, Seed: seed + 1, InsertBias: 0.6})
			k := dc.MaxBatch()
			stats := func() int { return dc.Cluster().Stats().Rounds }
			insTotal := 0
			for i := 0; i < batches; i++ {
				b := gen.NextInsertOnly(k)
				insTotal += batchRounds(stats, func() { must(dc.ApplyBatch(b)) })
			}
			mixTotal := 0
			for i := 0; i < batches; i++ {
				b := gen.Next(k)
				mixTotal += batchRounds(stats, func() { must(dc.ApplyBatch(b)) })
			}
			checkAgainstOracle(dc, gen.Mirror())
			t.Rows = append(t.Rows, []string{
				d(n), f2(phi), d(k),
				f2(float64(insTotal) / float64(batches)),
				f2(float64(mixTotal) / float64(batches)),
				d(len(dc.Cluster().Stats().Violations)),
			})
		}
	}
	t.Remarks = append(t.Remarks,
		"claim: rounds/batch constant in n and stream length for fixed phi; smaller phi => more rounds (O(1/phi))",
		"deletion batches add the documented O(log k) endpoint-resolution term")
	return t
}

// E2ConnectivityMemory measures peak total memory as the stream densifies:
// Theorem 1.1 predicts Õ(n), flat in m.
func E2ConnectivityMemory(n int, phi float64, checkpoints []int, seed uint64) *Table {
	t := &Table{
		Title:  "E2: connectivity total memory vs stream density (Theorem 1.1)",
		Header: []string{"n", "m", "peak total words", "words / (n log^3 n)"},
	}
	dc, err := core.NewDynamicConnectivity(cfg(n, phi, seed))
	if err != nil {
		panic(err)
	}
	gen := workload.NewChurn(workload.Config{N: n, Seed: seed + 1})
	k := dc.MaxBatch()
	logn := math.Log2(float64(n))
	norm := float64(n) * logn * logn * logn
	next := 0
	for gen.Mirror().M() < checkpoints[len(checkpoints)-1] {
		must(dc.ApplyBatch(gen.NextInsertOnly(k)))
		for next < len(checkpoints) && gen.Mirror().M() >= checkpoints[next] {
			peak := dc.Cluster().Stats().PeakTotalWords
			t.Rows = append(t.Rows, []string{
				d(n), d(gen.Mirror().M()), d(peak), f2(float64(peak) / norm),
			})
			next++
		}
	}
	checkAgainstOracle(dc, gen.Mirror())
	t.Remarks = append(t.Remarks, "claim: peak memory flat in m (depends only on n), unlike the O(n+m) of prior work")
	return t
}

// E3QueryVsAGM contrasts the O(1)-round spanning-forest query of the
// maintained-forest algorithm with AGM's O(log n)-round extraction.
func E3QueryVsAGM(sizes []int, seed uint64) *Table {
	t := &Table{
		Title:  "E3: query cost, maintained forest vs AGM baseline (Section 2.1)",
		Header: []string{"n", "ours update rds/batch", "ours query rds", "agm update rds/batch", "agm query boruvka rds", "agm query mpc rds"},
	}
	for _, n := range sizes {
		phi := 0.6
		dc, err := core.NewDynamicConnectivity(cfg(n, phi, seed))
		if err != nil {
			panic(err)
		}
		base, err := agm.New(cfg(n, phi, seed))
		if err != nil {
			panic(err)
		}
		batches := workload.PathStream(n, dc.MaxBatch())
		oursUpd, agmUpd := 0, 0
		for _, b := range batches {
			oursUpd += batchRounds(func() int { return dc.Cluster().Stats().Rounds }, func() { must(dc.ApplyBatch(b)) })
			agmUpd += batchRounds(func() int { return base.Cluster().Stats().Rounds }, func() { must(base.ApplyBatch(b)) })
		}
		// Ours: the forest is maintained; a query is a readout (constant
		// rounds — here literally zero extra communication).
		oursQuery := batchRounds(func() int { return dc.Cluster().Stats().Rounds }, func() { dc.SnapshotForest() })
		var labels []int
		var boruvka int
		agmQuery := batchRounds(func() int { return base.Cluster().Stats().Rounds }, func() {
			labels, boruvka = base.QueryComponents()
		})
		t.Rows = append(t.Rows, []string{
			d(n),
			f2(float64(oursUpd) / float64(len(batches))),
			d(oursQuery),
			f2(float64(agmUpd) / float64(len(batches))),
			d(boruvka),
			d(agmQuery),
		})
		verify(dc.NumComponents() == 1 && !slices.ContainsFunc(labels, func(l int) bool { return l != labels[0] }),
			"E3: the path on %d vertices is not one component in both structures", n)
	}
	t.Remarks = append(t.Remarks, "claim: ours O(1) query rounds; AGM Boruvka levels grow ~log n on a path")
	return t
}

// E4ExactMSF measures the exact-MSF insertion-only algorithm: rounds per
// batch and exactness against Kruskal.
func E4ExactMSF(sizes []int, batches int, seed uint64) *Table {
	t := &Table{
		Title:  "E4: exact MSF, insertion-only (Theorem 7.1(i))",
		Header: []string{"n", "rounds/batch", "exchange waves", "weight == kruskal"},
	}
	for _, n := range sizes {
		m, err := msf.NewExactMSF(cfg(n, 0.6, seed))
		if err != nil {
			panic(err)
		}
		gen := workload.NewChurn(workload.Config{N: n, Seed: seed + 2, MaxWeight: 64})
		k := m.Forest().Config().MaxBatch()
		total := 0
		for i := 0; i < batches; i++ {
			b := gen.NextInsertOnly(k)
			var edges []graph.WeightedEdge
			for _, u := range b {
				edges = append(edges, graph.WeightedEdge{Edge: u.Edge, Weight: u.Weight})
			}
			total += batchRounds(func() int { return m.Forest().Cluster().Stats().Rounds }, func() { must(m.InsertBatch(edges)) })
		}
		_, want := oracle.MSF(gen.Mirror())
		t.Rows = append(t.Rows, []string{
			d(n),
			f2(float64(total) / float64(batches)),
			d(m.SwapWaves()),
			fmt.Sprintf("%v (%d)", m.Weight() == want, m.Weight()),
		})
		verify(m.Weight() == want, "E4: MSF weight %d at n=%d, Kruskal %d", m.Weight(), n, want)
	}
	t.Remarks = append(t.Remarks, "claim: exact weight; constant rounds per batch (exchange waves small)")
	return t
}

// E5ApproxMSF measures the (1+eps)-approximate MSF weight and forest under
// dynamic churn.
func E5ApproxMSF(n int, epss []float64, batches int, seed uint64) *Table {
	t := &Table{
		Title:  "E5: (1+eps)-approximate MSF, dynamic (Theorem 7.1(ii))",
		Header: []string{"eps", "levels", "est/true weight", "forest/true weight", "within (1+eps)"},
	}
	for _, eps := range epss {
		a, err := msf.NewApproxMSF(cfg(n, 0.6, seed), eps, 64)
		if err != nil {
			panic(err)
		}
		gen := workload.NewChurn(workload.Config{N: n, Seed: seed + 3, MaxWeight: 64, InsertBias: 0.7})
		for i := 0; i < batches; i++ {
			must(a.ApplyBatch(gen.Next(a.MaxBatch())))
		}
		_, want := oracle.MSF(gen.Mirror())
		est, forestW := a.Weight(), a.ForestWeight()
		ok := want == 0 || (float64(est) >= float64(want) && float64(est) <= (1+eps)*float64(want) &&
			float64(forestW) >= float64(want) && float64(forestW) <= (1+eps)*float64(want))
		ratio, fratio := 0.0, 0.0
		if want > 0 {
			ratio = float64(est) / float64(want)
			fratio = float64(forestW) / float64(want)
		}
		t.Rows = append(t.Rows, []string{f2(eps), d(len(a.Levels())), f2(ratio), f2(fratio), fmt.Sprintf("%v", ok)})
		verify(ok, "E5: estimate %d or forest %d outside [%d, (1+%.2f)·%d]", est, forestW, want, eps, want)
	}
	t.Remarks = append(t.Remarks, "claim: true <= estimate <= (1+eps)*true, for both the weight and the extracted forest")
	return t
}

// E6Bipartiteness injects odd cycles into a bipartite stream and checks
// detection plus rounds per batch.
func E6Bipartiteness(n, batches int, seed uint64) *Table {
	t := &Table{
		Title:  "E6: bipartiteness, dynamic (Theorem 7.3)",
		Header: []string{"step", "is bipartite", "oracle", "rounds/batch"},
	}
	bt, err := bipartite.New(cfg(n, 0.6, seed))
	if err != nil {
		panic(err)
	}
	violateAt := batches / 2
	gen := workload.NewBipartiteish(n, seed+4, violateAt)
	for step := 0; step < batches; step++ {
		b := gen.Next(bt.MaxBatch())
		r := batchRounds(func() int { return harness.SumStats(bt.Clusters()).Rounds },
			func() { must(bt.ApplyBatch(b)) })
		got := bt.IsBipartite()
		want := oracle.IsBipartite(gen.Mirror())
		verify(got == want, "E6 mismatch at step %d: got %v want %v", step, got, want)
		t.Rows = append(t.Rows, []string{d(step), fmt.Sprintf("%v", got), fmt.Sprintf("%v", want), d(r)})
	}
	t.Remarks = append(t.Remarks, fmt.Sprintf("odd cycle injected at step %d; detection must flip there and agree with the oracle throughout", violateAt))
	return t
}

// E7InsertMatching measures the insertion-only matching and size estimator
// across alpha.
func E7InsertMatching(n int, alphas []float64, seed uint64) *Table {
	t := &Table{
		Title:  "E7: insertion-only matching and size estimation (Theorems 8.1, 8.5)",
		Header: []string{"alpha", "opt", "greedy size", "opt/size", "estimate", "est/opt", "cap(n/alpha)"},
	}
	for _, alpha := range alphas {
		gm, err := matching.NewGreedyInsertOnly(cfg(n, 0.6, seed), alpha)
		if err != nil {
			panic(err)
		}
		est, err := matching.NewInsertOnlySizeEstimator(cfg(n, 0.6, seed), alpha)
		if err != nil {
			panic(err)
		}
		gen := workload.NewChurn(workload.Config{N: n, Seed: seed + 5})
		for i := 0; i < 12; i++ {
			b := gen.NextInsertOnly(n / 8)
			var edges []graph.Edge
			for _, u := range b {
				edges = append(edges, u.Edge)
			}
			must(gm.InsertBatch(edges))
			must(est.InsertBatch(edges))
		}
		opt := oracle.MaxMatchingSize(gen.Mirror())
		ratio := 0.0
		if gm.Size() > 0 {
			ratio = float64(opt) / float64(gm.Size())
		}
		estRatio := 0.0
		if opt > 0 {
			estRatio = float64(est.Estimate()) / float64(opt)
		}
		t.Rows = append(t.Rows, []string{
			f2(alpha), d(opt), d(gm.Size()), f2(ratio), d(est.Estimate()), f2(estRatio), d(gm.Cap()),
		})
	}
	t.Remarks = append(t.Remarks, "claim: opt/size = O(alpha); estimate within O(alpha) of opt")
	return t
}

// E8DynamicMatching measures the AKLY dynamic matching and the dynamic size
// estimator.
func E8DynamicMatching(n int, alphas []float64, batches int, seed uint64) *Table {
	t := &Table{
		Title:  "E8: dynamic matching via AKLY + NO21 (Theorems 8.2, 8.6)",
		Header: []string{"alpha", "opt", "akly size", "opt/size", "estimate", "est/opt", "sampler words"},
	}
	for _, alpha := range alphas {
		d8, err := matching.NewAKLYDynamic(cfg(n, 0.6, seed), alpha)
		if err != nil {
			panic(err)
		}
		de, err := matching.NewDynamicSizeEstimator(cfg(n, 0.6, seed+1), alpha, n/4)
		if err != nil {
			panic(err)
		}
		gen := workload.NewChurn(workload.Config{N: n, Seed: seed + 6, InsertBias: 0.7})
		for i := 0; i < batches; i++ {
			b := gen.Next(n / 8)
			must(d8.ApplyBatch(b))
			must(de.ApplyBatch(b))
		}
		opt := oracle.MaxMatchingSize(gen.Mirror())
		ratio := 0.0
		if d8.Size() > 0 {
			ratio = float64(opt) / float64(d8.Size())
		}
		estRatio := 0.0
		if opt > 0 {
			estRatio = float64(de.Estimate()) / float64(opt)
		}
		t.Rows = append(t.Rows, []string{
			f2(alpha), d(opt), d(d8.Size()), f2(ratio), d(de.Estimate()), f2(estRatio),
			d(d8.SparsifierWords()),
		})
	}
	t.Remarks = append(t.Remarks, "claim: opt/size = O(alpha); sampler memory grows as the guesses' beta*gamma = Õ(n^2/alpha^3)")
	return t
}

// E9BatchScaling fixes n and sweeps the batch size: rounds per batch must
// stay flat (the whole point of batch processing).
func E9BatchScaling(n int, fractions []float64, batchesPer int, seed uint64) *Table {
	t := &Table{
		Title:  "E9: rounds vs batch size at fixed n (batch-scalability)",
		Header: []string{"n", "batch", "batch/max", "rounds/batch", "rounds/update"},
	}
	for _, frac := range fractions {
		dc, err := core.NewDynamicConnectivity(cfg(n, 0.6, seed))
		if err != nil {
			panic(err)
		}
		k := int(frac * float64(dc.MaxBatch()))
		if k < 1 {
			k = 1
		}
		gen := workload.NewChurn(workload.Config{N: n, Seed: seed + 7, InsertBias: 0.6})
		total := 0
		for i := 0; i < batchesPer; i++ {
			b := gen.Next(k)
			total += batchRounds(func() int { return dc.Cluster().Stats().Rounds }, func() { must(dc.ApplyBatch(b)) })
		}
		perBatch := float64(total) / float64(batchesPer)
		t.Rows = append(t.Rows, []string{d(n), d(k), f2(frac), f2(perBatch), f2(perBatch / float64(k))})
		checkAgainstOracle(dc, gen.Mirror())
	}
	t.Remarks = append(t.Remarks, "claim: rounds/batch flat in batch size => rounds/update falls as 1/batch")
	return t
}

// E10EulerTourAblation compares one batched Link of k edges against k
// single-edge Links (the paper's core data-structure contribution,
// Section 6.2).
func E10EulerTourAblation(n int, ks []int, seed uint64) *Table {
	t := &Table{
		Title:  "E10: ablation, batched vs sequential Euler-tour joins (Section 6.2)",
		Header: []string{"k", "batched rounds", "sequential rounds", "speedup"},
	}
	for _, k := range ks {
		batched, err := core.NewForest(cfg(n, 0.8, seed))
		if err != nil {
			panic(err)
		}
		if k > batched.Config().MaxBatch() {
			// The batch would exceed the Õ(n^φ) cap at this n (possible in
			// reduced -quick runs); skip rather than crash.
			continue
		}
		sequential, err := core.NewForest(cfg(n, 0.8, seed))
		if err != nil {
			panic(err)
		}
		var edges []graph.WeightedEdge
		for i := 0; i < k; i++ {
			edges = append(edges, graph.NewWeightedEdge(i, i+1, 1))
		}
		br := batchRounds(func() int { return batched.Cluster().Stats().Rounds }, func() { must(batched.Link(edges)) })
		sr := 0
		for _, e := range edges {
			sr += batchRounds(func() int { return sequential.Cluster().Stats().Rounds },
				func() { must(sequential.Link([]graph.WeightedEdge{e})) })
		}
		t.Rows = append(t.Rows, []string{d(k), d(br), d(sr), f2(float64(sr) / float64(br))})
		// Both forests place an edge on the same shard, which keeps its
		// records in edge order, so the same edges read out in one order.
		verify(slices.Equal(batched.SnapshotForest(), sequential.SnapshotForest()),
			"E10: the batched and sequential forests of k=%d hold different edges", k)
	}
	t.Remarks = append(t.Remarks, "claim: batched join costs the same rounds as a single join; sequential replay costs k times as much")
	return t
}

// checkAgainstOracle verifies the maintained solution against the
// sequential reference via the shared differential checker, panicking on
// divergence (experiments must not silently report numbers from a broken
// run).
func checkAgainstOracle(dc *core.DynamicConnectivity, g *graph.Graph) {
	err := harness.VerifyConnectivity(dc, g)
	verify(err == nil, "experiments: %v", err)
}

// verify panics with the formatted message unless ok: a table must not
// report numbers from a broken run.
func verify(ok bool, format string, args ...any) {
	if !ok {
		panic(fmt.Sprintf(format, args...))
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// E11SketchCopiesAblation varies the number t of independent sketch copies
// per vertex and counts solution divergences from the oracle under a
// replacement-heavy workload (build a dense cyclic graph, then delete many
// tree edges per batch, forcing multi-level Borůvka searches): the design
// calls for t = 2 log n + 8 copies so the search succeeds w.h.p.; starving
// the sampler must visibly fail.
func E11SketchCopiesAblation(n int, copies []int, batches int, seeds []uint64) *Table {
	t := &Table{
		Title:  "E11: ablation, sketch copies t vs replacement-search reliability",
		Header: []string{"t", "runs", "diverged runs", "divergence rate"},
	}
	for _, tc := range copies {
		diverged := 0
		for _, seed := range seeds {
			if e11OneRun(n, tc, batches, seed) {
				diverged++
			}
		}
		t.Rows = append(t.Rows, []string{
			d(tc), d(len(seeds)), d(diverged),
			f2(float64(diverged) / float64(len(seeds))),
		})
	}
	t.Remarks = append(t.Remarks,
		"claim: with t = 2 log n + 8 copies divergence is (essentially) never observed; starving the sampler must degrade reliability",
		"a diverged run means the maintained components stopped matching the oracle at some batch")
	return t
}

// e11OneRun reports whether one seeded run diverged from the oracle.
func e11OneRun(n, sketchCopies, batches int, seed uint64) bool {
	dc, err := core.NewDynamicConnectivity(core.Config{N: n, Phi: 0.7, Seed: seed, SketchCopies: sketchCopies, Parallelism: Parallelism})
	if err != nil {
		panic(err)
	}
	g := graph.New(n)
	apply := func(b graph.Batch) {
		must(g.Apply(b))
		must(dc.ApplyBatch(b))
	}
	// Build a dense band graph: every vertex linked to its next three
	// neighbors, so deleted tree edges always have nearby replacements.
	var all graph.Batch
	for i := 0; i < n; i++ {
		for dlt := 1; dlt <= 3; dlt++ {
			all = append(all, graph.Ins(i, (i+dlt)%n))
		}
	}
	k := dc.MaxBatch()
	for i := 0; i < len(all); i += k {
		apply(all[i:min(i+k, len(all))])
	}
	// Delete batches of current tree edges, forcing replacement searches.
	prg := hash.NewPRG(seed * 31)
	for b := 0; b < batches; b++ {
		forest := dc.SnapshotForest()
		if len(forest) == 0 {
			break
		}
		var del graph.Batch
		used := map[int]bool{}
		for len(del) < k && len(del) < len(forest) {
			i := int(prg.NextN(uint64(len(forest))))
			if used[i] {
				continue
			}
			used[i] = true
			e := forest[i]
			if g.Has(e.U, e.V) {
				del = append(del, graph.Del(e.U, e.V))
			}
		}
		apply(del)
		want := oracle.Components(g)
		got := dc.SnapshotComponents()
		for v := range want {
			if got[v] != want[v] {
				return true
			}
		}
	}
	return false
}

// E12CommunicationPerRound verifies the model bound that global
// communication per round is Õ(n), independent of m.
func E12CommunicationPerRound(sizes []int, batches int, seed uint64) *Table {
	t := &Table{
		Title:  "E12: communication volume (global words per round vs n)",
		Header: []string{"n", "m (final)", "rounds", "total words", "words/round", "words/round / n"},
	}
	for _, n := range sizes {
		dc, err := core.NewDynamicConnectivity(cfg(n, 0.6, seed))
		if err != nil {
			panic(err)
		}
		gen := workload.NewChurn(workload.Config{N: n, Seed: seed + 23, InsertBias: 0.6})
		for i := 0; i < batches; i++ {
			must(dc.ApplyBatch(gen.Next(dc.MaxBatch())))
		}
		st := dc.Cluster().Stats()
		perRound := float64(st.WordsSent) / float64(st.Rounds)
		t.Rows = append(t.Rows, []string{
			d(n), d(gen.Mirror().M()), d(st.Rounds),
			fmt.Sprintf("%d", st.WordsSent), f2(perRound), f2(perRound / float64(n)),
		})
		checkAgainstOracle(dc, gen.Mirror())
	}
	t.Remarks = append(t.Remarks, "claim: words/round = Õ(n) (the last column stays bounded as n grows)")
	return t
}

// E13ParallelSpeedup measures the wall-clock effect of the pluggable
// execution engine: the same seeded workload is replayed through dynamic
// connectivity once per parallelism level, timing the run and checking the
// engine's core guarantee that Stats (rounds, messages, words, peaks,
// violations) are bit-identical to the one-worker run. Two workloads are
// timed: uniform churn, and the hub-centric powerlaw stream whose
// heavy-tailed degrees skew the per-machine load — the regime the engine's
// chunked work stealing exists for. This is the one experiment whose
// numbers are wall-clock, not MPC metrics: it characterizes the simulator
// substrate, not the algorithm.
func E13ParallelSpeedup(n int, parallelisms []int, batches int, seed uint64) *Table {
	t := &Table{
		Title:  "E13: execution engine, worker-pool vs sequential wall-clock",
		Header: []string{"workload", "n", "parallelism", "wall ms", "speedup", "rounds", "stats identical"},
	}
	workloads := []struct {
		name string
		gen  func() workload.Generator
	}{
		{"churn", func() workload.Generator {
			return workload.NewChurn(workload.Config{N: n, Seed: seed + 1, InsertBias: 0.6})
		}},
		{"powerlaw", func() workload.Generator {
			return workload.NewPowerLaw(n, seed+1, 0.25, 0)
		}},
	}
	for _, wl := range workloads {
		run := func(p int) (mpc.Stats, time.Duration) {
			dc, err := core.NewDynamicConnectivity(core.Config{N: n, Phi: 0.6, Seed: seed, Parallelism: p})
			if err != nil {
				panic(err)
			}
			gen := wl.gen()
			start := time.Now()
			for i := 0; i < batches; i++ {
				must(dc.ApplyBatch(gen.Next(dc.MaxBatch())))
			}
			wall := time.Since(start)
			checkAgainstOracle(dc, gen.Mirror())
			return dc.Cluster().Stats(), wall
		}
		run(1) // untimed warmup so the baseline doesn't pay allocator/cache cold-start
		baseStats, baseWall := run(1)
		for _, p := range parallelisms {
			st, wall := run(p)
			t.Rows = append(t.Rows, []string{
				wl.name, d(n), d(mpc.ResolveParallelism(p)), f2(float64(wall.Microseconds()) / 1000),
				f2(float64(baseWall) / float64(wall)),
				d(st.Rounds),
				fmt.Sprintf("%v", reflect.DeepEqual(st, baseStats)),
			})
		}
	}
	t.Remarks = append(t.Remarks,
		"claim: identical Stats at every parallelism; speedup grows with machine count and local work",
		"powerlaw rows time the skew regime (hub-heavy per-machine load) that work stealing absorbs",
		"wall-clock of the simulator substrate (not an MPC metric); small n may not amortize the round barrier")
	return t
}

// E14ScenarioSweep streams every listed scenario (default: the whole
// registry) through every compatible algorithm under the differential
// harness, cross-checking each batch against the brute-force oracles. The
// table is the systematic scenario-coverage matrix the ad-hoc
// per-experiment workloads never gave: a row per (scenario, algorithm)
// pair that survived its checks.
func E14ScenarioSweep(n, batches int, scenarios []string, seed uint64) *Table {
	t := &Table{
		Title:  "E14: scenario sweep, differential harness over the registry",
		Header: []string{"scenario", "algorithm", "batches", "updates", "edges", "rounds/batch", "checks"},
	}
	if len(scenarios) == 0 {
		scenarios = workload.Names()
	}
	for _, scName := range scenarios {
		sc, err := workload.Get(scName)
		if err != nil {
			panic(err)
		}
		for _, algoName := range harness.AlgorithmNames() {
			algo, err := harness.GetAlgorithm(algoName)
			if err != nil {
				panic(err)
			}
			if harness.Compatible(algo, sc) != nil {
				continue
			}
			rep, err := harness.RunScenario(algo, sc, harness.Options{
				N: n, Batches: batches, Seed: seed, Parallelism: Parallelism,
			})
			must(err) // a divergence is a broken run, not a table row
			roundsPerBatch := "n/a"
			if rep.Batches > 0 {
				roundsPerBatch = f2(float64(rep.Stats.Rounds) / float64(rep.Batches))
			}
			t.Rows = append(t.Rows, []string{
				rep.Scenario, rep.Algorithm, d(rep.Batches), d(rep.Updates),
				d(rep.FinalEdges), roundsPerBatch, d(rep.Checks),
			})
		}
	}
	t.Remarks = append(t.Remarks,
		"every row passed its per-batch brute-force oracle checks (the run panics on divergence)",
		"insertion-only algorithms pair only with grow* scenarios; MSF algorithms only with weighted ones")
	return t
}

// E15QueryThroughput measures the batched query engine (the read path of
// the read/write-mix workload): per-query-collective vs one batched
// collective vs warm label cache, in MPC rounds per query. The batched
// answers are cross-checked against the brute-force oracle before any
// number is reported.
func E15QueryThroughput(sizes []int, batches, queries int, seed uint64) *Table {
	t := &Table{
		Title:  "E15: query throughput, per-query loop vs batched vs label cache",
		Header: []string{"n", "queries", "loop rds/q", "batched rds/q", "warm rds/q", "loop/batched"},
	}
	for _, n := range sizes {
		dc, err := core.NewDynamicConnectivity(cfg(n, 0.6, seed))
		if err != nil {
			panic(err)
		}
		gen := workload.NewChurn(workload.Config{N: n, Seed: seed + 1, InsertBias: 0.6})
		mix := workload.NewQueryMix(gen, n, seed+2)
		for i := 0; i < batches; i++ {
			must(dc.ApplyBatch(mix.Next(dc.MaxBatch())))
		}
		raw := mix.NextQueries(queries)
		pairs := make([]core.Pair, len(raw))
		for i, q := range raw {
			pairs[i] = core.Pair{U: q[0], V: q[1]}
		}
		rounds := func() int { return dc.Cluster().Stats().Rounds }
		// Regime 1: one collective per query (the pre-cache cost model).
		loopRounds := batchRounds(rounds, func() {
			for _, p := range pairs {
				dc.InvalidateQueryCache()
				dc.Connected(p.U, p.V)
			}
		})
		// Regime 2: one batched collective for the whole query set.
		dc.InvalidateQueryCache()
		var batchedAns []bool
		batchedRounds := batchRounds(rounds, func() { batchedAns = dc.ConnectedAll(pairs) })
		// Regime 3: warm repeat against the label cache.
		warmRounds := batchRounds(rounds, func() { dc.ConnectedAll(pairs) })
		want := mix.OracleAnswers(raw)
		for i := range pairs {
			verify(batchedAns[i] == want[i], "E15: query %v answered %v, oracle %v", pairs[i], batchedAns[i], want[i])
		}
		q := float64(queries)
		speedup := 0.0
		if batchedRounds > 0 {
			speedup = float64(loopRounds) / float64(batchedRounds)
		}
		t.Rows = append(t.Rows, []string{
			d(n), d(queries),
			f2(float64(loopRounds) / q),
			fmt.Sprintf("%.4f", float64(batchedRounds)/q),
			fmt.Sprintf("%.4f", float64(warmRounds)/q),
			f2(speedup),
		})
	}
	t.Remarks = append(t.Remarks,
		"claim: N queries cost one broadcast + one flat aggregation (O(1/phi) rounds total) instead of N collectives",
		"warm repeats answer from the coordinator label cache with zero MPC rounds; every batched answer is oracle-verified")
	return t
}

// E16CrashRecovery exercises the crash-safe checkpoint/restore subsystem
// (internal/snapshot): for each size it runs dynamic connectivity over the
// powerlaw scenario twice — uninterrupted, and with seeded kill/restore
// cycles (the cluster state is checkpointed, torn down, rebuilt, and
// restored mid-stream) — and demands that the final Stats, component
// labels, and maintained forest are bit-identical; both runs are
// oracle-verified.
func E16CrashRecovery(sizes []int, batches, every int, seed uint64) *Table {
	t := &Table{
		Title:  "E16: crash recovery, kill+restore vs uninterrupted",
		Header: []string{"n", "batches", "crashes", "rounds", "snapshot words", "bit-identical"},
	}
	for _, n := range sizes {
		runOnce := func(crashEvery int) (*core.DynamicConnectivity, *graph.Graph, int, int) {
			dc, err := core.NewDynamicConnectivity(cfg(n, 0.6, seed))
			must(err)
			gen := workload.NewPowerLaw(n, seed+1, 0.25, 0)
			var sched *workload.CrashSchedule
			if crashEvery > 0 {
				sched = workload.NewCrashSchedule(seed+3, crashEvery)
			}
			crashes, snapWords := 0, 0
			for i := 0; i < batches; i++ {
				must(dc.ApplyBatch(gen.Next(dc.MaxBatch())))
				if sched != nil && sched.Crash() {
					var buf bytes.Buffer
					must(snapshot.Save(&buf, dc))
					snapWords = buf.Len() / 8
					fresh, err := core.NewDynamicConnectivity(cfg(n, 0.6, seed))
					must(err)
					must(snapshot.Load(&buf, fresh))
					dc = fresh
					crashes++
				}
			}
			must(harness.VerifyConnectivity(dc, gen.Mirror()))
			return dc, gen.Mirror(), crashes, snapWords
		}
		base, _, _, _ := runOnce(0)
		crashed, _, crashes, snapWords := runOnce(every)
		identical := reflect.DeepEqual(base.Cluster().Stats(), crashed.Cluster().Stats()) &&
			reflect.DeepEqual(base.SnapshotComponents(), crashed.SnapshotComponents()) &&
			reflect.DeepEqual(base.SnapshotForest(), crashed.SnapshotForest())
		t.Rows = append(t.Rows, []string{
			d(n), d(batches), d(crashes), d(crashed.Cluster().Stats().Rounds),
			d(snapWords), fmt.Sprintf("%v", identical),
		})
	}
	t.Remarks = append(t.Remarks,
		"claim: checkpoint -> kill -> restore -> continue is bit-identical to never crashing (Stats, labels, forest)",
		"crash points are a seeded oblivious schedule (workload.NewCrashSchedule); both runs pass the brute-force oracle")
	return t
}
