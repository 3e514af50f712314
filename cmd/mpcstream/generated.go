package main

import (
	"fmt"
	"io"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpc"
	"repro/internal/msf"
	"repro/internal/oracle"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// runGenerated runs one algorithm over a generated churn stream and prints
// its solution against the oracle's, plus the cluster's resource statistics.
func runGenerated(o options, out io.Writer) error {
	n, batches, seed, queries := o.n, o.batches, o.seed, o.queries
	cfg := core.Config{N: n, Phi: o.phi, Seed: seed, Parallelism: o.parallelism}
	gen := workload.NewChurn(workload.Config{N: n, Seed: seed + 1, MaxWeight: o.maxWeight, InsertBias: o.insertBias})
	switch o.algo {
	case "connectivity":
		dc, err := core.NewDynamicConnectivity(cfg)
		if err != nil {
			return err
		}
		mix := workload.NewQueryMix(gen, n, seed+2)
		queryRounds, answered, connected := 0, 0, 0
		for i := 0; i < batches; i++ {
			if err := dc.ApplyBatch(mix.Next(dc.MaxBatch())); err != nil {
				return err
			}
			if queries == 0 {
				continue
			}
			raw := mix.NextQueries(queries)
			pairs := make([]core.Pair, len(raw))
			for j, q := range raw {
				pairs[j] = core.Pair{U: q[0], V: q[1]}
			}
			before := dc.Cluster().Stats().Rounds
			ans := dc.ConnectedAll(pairs)
			queryRounds += dc.Cluster().Stats().Rounds - before
			want := mix.OracleAnswers(raw)
			for j := range ans {
				if ans[j] != want[j] {
					return fmt.Errorf("batch %d: query %v answered %v, oracle %v", i, raw[j], ans[j], want[j])
				}
				if ans[j] {
					connected++
				}
			}
			answered += len(ans)
		}
		fmt.Fprintf(out, "components: %d (oracle %d)\n", dc.NumComponents(), oracle.NumComponents(gen.Mirror()))
		fmt.Fprintf(out, "forest edges: %d\n", len(dc.SnapshotForest()))
		if answered > 0 {
			fmt.Fprintf(out, "queries: %d batched, %d connected, %d query rounds (%.4f rounds/query, oracle-verified)\n",
				answered, connected, queryRounds, float64(queryRounds)/float64(answered))
		}
		report(out, dc.Cluster().Stats(), batches)
		reportSearches(out, dc.SearchStats())
		if o.checkpointFile != "" {
			// The run becomes a session only now, around the state it built:
			// the generator owns the mirror, and a generated run is the start
			// of no stream position (zero applied batches). A fresh chain is
			// never linked to on-disk state, so this writes a full base (and
			// sweeps any stale deltas left at that path).
			chain := snapshot.OpenChain(o.checkpointFile, o.maxDeltaChain)
			sess, err := session.New(session.Config{
				Shape:  cfg,
				New:    func(session.Shape) (session.State, error) { return dc, nil },
				Chain:  chain,
				Mirror: session.MirrorOf(gen.Mirror()),
			})
			if err != nil {
				return err
			}
			if err := writeCheckpoint(out, sess, chain); err != nil {
				return err
			}
		}
	case "msf":
		m, err := msf.NewExactMSF(cfg)
		if err != nil {
			return err
		}
		for i := 0; i < batches; i++ {
			b := gen.NextInsertOnly(m.Forest().Config().MaxBatch())
			var edges []graph.WeightedEdge
			for _, u := range b {
				edges = append(edges, graph.WeightedEdge{Edge: u.Edge, Weight: u.Weight})
			}
			if err := m.InsertBatch(edges); err != nil {
				return err
			}
		}
		_, want := oracle.MSF(gen.Mirror())
		fmt.Fprintf(out, "msf weight: %d (kruskal %d, exchange waves %d)\n", m.Weight(), want, m.SwapWaves())
		report(out, m.Forest().Cluster().Stats(), batches)
	case "approxmsf":
		a, err := msf.NewApproxMSF(cfg, o.eps, o.maxWeight)
		if err != nil {
			return err
		}
		for i := 0; i < batches; i++ {
			if err := a.ApplyBatch(gen.Next(a.MaxBatch())); err != nil {
				return err
			}
		}
		_, want := oracle.MSF(gen.Mirror())
		fmt.Fprintf(out, "approx msf weight: %d (kruskal %d, levels %d, eps %.2f)\n", a.Weight(), want, a.Levels(), o.eps)
	case "bipartite":
		bt, err := bipartite.New(cfg)
		if err != nil {
			return err
		}
		bgen := workload.NewBipartiteish(n, seed+1, batches/2)
		for i := 0; i < batches; i++ {
			if err := bt.ApplyBatch(bgen.Next(bt.MaxBatch())); err != nil {
				return err
			}
			fmt.Fprintf(out, "step %2d: bipartite=%v (oracle %v)\n", i, bt.IsBipartite(), oracle.IsBipartite(bgen.Mirror()))
		}
		report(out, bt.Graph().Cluster().Stats(), batches)
	case "matching":
		gm, err := matching.NewGreedyInsertOnly(n, o.alpha, 0)
		if err != nil {
			return err
		}
		for i := 0; i < batches; i++ {
			b := gen.NextInsertOnly(n / 8)
			var edges []graph.Edge
			for _, u := range b {
				edges = append(edges, u.Edge)
			}
			if err := gm.InsertBatch(edges); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "matching size: %d (cap %d, max matching %d)\n",
			gm.Size(), gm.Cap(), oracle.MaxMatchingSize(gen.Mirror()))
		report(out, gm.Cluster().Stats(), batches)
	case "dynmatching":
		d, err := matching.NewAKLYDynamic(n, o.alpha, seed, 0)
		if err != nil {
			return err
		}
		for i := 0; i < batches; i++ {
			if err := d.ApplyBatch(gen.Next(n / 8)); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "matching size: %d (max matching %d, instances %d, sampler words %d)\n",
			d.Size(), oracle.MaxMatchingSize(gen.Mirror()), d.Instances(), d.SparsifierWords())
	default:
		return fmt.Errorf("unknown algorithm %q", o.algo)
	}
	return nil
}

// reportSearches prints what the replacement searches of this process did
// (the counters are not checkpointed, so a resumed run counts from zero). A
// non-zero exhausted count means a search ran out of sketch copies and the
// partition may be too fine; refills are the windows of copies fetched beyond
// a search's first.
func reportSearches(out io.Writer, s core.SearchStats) {
	fmt.Fprintf(out, "replacement searches: %d (%d levels, %d query fails, %d refills, %d exhausted)  sketches summed: %d  skipped: %d\n",
		s.Searches, s.Levels, s.QueryFails, s.Refills, s.Exhausted, s.SketchesSummed, s.SketchesSkipped)
}

func report(out io.Writer, st mpc.Stats, batches int) {
	fmt.Fprintf(out, "rounds: %d (%.1f/batch)  messages: %d  words sent: %d\n",
		st.Rounds, float64(st.Rounds)/float64(batches), st.Messages, st.WordsSent)
	fmt.Fprintf(out, "peak machine words: %d  peak total words: %d  violations: %d\n",
		st.PeakMachineWords, st.PeakTotalWords, len(st.Violations))
}
