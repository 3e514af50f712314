// Matching scenario: approximate maximum matching of a dynamic
// assignment graph (e.g. riders to drivers) under churn, with both the
// insertion-only greedy structure (Theorem 8.1) and the fully dynamic
// AKLY sparsifier pipeline (Theorem 8.2), plus size-only estimation.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/oracle"
	"repro/internal/workload"
)

const (
	n     = 96
	alpha = 3.0
)

// cfg is the cluster shape every structure runs on, seeded per structure.
func cfg(seed uint64) core.Config { return core.Config{N: n, Phi: 0.6, Seed: seed} }

func main() {
	// Insertion-only: greedy capped matching in Õ(n/alpha) memory.
	gm, err := matching.NewGreedyInsertOnly(cfg(0), alpha)
	if err != nil {
		log.Fatal(err)
	}
	est, err := matching.NewInsertOnlySizeEstimator(cfg(11), alpha)
	if err != nil {
		log.Fatal(err)
	}
	ins := workload.NewChurn(workload.Config{N: n, Seed: 12})
	for batch := 0; batch < 10; batch++ {
		b := ins.NextInsertOnly(12)
		var edges []graph.Edge
		for _, u := range b {
			edges = append(edges, u.Edge)
		}
		if err := gm.InsertBatch(edges); err != nil {
			log.Fatal(err)
		}
		if err := est.InsertBatch(edges); err != nil {
			log.Fatal(err)
		}
	}
	opt := oracle.MaxMatchingSize(ins.Mirror())
	fmt.Printf("insertion-only: greedy matching %d (cap %d), size estimate %d, true maximum %d\n",
		gm.Size(), gm.Cap(), est.Estimate(), opt)

	// Fully dynamic: AKLY sparsifier + batch-dynamic maximal matching.
	dyn, err := matching.NewAKLYDynamic(cfg(13), alpha)
	if err != nil {
		log.Fatal(err)
	}
	churn := workload.NewChurn(workload.Config{N: n, Seed: 14, InsertBias: 0.7})
	for batch := 0; batch < 12; batch++ {
		if err := dyn.ApplyBatch(churn.Next(10)); err != nil {
			log.Fatal(err)
		}
	}
	opt = oracle.MaxMatchingSize(churn.Mirror())
	m := dyn.Matching()
	fmt.Printf("dynamic: AKLY matching %d across %d guess instances, true maximum %d\n",
		len(m), dyn.Instances(), opt)
	fmt.Printf("  valid matching of the current graph: %v\n", oracle.IsMatching(churn.Mirror(), m))
	fmt.Printf("  sparsifier memory: %d words (Õ(n²/α³) regime)\n", dyn.SparsifierWords())
}
