// Weighted-network scenario: maintain spanning infrastructure cost of an
// evolving weighted network — exact MSF over an insertion-only link stream,
// and a (1+ε)-approximate MSF under fully dynamic churn, compared against
// offline Kruskal.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/msf"
	"repro/internal/oracle"
	"repro/internal/workload"
)

const (
	sites     = 128
	maxWeight = 100
)

func main() {
	// Part 1: exact MSF over an insertion-only stream of link offers.
	exact, err := msf.NewExactMSF(core.Config{N: sites, Phi: 0.6, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	gen := workload.NewChurn(workload.Config{N: sites, Seed: 4, MaxWeight: maxWeight})
	k := exact.Forest().Config().MaxBatch()
	for batch := 0; batch < 16; batch++ {
		b := gen.NextInsertOnly(k)
		var edges []graph.WeightedEdge
		for _, u := range b {
			edges = append(edges, graph.WeightedEdge{Edge: u.Edge, Weight: u.Weight})
		}
		if err := exact.InsertBatch(edges); err != nil {
			log.Fatal(err)
		}
	}
	_, kruskal := oracle.MSF(gen.Mirror())
	fmt.Printf("exact MSF: maintained weight %d, offline Kruskal %d (equal: %v)\n",
		exact.Weight(), kruskal, exact.Weight() == kruskal)
	fmt.Printf("  rounds: %d\n", exact.Forest().Cluster().Stats().Rounds)

	// Part 2: (1+eps)-approximate MSF weight under dynamic churn.
	const eps = 0.25
	approx, err := msf.NewApproxMSF(core.Config{N: sites, Phi: 0.6, Seed: 5}, eps, maxWeight)
	if err != nil {
		log.Fatal(err)
	}
	dyn := workload.NewChurn(workload.Config{N: sites, Seed: 6, MaxWeight: maxWeight, InsertBias: 0.7})
	for batch := 0; batch < 12; batch++ {
		if err := approx.ApplyBatch(dyn.Next(approx.MaxBatch())); err != nil {
			log.Fatal(err)
		}
	}
	_, want := oracle.MSF(dyn.Mirror())
	est := approx.Weight()
	fmt.Printf("approx MSF (eps=%.2f, %d level graphs): estimate %d, true %d, ratio %.3f\n",
		eps, len(approx.Levels()), est, want, float64(est)/float64(want))
	forest := approx.Snapshot()
	fmt.Printf("  extracted forest: %d edges, threshold-rounded weight %d\n",
		len(forest), approx.ForestWeight())
}
