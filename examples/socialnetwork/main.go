// Social-network scenario: an evolving friendship graph processed in large
// batches — the motivating workload of the paper's introduction (millions
// of edges added or removed per second, processed by a parallel system with
// total memory independent of the edge count).
//
// Communities form, merge through bridge edges, and fracture as edges
// churn; after every batch the system answers connectivity queries in O(1)
// rounds from the maintained spanning forest.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hash"
)

const (
	users       = 512
	communities = 8
)

func main() {
	dc, err := core.NewDynamicConnectivity(core.Config{N: users, Phi: 0.6, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	mirror := graph.New(users)
	prg := hash.NewPRG(99)
	commOf := func(u int) int { return u % communities }
	apply := func(b graph.Batch) {
		if err := mirror.Apply(b); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < len(b); i += dc.MaxBatch() {
			end := min(i+dc.MaxBatch(), len(b))
			if err := dc.ApplyBatch(b[i:end]); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Stage 1: dense friendships inside each community.
	var intra graph.Batch
	seen := map[graph.Edge]bool{}
	for len(intra) < 900 {
		u := int(prg.NextN(users))
		v := int(prg.NextN(users))
		if u == v || commOf(u) != commOf(v) {
			continue
		}
		e := graph.NewEdge(u, v)
		if seen[e] {
			continue
		}
		seen[e] = true
		intra = append(intra, graph.Ins(u, v))
	}
	apply(intra)
	fmt.Printf("after intra-community growth: %d components\n", dc.NumComponents())

	// Stage 2: a handful of bridge friendships merge the communities.
	var bridges graph.Batch
	for c := 1; c < communities; c++ {
		bridges = append(bridges, graph.Ins(c-1, c)) // user c-1 and c are in different communities
	}
	apply(bridges)
	fmt.Printf("after bridges: %d components (%d users never made a friend)\n",
		dc.NumComponents(), countIsolated(mirror))

	// Stage 3: churn — random unfriending including some bridges.
	deleted := 0
	for _, e := range mirror.Edges() {
		if deleted >= 80 {
			break
		}
		if prg.Next()%3 == 0 {
			apply(graph.Batch{graph.Del(e.U, e.V)})
			deleted++
		}
	}
	fmt.Printf("after churn (%d unfriendings): %d components\n", deleted, dc.NumComponents())
	fmt.Printf("users 0 and 5 still connected: %v\n", dc.Connected(0, 5))

	st := dc.Cluster().Stats()
	fmt.Printf("MPC resources: %d rounds, peak total memory %d words, %d cap violations\n",
		st.Rounds, st.PeakTotalWords, st.ViolationCount)
}

func countIsolated(g *graph.Graph) int {
	n := 0
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 0 {
			n++
		}
	}
	return n
}
