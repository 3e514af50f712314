package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// checkCacheExact fails unless the label cache is exact and settled between
// updates: every stamped entry is its vertex's component, valid counts them,
// a cached component count is the oracle's, and nothing is parked. It also
// checks what a loader derives the column from (checkForestTrees).
func checkCacheExact(t *testing.T, dc *DynamicConnectivity, g *graph.Graph, at string) {
	t.Helper()
	lc := &dc.f.cache
	comps := checkForestTrees(t, dc, at)
	stamped := 0
	for v, s := range lc.stamp {
		if s != lc.epoch {
			continue
		}
		stamped++
		if lc.labels[v] != comps[v] {
			t.Fatalf("%s: cached label of %d is %d, its component is %d", at, v, lc.labels[v], comps[v])
		}
	}
	if stamped != lc.valid {
		t.Fatalf("%s: %d entries stamped, valid says %d", at, stamped, lc.valid)
	}
	if want := oracle.NumComponents(g); !lc.numCompsOK || lc.numComps != want {
		t.Fatalf("%s: cached component count %d (ok %v), oracle %d", at, lc.numComps, lc.numCompsOK, want)
	}
	if len(lc.pend) != 0 {
		t.Fatalf("%s: %d components still parked between updates", at, len(lc.pend))
	}
}

// checkForestTrees fails unless the component column is the minimum-root
// union-find over the spanning forest — the premise on which a checkpoint
// holds tree edges and no column — and returns the column.
func checkForestTrees(t *testing.T, dc *DynamicConnectivity, at string) []int {
	t.Helper()
	comps := dc.SnapshotComponents()
	trees, roots, err := forestComponents(dc.f.cfg.N, dc.SnapshotForest(), nil)
	if err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	if !slices.Equal(comps, trees) {
		t.Fatalf("%s: the component column is not the forest's trees:\ncolumn %v\ntrees  %v", at, comps, trees)
	}
	if lc := &dc.f.cache; lc.numCompsOK && lc.numComps != roots {
		t.Fatalf("%s: cached component count %d, the forest has %d trees", at, lc.numComps, roots)
	}
	return comps
}

// TestComponentsAreForestTrees pins checkForestTrees where the search fails:
// with starved sketches (4 copies) searches exhaust and the maintained
// partition is too fine, yet the column still follows the forest, batch by
// batch, on every registered scenario.
func TestComponentsAreForestTrees(t *testing.T) {
	const n, batches = 64, 40
	var exhausted uint64
	for _, name := range workload.Names() {
		sc, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			dc, err := NewDynamicConnectivity(Config{N: n, Phi: 0.6, SketchCopies: 4, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			dc.NumComponents()
			gen := sc.New(n, seed)
			for b := 0; b < batches; b++ {
				if batch := gen.Next(dc.MaxBatch()); len(batch) > 0 {
					if err := dc.ApplyBatch(batch); err != nil {
						t.Fatalf("%s seed %d batch %d: %v", name, seed, b, err)
					}
				}
				checkForestTrees(t, dc, fmt.Sprintf("%s seed %d batch %d", name, seed, b))
			}
			exhausted += dc.SearchStats().Exhausted
		}
	}
	if exhausted == 0 {
		t.Fatal("no search exhausted its sketches: the run is not starved")
	}
	t.Logf("%d exhausted searches", exhausted)
}

// TestLabelCacheExactAcrossUpdates pins what lets the label cache survive
// updates: Links and Cuts rewrite it instead of dropping it, so after every
// batch of every registered scenario (connectivity runs on all of them), at
// parallelism 1 and 8, checkCacheExact holds. Between batches a random half
// of the vertices is queried, so the cache holds entries of the components
// the next batch merges and splits. The component count is read once, at the
// start, and must stay cached and right from then on.
func TestLabelCacheExactAcrossUpdates(t *testing.T) {
	const n, batches = 64, 24
	for _, name := range workload.Names() {
		sc, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", name, par), func(t *testing.T) {
				dc, err := NewDynamicConnectivity(Config{N: n, Phi: 0.6, Seed: 7, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				gen := sc.New(n, 8)
				prg := hash.NewPRG(9)
				dc.NumComponents()
				half := make([]int, 0, n)
				for b := 0; b < batches; b++ {
					if batch := gen.Next(dc.MaxBatch()); len(batch) > 0 {
						if err := dc.ApplyBatch(batch); err != nil {
							t.Fatalf("batch %d: %v", b, err)
						}
					}
					checkCacheExact(t, dc, gen.Mirror(), fmt.Sprintf("batch %d", b))
					half = half[:0]
					for v := 0; v < n; v++ {
						if prg.NextN(2) == 0 {
							half = append(half, v)
						}
					}
					dc.ComponentsOf(half)
				}
			})
		}
	}
}

// TestLabelCacheWarmUnderChurn is the warmth floor, on a small serve-window
// shape: a sliding window of 3n edges over n = 256, every batch deleting
// tree edges of the giant component, and two query batches of 16 pairs after
// each. Once every vertex has been seen, a majority of the query batches must
// be answered from the cache — which takes the replacement Links reuniting
// what each Cut parked.
func TestLabelCacheWarmUnderChurn(t *testing.T) {
	const n, batch = 256, 14
	dc, err := NewDynamicConnectivity(Config{N: n, Phi: 0.6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.NewQueryMix(workload.NewSlidingWindow(n, 0, 2, 0), n, 3)
	apply := func() {
		t.Helper()
		if err := dc.ApplyBatch(mix.Next(batch)); err != nil {
			t.Fatal(err)
		}
	}
	for mix.Mirror().M() < 3*n {
		apply()
	}
	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	dc.ComponentsOf(all)
	hits0, misses0 := dc.QueryCacheStats()
	for b := 0; b < 40; b++ {
		apply()
		for q := 0; q < 2; q++ {
			pairs := mix.NextQueries(16)
			got := dc.ConnectedAll(toCorePairs(pairs))
			for i, want := range mix.OracleAnswers(pairs) {
				if got[i] != want {
					t.Fatalf("batch %d: pair %v answered %v, oracle %v", b, pairs[i], got[i], want)
				}
			}
		}
	}
	hits1, misses1 := dc.QueryCacheStats()
	hits, misses := hits1-hits0, misses1-misses0
	if hits <= misses {
		t.Errorf("%d hits and %d misses over %d query batches under churn: the cache went cold", hits, misses, hits+misses)
	}
	t.Logf("%d hits, %d misses", hits, misses)
}

func toCorePairs(qs [][2]int) []Pair {
	out := make([]Pair, len(qs))
	for i, q := range qs {
		out[i] = Pair{U: q[0], V: q[1]}
	}
	return out
}
