package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/mpc"
	"repro/internal/sketch"
)

// treeDeletionStream is a workload in which every deletion batch runs a
// replacement search over many fragments: a connected graph on n vertices (a
// random spanning tree plus 2n chords), then round after round a batch of
// MaxBatch edges of the maintained forest deleted and put back. apply applies
// one batch and returns the forest to pick the next deletions from.
func treeDeletionStream(n int, seed uint64, rounds, maxBatch int, apply func(graph.Batch) []graph.Edge) {
	prg := hash.NewPRG(seed)
	seen := map[graph.Edge]bool{}
	var build graph.Batch
	add := func(u, v int) {
		if u == v {
			return
		}
		if e := graph.NewEdge(u, v); !seen[e] {
			seen[e] = true
			build = append(build, graph.Ins(u, v))
		}
	}
	for v := 1; v < n; v++ {
		add(int(prg.NextN(uint64(v))), v)
	}
	for len(build) < 3*n {
		add(int(prg.NextN(uint64(n))), int(prg.NextN(uint64(n))))
	}
	var forest []graph.Edge
	for len(build) > 0 {
		k := min(len(build), maxBatch)
		forest = apply(build[:k])
		build = build[k:]
	}
	for r := 0; r < rounds; r++ {
		var del, ins graph.Batch
		for j := 0; j < maxBatch; j++ {
			e := forest[(j*len(forest)/maxBatch+r)%len(forest)]
			del, ins = append(del, graph.Del(e.U, e.V)), append(ins, graph.Ins(e.U, e.V))
		}
		apply(del)
		forest = apply(ins)
	}
}

// TestSearchRefills drives the replacement search past its first window. At
// SketchCopies 16 the window is 4 copies and a query fails nearly every
// second time, so searches over a dozen fragments run out of window: the
// refill — the same aggregation over the next copy range, re-summed by
// supernode — must leave every answer equal to the oracle's after every
// batch, exhaust no search, and be the same computation at parallelism 1 and
// 8 (mpc.Stats, search counters, forest). The hotpath CI job runs this under
// -race.
func TestSearchRefills(t *testing.T) {
	type outcome struct {
		stats  mpc.Stats
		search SearchStats
		forest []graph.Edge
	}
	// run feeds a workload to a fresh instance at the given parallelism,
	// checking components against the oracle after every batch.
	run := func(t *testing.T, n int, seed uint64, parallelism int, workload func(maxBatch int, apply func(graph.Batch) []graph.Edge)) outcome {
		dc, err := NewDynamicConnectivity(Config{N: n, Phi: 0.6, Seed: seed, SketchCopies: 16, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		m := &mirror{t: t, dc: dc, g: graph.New(n)}
		workload(dc.MaxBatch(), func(b graph.Batch) []graph.Edge {
			m.apply(b)
			m.check()
			return dc.SnapshotForest()
		})
		st := dc.SearchStats()
		if st.Exhausted != 0 {
			t.Errorf("%d of %d searches exhausted", st.Exhausted, st.Searches)
		}
		return outcome{dc.Cluster().Stats(), st, dc.SnapshotForest()}
	}
	both := func(t *testing.T, n int, seed uint64, workload func(maxBatch int, apply func(graph.Batch) []graph.Edge)) SearchStats {
		seq, par := run(t, n, seed, 1, workload), run(t, n, seed, 8, workload)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("p1 and p8 differ:\np1 %+v\np8 %+v", seq, par)
		}
		return seq.search
	}

	var refills uint64
	for _, stream := range []string{"testdata/churn32.stream", "../harness/testdata/window64.stream", "../harness/testdata/powerlaw64.stream"} {
		batches, n := readStream(t, stream)
		t.Run(stream, func(t *testing.T) {
			st := both(t, n, 1, func(maxBatch int, apply func(graph.Batch) []graph.Edge) {
				for _, b := range batches {
					for j := 0; j < len(b); j += maxBatch {
						apply(b[j:min(j+maxBatch, len(b))])
					}
				}
			})
			refills += st.Refills
		})
	}
	// The checked-in streams are small (1, 12 and 31 searches over few
	// fragments): together they refill, not each.
	if refills == 0 {
		t.Error("no refill on the replayed streams")
	}
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("tree-deletions/seed%d", seed), func(t *testing.T) {
			const n = 256
			st := both(t, n, seed, func(maxBatch int, apply func(graph.Batch) []graph.Edge) {
				treeDeletionStream(n, seed+100, 12, maxBatch, apply)
			})
			if st.Refills == 0 {
				t.Errorf("no refill in %d searches (%d failed queries)", st.Searches, st.QueryFails)
			}
		})
	}
}

// TestWorkspaceCursorRule runs the coordinator's half of the search — query,
// merge, install, exactly as findReplacements sequences them — on fragment
// sketches built by hand, with a table for the label lookup and a function
// for the aggregation, and checks the cursor invariant step by step:
//
//   - the cursor of the supernode a fragment belongs to never decreases, not
//     across a read, a union or a refill;
//   - a union continues exactly at the larger cursor of its parts;
//   - a refill leaves no cursor of a sketch-holding supernode below the new
//     window;
//   - no fragment is part of two reads of the same copy.
func TestWorkspaceCursorRule(t *testing.T) {
	const (
		n      = 120
		frags  = 24
		copies = 12
		window = 3
	)
	unions, refills := 0, 0
	for seed := uint64(1); seed <= 20; seed++ {
		prg := hash.NewPRG(seed)
		space := sketch.NewGraphSpace(n, copies, hash.NewPRG(seed+1000))
		// Fragment v%frags holds vertex v and is named by its smallest vertex;
		// fragment 0 is passive. The graph: a cycle through the fragments, so
		// that every one has an edge leaving it, plus random edges.
		labelOf := func(v int) int { return v % frags }
		full := make([]sketch.Sketch, frags)
		for f := range full {
			full[f] = space.NewSketch()
		}
		seen := map[graph.Edge]bool{}
		addEdge := func(u, v int) {
			if labelOf(u) == labelOf(v) {
				return
			}
			e := graph.NewEdge(u, v)
			if seen[e] {
				return
			}
			seen[e] = true
			full[labelOf(u)].AddIncidence(n, u, []uint64{e.ID(n)})
			full[labelOf(v)].AddIncidence(n, v, []uint64{e.ID(n)})
		}
		for f := 0; f < frags; f++ {
			addEdge(f, (f+1)%frags+frags)
		}
		for i := 0; i < 3*frags; i++ {
			addEdge(int(prg.NextN(n)), int(prg.NextN(n)))
		}
		// The aggregation: copies [lo, hi) of every non-passive fragment's
		// sketch, fresh each time (merge adds into the views it is given).
		fetch := func(lo, hi int) map[int]sketch.Sketch {
			sums := map[int]sketch.Sketch{}
			for f := 1; f < frags; f++ {
				sums[f] = full[f].Clone().Window(lo, hi)
			}
			return sums
		}

		var stats searchCounters
		ws := newWorkspace(space, n, []int{0}, &stats)
		ws.install(fetch(0, window), 0, window)
		if len(ws.active) != frags-1 {
			t.Fatalf("seed %d: %d active supernodes after the first window, want %d", seed, len(ws.active), frags-1)
		}

		// cursorOf is the cursor a fragment reads at next: its supernode's.
		cursorOf := func(f int) int { return ws.cursor[ws.supernodes.Find(f)] }
		last := make([]int, frags)
		monotone := func(step string) {
			t.Helper()
			for f := 1; f < frags; f++ {
				if ws.passive[ws.supernodes.Find(f)] {
					continue // it reads no more
				}
				if c := cursorOf(f); c < last[f] {
					t.Fatalf("seed %d, %s: cursor of fragment %d's supernode fell from %d to %d", seed, step, f, last[f], c)
				} else {
					last[f] = c
				}
			}
		}
		read := make([][copies]bool, frags)
		for len(ws.active) > 0 {
			before := map[int]int{}
			for rep := range ws.active {
				before[rep] = ws.cursor[rep]
			}
			candidates, stalled := ws.query()
			for rep, from := range before {
				for f := 1; f < frags; f++ {
					if ws.supernodes.Find(f) != rep {
						continue
					}
					for c := from; c < ws.cursor[rep]; c++ {
						if read[f][c] {
							t.Fatalf("seed %d: copy %d read twice on behalf of fragment %d", seed, c, f)
						}
						read[f][c] = true
					}
				}
			}
			monotone("query")
			switch {
			case len(candidates) > 0:
				labels := make([]int, 0, 2*len(candidates))
				for _, e := range candidates {
					labels = append(labels, labelOf(e.U), labelOf(e.V))
				}
				had := len(ws.replacements)
				ws.merge(candidates, labels)
				unions += len(ws.replacements) - had
				// last still holds every fragment's cursor from before the
				// merge: a supernode continues at the largest among its parts.
				want := map[int]int{}
				for f := 1; f < frags; f++ {
					root := ws.supernodes.Find(f)
					want[root] = max(want[root], last[f])
				}
				for root, c := range want {
					if !ws.passive[root] && ws.cursor[root] != c {
						t.Fatalf("seed %d: supernode %d continues at copy %d, the largest cursor among its parts was %d", seed, root, ws.cursor[root], c)
					}
				}
				monotone("merge")
			case !stalled:
				// every query came back Empty
			case ws.hi == copies:
				// Exhausted: it happens at 12 copies, and is not this test's
				// subject.
				clear(ws.active)
			default:
				lo, hi := ws.hi, min(ws.hi+window, copies)
				clear(ws.sketches)
				ws.install(fetch(lo, hi), lo, hi)
				refills++
				for root := range ws.sketches {
					if ws.cursor[root] < lo {
						t.Fatalf("seed %d: supernode %d holds copies [%d,%d) with its cursor at %d", seed, root, lo, hi, ws.cursor[root])
					}
				}
				monotone("refill")
			}
		}
	}
	if unions == 0 || refills == 0 {
		t.Errorf("%d unions and %d refills over all seeds: the test no longer reaches what it checks", unions, refills)
	}
}
