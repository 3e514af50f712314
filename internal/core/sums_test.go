package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sketch"
)

// windowTwins returns the window [lo, hi) of every active fragment's
// sketch sum as the search should see it: the sum of its vertices' dense
// twins — each vertex's incidence vector in g run through the sketch loop,
// as CheckSketches builds it — keyed by the fragment's component id. It
// reads the fragment columns the last Cut left on the shards directly: no
// collective, no metering.
func windowTwins(dc *DynamicConnectivity, g *graph.Graph, comps map[uint64]int, lo, hi int) map[int]sketch.Sketch {
	n := dc.f.cfg.N
	out := map[int]sketch.Sketch{}
	var ids []uint64
	for m := range dc.f.coord {
		vs := vShard(dc.f.cl.Machine(m))
		for i, k := range vs.frag {
			if k == 0 || vs.passive[k] {
				continue
			}
			v := vs.lo + i
			ids = ids[:0]
			g.Neighbors(v, func(w int, _ int64) bool {
				ids = append(ids, graph.NewEdge(v, w).ID(n))
				return true
			})
			sum, ok := out[comps[k]]
			if !ok {
				sum = dc.space.NewSketch().Window(lo, hi)
				out[comps[k]] = sum
			}
			sum.AddIncidence(n, v, ids)
		}
	}
	return out
}

// checkSums compares a window's sums, keyed by component id, with their
// twins.
func checkSums(t *testing.T, at string, got, want map[int]sketch.Sketch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sums, want %d", at, len(got), len(want))
	}
	for c, w := range want {
		g, ok := got[c]
		if !ok {
			t.Fatalf("%s: no sum for component %d", at, c)
		}
		if !slices.Equal(g.Cells(), w.Cells()) {
			t.Fatalf("%s: the sum of component %d differs from its vertices' dense twins", at, c)
		}
	}
}

// applyCheckingWindows applies one batch, no larger than MaxBatch, the way
// apply does — the sketch update riding the first broadcast, the Links, the
// Cut with the first window, the replacement search and its Links — but
// before the search runs it checks the first window and a refill of every
// later window (refillWindow, as the search would fetch it) against
// windowTwins of g, which the batch has already been applied to. It
// returns the number of windows checked.
func applyCheckingWindows(t *testing.T, dc *DynamicConnectivity, g *graph.Graph, b graph.Batch, at string) int {
	t.Helper()
	if err := g.Apply(b); err != nil {
		t.Fatalf("%s: invalid batch: %v", at, err)
	}
	var ins, del []graph.Edge
	for _, u := range b {
		if u.Op == graph.Insert {
			ins = append(ins, u.Edge.Canonical())
		} else {
			del = append(del, u.Edge.Canonical())
		}
	}
	dc.f.ride(sketchUpdate{ins: ins, del: del}, applySketchUpdate)
	if err := dc.link(ins); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	checked := 0
	if len(del) > 0 {
		first := dc.newFirstWindow()
		report, err := dc.f.cut(del, first)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		if len(report.TreeRecords) > 0 {
			w, copies := first.win.Hi, dc.space.Copies()
			checkSums(t, at+" first window", first.sums, windowTwins(dc, g, first.comps, 0, w))
			checked++
			for lo := w; lo < copies; lo += w {
				hi := min(lo+w, copies)
				sums, release := dc.refillWindow(lo, hi, first.comps)
				checkSums(t, fmt.Sprintf("%s refill [%d,%d)", at, lo, hi), sums, windowTwins(dc, g, first.comps, lo, hi))
				release()
				checked++
			}
			replacements, _ := dc.findReplacements(report.PassiveComps, first)
			for _, e := range replacements {
				if err := dc.f.Link([]graph.WeightedEdge{e}); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
			}
		}
		dc.f.cache.dropParked()
	}
	dc.f.flush()
	if err := dc.refusals(ins, del); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	return checked
}

// TestWindowSumsOfManyFrames holds the layout rule of a window's frames:
// a vertex machine lays out every frame before it sums into any. A path on
// 64 vertices, 32 to a shard, with a chord over every three path edges, is
// cut at its first 14 even path edges: that leaves all 14 active fragments
// — {0}, {1, 2}, …, {25, 26}, each left by chords — on shard 0, whose batch
// of frames then holds 14 windows of 112 words: 2^11 words, seven classes
// above the smallest buffer. The first window and every refill must still
// carry, in every frame, the sum of its fragment's dense twins, and the
// search must reconnect the path through the chords.
func TestWindowSumsOfManyFrames(t *testing.T) {
	const n, cuts = 64, 14
	for _, p := range []int{1, 8} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			dc, err := NewDynamicConnectivity(Config{N: n, Phi: 0.6, Seed: 3, SketchCopies: 16, VerticesPerMachine: 32, Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			g := graph.New(n)
			var path, del graph.Batch
			for v := 0; v+1 < n; v++ {
				path = append(path, graph.Ins(v, v+1))
			}
			for v := 0; v+3 < n; v++ {
				path = append(path, graph.Ins(v, v+3))
			}
			for i := 0; i < cuts; i++ {
				del = append(del, graph.Del(2*i, 2*i+1))
			}
			for j := 0; j < len(path); j += dc.MaxBatch() {
				applyCheckingWindows(t, dc, g, path[j:min(j+dc.MaxBatch(), len(path))], "path")
			}
			if checked := applyCheckingWindows(t, dc, g, del, "cut"); checked != 4 {
				t.Fatalf("%d windows checked, want 4 (16 copies, window 4)", checked)
			}
			if err := dc.CheckSketches(g); err != nil {
				t.Fatal(err)
			}
			if got := dc.NumComponents(); got != 1 {
				t.Fatalf("%d components, want 1", got)
			}
		})
	}
}

// TestRefillSumsMatchDenseTwins replays the golden streams with starved
// sketches (16 copies, window 4), at parallelism 1 and 8. Before every
// search the first window and a refill of every later window, keyed by
// fragment and named by component through the Cut's compByFrag, must equal
// the per-component sums of the vertices' dense twins; and the searches
// themselves must refill.
func TestRefillSumsMatchDenseTwins(t *testing.T) {
	for _, p := range []int{1, 8} {
		var refills uint64
		checked := 0
		for _, stream := range []string{"testdata/churn32.stream", "../harness/testdata/window64.stream", "../harness/testdata/powerlaw64.stream"} {
			batches, n := readStream(t, stream)
			dc, err := NewDynamicConnectivity(Config{N: n, Phi: 0.6, Seed: 1, SketchCopies: 16, Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			g := graph.New(n)
			for i, b := range batches {
				for j := 0; j < len(b); j += dc.MaxBatch() {
					checked += applyCheckingWindows(t, dc, g, b[j:min(j+dc.MaxBatch(), len(b))], fmt.Sprintf("%s p%d batch %d", stream, p, i))
				}
			}
			if err := dc.CheckSketches(g); err != nil {
				t.Fatal(err)
			}
			refills += dc.SearchStats().Refills
		}
		if refills == 0 {
			t.Errorf("p%d: no search refilled", p)
		}
		t.Logf("p%d: %d windows checked, %d refills", p, checked, refills)
	}
}
