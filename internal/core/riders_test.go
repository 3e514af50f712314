package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// settled fails unless nothing rides pending on f, no question waits for
// its Ask, and its shards hold the oracle's components of g. The pending
// list is read first: reading the components flushes it.
func settled(t *testing.T, f *Forest, g *graph.Graph, at string) {
	t.Helper()
	if k := len(f.pending.riders); k != 0 {
		t.Fatalf("%s: %d riders still pending", at, k)
	}
	if k := len(f.pending.qs); k != 0 {
		t.Fatalf("%s: %d questions posed and never asked", at, k)
	}
	want, got := oracle.Components(g), f.SnapshotComponents()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: component of %d is %d, oracle %d", at, v, got[v], want[v])
		}
	}
}

// TestRidersNeverOutliveAnOperation: a rider (Forest.ride) lands with a
// broadcast of the operation that queued it or with the flush that ends the
// operation, never with the next one. After Bootstrap, every ApplyBatch, a
// public Link and Cut on a bare forest, a Restore at the same shape and one
// at another (a reshard), nothing is pending and the shards hold the
// oracle's components — at parallelism 1 and 8. The batches come from a
// sliding window, whose deletions find replacements, and from a churned path,
// whose deletions never do (the Cut's closing Tell is then sent at the end
// of the batch). A Restore also drops the riders of the state it replaces.
func TestRidersNeverOutliveAnOperation(t *testing.T) {
	const n = 64
	for _, par := range []int{1, 8} {
		for name, gen := range map[string]workload.Generator{
			"window": workload.NewSlidingWindow(n, 0, 3, 0),
			"path":   workload.NewPathChurn(n, 3),
		} {
			t.Run(fmt.Sprintf("%s/p%d", name, par), func(t *testing.T) {
				cfg := Config{N: n, Phi: 0.6, Seed: 5, Parallelism: par}
				dc, err := NewDynamicConnectivity(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var boot []graph.Edge
				for _, u := range gen.Next(dc.MaxBatch()) {
					boot = append(boot, u.Edge)
				}
				if _, err := dc.Bootstrap(boot); err != nil {
					t.Fatal(err)
				}
				settled(t, dc.f, gen.Mirror(), "Bootstrap")
				for b := 0; b < 40; b++ {
					if err := dc.ApplyBatch(gen.Next(dc.MaxBatch())); err != nil {
						t.Fatalf("batch %d: %v", b, err)
					}
					settled(t, dc.f, gen.Mirror(), fmt.Sprintf("ApplyBatch %d", b))
				}
				if st := dc.SearchStats(); st.Searches == 0 {
					t.Fatal("no batch cut a tree edge: the stream tests nothing")
				}

				var buf bytes.Buffer
				if err := snapshot.Save(&buf, dc); err != nil {
					t.Fatal(err)
				}
				resized, err := ResizeConfig(cfg, cfg.MachineCount()+2)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []Config{cfg, resized} {
					into, err := NewDynamicConnectivity(c)
					if err != nil {
						t.Fatal(err)
					}
					into.f.ride(sketchUpdate{ins: []graph.Edge{{U: 0, V: 1}}}, applySketchUpdate)
					if err := snapshot.Load(bytes.NewReader(buf.Bytes()), into); err != nil {
						t.Fatal(err)
					}
					settled(t, into.f, gen.Mirror(), fmt.Sprintf("Restore onto %d machines", c.MachineCount()))
				}
			})
		}
		t.Run(fmt.Sprintf("forest/p%d", par), func(t *testing.T) {
			f, err := NewForest(Config{N: n, Phi: 0.6, Seed: 5, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			g := graph.New(n)
			var path []graph.WeightedEdge
			for v := 0; v+1 < 24; v++ {
				path = append(path, graph.WeightedEdge{Edge: graph.NewEdge(v, v+1)})
			}
			for len(path) > 0 {
				k := min(len(path), f.Config().MaxBatch())
				if err := f.Link(path[:k]); err != nil {
					t.Fatal(err)
				}
				for _, e := range path[:k] {
					g.Insert(e.U, e.V, 0)
				}
				path = path[k:]
				settled(t, f, g, "Link")
			}
			cuts := []graph.Edge{graph.NewEdge(4, 5), graph.NewEdge(15, 16)}
			if _, err := f.Cut(cuts); err != nil {
				t.Fatal(err)
			}
			for _, e := range cuts {
				g.Delete(e.U, e.V)
			}
			settled(t, f, g, "Cut")
		})
	}
}
