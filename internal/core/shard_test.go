package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/snapshot"
)

// checkShardTables checks the flat shard layout the deletion path relies on:
// every edge shard's records are strictly ascending by edge and are tree
// edges edgeOwner places on that machine, together exactly forest; every
// vertex shard's fragment column is all zero with a zero count.
func checkShardTables(t *testing.T, dc *DynamicConnectivity, forest []graph.WeightedEdge, at string) {
	t.Helper()
	f := dc.f
	var held []graph.WeightedEdge
	for i := 0; i < f.cl.Machines(); i++ {
		mm := f.cl.Machine(i)
		recs := eShard(mm).recs
		for j, te := range recs {
			if j > 0 && cmpEdge(recs[j-1].rec.E, te.rec.E) >= 0 {
				t.Fatalf("%s: machine %d holds %v after %v", at, i, te.rec.E, recs[j-1].rec.E)
			}
			if o := f.edgeOwner(te.rec.E); o != i {
				t.Fatalf("%s: machine %d holds %v, which edgeOwner places on %d", at, i, te.rec.E, o)
			}
			held = append(held, graph.WeightedEdge{Edge: te.rec.E, Weight: te.weight})
		}
		if vs := vShard(mm); vs != nil && (vs.nfrag != 0 || slices.ContainsFunc(vs.frag, func(k uint64) bool { return k != 0 })) {
			t.Fatalf("%s: machine %d keeps %d fragment keys: %v", at, i, vs.nfrag, vs.frag)
		}
	}
	slices.SortFunc(held, func(a, b graph.WeightedEdge) int { return cmpEdge(a.Edge, b.Edge) })
	if !slices.Equal(held, forest) {
		t.Fatalf("%s: the shards hold %v, the forest is %v", at, held, forest)
	}
}

// TestShardTablesStayFlat replays the three pinned streams at parallelism 1
// and 8 and checks the shard tables (checkShardTables) after every batch, then
// loads a full checkpoint of the end state at the writer's shape and on two
// machines and checks them there, against the writer's forest.
func TestShardTablesStayFlat(t *testing.T) {
	for _, stream := range []string{"testdata/churn32.stream", "../harness/testdata/window64.stream", "../harness/testdata/powerlaw64.stream"} {
		batches, n := readStream(t, stream)
		for _, p := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", stream, p), func(t *testing.T) {
				cfg := Config{N: n, Phi: 0.6, Seed: 1, Parallelism: p}
				dc, err := NewDynamicConnectivity(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, b := range batches {
					for j := 0; j < len(b); j += dc.MaxBatch() {
						if err := dc.ApplyBatch(b[j:min(j+dc.MaxBatch(), len(b))]); err != nil {
							t.Fatalf("batch %d: %v", i, err)
						}
						checkShardTables(t, dc, dc.f.SnapshotForest(), fmt.Sprintf("batch %d", i))
					}
				}
				var full bytes.Buffer
				if err := snapshot.Save(&full, dc); err != nil {
					t.Fatal(err)
				}
				for _, machines := range []int{dc.Cluster().Machines(), 2} {
					rcfg, err := ResizeConfig(cfg, machines)
					if err != nil {
						t.Fatal(err)
					}
					loaded, err := NewDynamicConnectivity(rcfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := snapshot.Load(bytes.NewReader(full.Bytes()), loaded); err != nil {
						t.Fatal(err)
					}
					checkShardTables(t, loaded, dc.f.SnapshotForest(), fmt.Sprintf("loaded on %d machines", machines))
				}
			})
		}
	}
}

// TestDeletionsAfterLoadStayOnOwners: a Cut looks a deleted edge up only on
// the shard edgeOwner names, so a load must put every record there. On the
// three pinned streams at parallelism 1 and 8 it checkpoints the writer
// before every batch that deletes a tree edge, loads the last such checkpoint
// at the writer's shape and on two machines, applies that batch to the loaded
// instance and compares its forest, components and shard tables with the
// writer's after the same batch. A record loaded off its owner would turn a
// tree edge the batch deletes into a non-tree one.
func TestDeletionsAfterLoadStayOnOwners(t *testing.T) {
	for _, stream := range []string{"testdata/churn32.stream", "../harness/testdata/window64.stream", "../harness/testdata/powerlaw64.stream"} {
		batches, n := readStream(t, stream)
		for _, p := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", stream, p), func(t *testing.T) {
				cfg := Config{N: n, Phi: 0.6, Seed: 1, Parallelism: p}
				dc, err := NewDynamicConnectivity(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Both sides apply the writer's chunks: a smaller fleet takes
				// larger batches, which would choose other replacements.
				chunk := dc.MaxBatch()
				apply := func(dc *DynamicConnectivity, b graph.Batch) {
					t.Helper()
					for j := 0; j < len(b); j += chunk {
						if err := dc.ApplyBatch(b[j:min(j+chunk, len(b))]); err != nil {
							t.Fatal(err)
						}
					}
				}
				var ckpt []byte
				at, treeDeletes := -1, 0
				var wantForest []graph.WeightedEdge
				var wantComps []int
				for i, b := range batches {
					forest := dc.f.SnapshotForest()
					deletes := 0
					for _, up := range b {
						_, found := slices.BinarySearchFunc(forest, up.Edge, func(we graph.WeightedEdge, e graph.Edge) int { return cmpEdge(we.Edge, e) })
						if up.Op == graph.Delete && found {
							deletes++
						}
					}
					var buf bytes.Buffer
					if deletes > 0 {
						if err := snapshot.Save(&buf, dc); err != nil {
							t.Fatal(err)
						}
					}
					apply(dc, b)
					if deletes > 0 {
						ckpt, at, treeDeletes = buf.Bytes(), i, deletes
						wantForest, wantComps = dc.f.SnapshotForest(), dc.SnapshotComponents()
					}
				}
				if at < 0 {
					t.Fatal("no batch of the stream deletes a tree edge")
				}
				for _, machines := range []int{dc.Cluster().Machines(), 2} {
					rcfg, err := ResizeConfig(cfg, machines)
					if err != nil {
						t.Fatal(err)
					}
					loaded, err := NewDynamicConnectivity(rcfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := snapshot.Load(bytes.NewReader(ckpt), loaded); err != nil {
						t.Fatal(err)
					}
					apply(loaded, batches[at])
					where := fmt.Sprintf("batch %d (%d tree-edge deletions) after a load on %d machines", at, treeDeletes, machines)
					if got := loaded.f.SnapshotForest(); !slices.Equal(got, wantForest) {
						t.Fatalf("%s: forest %v, the writer's %v", where, got, wantForest)
					}
					if got := loaded.SnapshotComponents(); !slices.Equal(got, wantComps) {
						t.Fatalf("%s: components %v, the writer's %v", where, got, wantComps)
					}
					checkShardTables(t, loaded, wantForest, where)
				}
			})
		}
	}
}
