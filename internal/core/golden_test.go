package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/streamio"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "regenerate golden files under testdata/")

const goldenTrace = "testdata/churn32.stream"

// regenerateGoldenTrace rewrites the checked-in trace from the fixed-seed
// churn generator. The generator is deterministic, so the file only changes
// when the workload package's sampling does.
func regenerateGoldenTrace(t *testing.T) {
	t.Helper()
	gen := workload.NewChurn(workload.Config{N: 32, Seed: 424242, InsertBias: 0.6})
	batches := make([]graph.Batch, 0, 24)
	for i := 0; i < 24; i++ {
		batches = append(batches, gen.Next(8))
	}
	if err := os.MkdirAll(filepath.Dir(goldenTrace), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := streamio.Write(f, batches); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenChurnTrace replays a checked-in churn trace (generated from
// workload seed 424242; regenerate with `go test -run Golden -update`)
// through the connectivity algorithm and checks the final solution and the
// resource envelope. It guards against silent behavioral drift anywhere in
// the pipeline: streamio parsing, batch splitting, and the full
// insert/delete machinery.
func TestGoldenChurnTrace(t *testing.T) {
	if *updateGolden {
		regenerateGoldenTrace(t)
	}
	f, err := os.Open(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	batches, err := streamio.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) == 0 {
		t.Fatal("empty golden trace")
	}
	n := streamio.MaxVertex(batches) + 1
	dc, err := NewDynamicConnectivity(Config{N: n, Phi: 0.6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(n)
	for i, b := range batches {
		if err := g.Apply(b); err != nil {
			t.Fatalf("golden batch %d no longer valid: %v", i, err)
		}
		for j := 0; j < len(b); j += dc.MaxBatch() {
			end := min(j+dc.MaxBatch(), len(b))
			if err := dc.ApplyBatch(b[j:end]); err != nil {
				t.Fatalf("batch %d[%d:%d]: %v", i, j, end, err)
			}
		}
	}
	want := oracle.Components(g)
	got := dc.SnapshotComponents()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: component %d, oracle %d", v, got[v], want[v])
		}
	}
	if !oracle.IsSpanningForest(g, dc.SnapshotForest()) {
		t.Fatal("forest invalid after golden replay")
	}
	st := dc.Cluster().Stats()
	if len(st.Violations) != 0 {
		t.Fatalf("violations: %v", st.Violations[0])
	}
	// Loose resource envelope: catches order-of-magnitude regressions in
	// round or memory accounting without being brittle to small changes.
	if perBatch := float64(st.Rounds) / float64(len(batches)); perBatch > 60 {
		t.Errorf("rounds per golden batch = %.1f, expected well under 60", perBatch)
	}
}
