package harness

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mpc"
	"repro/internal/streamio"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "regenerate golden files under testdata/")

// goldenScenarios are the scenario traces checked in under testdata/:
// regenerate with `go test ./internal/harness -run Golden -update` after an
// intentional generator change.
var goldenScenarios = []struct {
	scenario, file string
	n, batches, k  int
	seed           uint64
}{
	{"powerlaw", "testdata/powerlaw64.stream", 64, 16, 16, 99},
	{"window", "testdata/window64.stream", 64, 16, 16, 99},
}

// TestGoldenScenarioTraces pins the scenario generators: the recorded
// stream must match the checked-in .stream fixture byte for byte (guarding
// against silent sampling drift), and replaying the fixture through
// dynamic connectivity must agree with the oracle and produce bit-identical
// components and Stats at parallelism 1 and 8.
func TestGoldenScenarioTraces(t *testing.T) {
	for _, gs := range goldenScenarios {
		t.Run(gs.scenario, func(t *testing.T) {
			sc, err := workload.Get(gs.scenario)
			if err != nil {
				t.Fatal(err)
			}
			// The generator is pulled straight into the text encoder, never
			// materialized.
			var buf bytes.Buffer
			w := streamio.NewWriter(&buf)
			gen := sc.New(gs.n, gs.seed)
			for range gs.batches {
				if err := w.WriteBatch(gen.Next(gs.k)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("empty recording")
			}
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(gs.file), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(gs.file, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			disk, err := os.ReadFile(gs.file)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(disk, buf.Bytes()) {
				t.Fatalf("%s drifted from the %s generator; regenerate with -update if intentional", gs.file, gs.scenario)
			}
			replay := func(parallelism int) (mpc.Stats, []int) {
				dc, err := core.NewDynamicConnectivity(core.Config{N: gs.n, Phi: 0.6, Seed: 1, Parallelism: parallelism})
				if err != nil {
					t.Fatal(err)
				}
				shape := workload.Shape{N: gs.n, Batches: -1, Updates: -1}
				rp := workload.NewMirrored(workload.NewFuncSource(shape, streamio.NewReader(bytes.NewReader(disk)).Next))
				for {
					b, err := rp.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					for len(b) > 0 {
						k := dc.MaxBatch()
						if k > len(b) {
							k = len(b)
						}
						if err := dc.ApplyBatch(b[:k]); err != nil {
							t.Fatal(err)
						}
						b = b[k:]
					}
				}
				if err := VerifyConnectivity(dc, rp.Mirror()); err != nil {
					t.Fatalf("replay diverged from oracle: %v", err)
				}
				return dc.Cluster().Stats(), dc.SnapshotComponents()
			}
			seqStats, seqComp := replay(1)
			parStats, parComp := replay(8)
			if !reflect.DeepEqual(seqStats, parStats) {
				t.Errorf("Stats differ across parallelism:\n  seq: %+v\n  par: %+v", seqStats, parStats)
			}
			if !reflect.DeepEqual(seqComp, parComp) {
				t.Error("component labels differ across parallelism")
			}
		})
	}
}
