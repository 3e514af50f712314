package core_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// collectBatches pre-generates a fixed batch stream so that source, twin,
// and resharded instances all consume bit-identical updates regardless of
// their (different) MaxBatch values.
func collectBatches(t *testing.T, scenario string, n, batches, size int, seed uint64) []graph.Batch {
	t.Helper()
	sc, err := workload.Get(scenario)
	if err != nil {
		t.Fatal(err)
	}
	gen := sc.New(n, seed)
	out := make([]graph.Batch, 0, batches)
	for i := 0; i < batches; i++ {
		out = append(out, gen.Next(size))
	}
	return out
}

// TestResizeConfig pins the shape math of the elastic resize: the
// 4096-vertex fleet used by the emulated-thousand-machine acceptance run
// has exactly 1025 machines at 4 vertices/machine, halves to 513 at 8, and
// doubles to 2049 at 2; a resize to the count a shape has keeps it; counts
// no equal-range partition realizes are descriptive errors.
func TestResizeConfig(t *testing.T) {
	cfg := core.Config{N: 4096, Phi: 0.6, Seed: 9, VerticesPerMachine: 4}
	if got := cfg.MachineCount(); got != 1025 {
		t.Fatalf("MachineCount at 4 vertices/machine = %d, want 1025", got)
	}
	for _, tc := range []struct {
		machines int
		vpm      int
	}{{513, 8}, {2049, 2}, {1025, 4}, {2, 4096}} {
		out, err := core.ResizeConfig(cfg, tc.machines)
		if err != nil {
			t.Fatalf("ResizeConfig(%d): %v", tc.machines, err)
		}
		if out.VerticesPerMachine != tc.vpm || out.MachineCount() != tc.machines {
			t.Fatalf("ResizeConfig(%d) = vpm %d (%d machines), want vpm %d",
				tc.machines, out.VerticesPerMachine, out.MachineCount(), tc.vpm)
		}
	}
	// A resize to the count a φ-derived shape already runs on keeps the
	// shape: ceil(48^0.6) = 11 vertices a machine on 6 machines, where the
	// resize rule alone would pick (48+4)/5 = 10.
	derived := core.Config{N: 48, Phi: 0.6, Seed: 9}
	if out, err := core.ResizeConfig(derived, derived.MachineCount()); err != nil || out != derived {
		t.Fatalf("ResizeConfig to the %d machines it has = %+v, %v; want the shape unchanged", derived.MachineCount(), out, err)
	}
	if _, err := core.ResizeConfig(cfg, 1); err == nil {
		t.Fatal("ResizeConfig(1) accepted a coordinator-only fleet")
	}
	if _, err := core.ResizeConfig(cfg, 5000); err == nil || !strings.Contains(err.Error(), "nearest realizable") {
		t.Fatalf("ResizeConfig(5000) = %v, want nearest-realizable diagnostic", err)
	}
}

// reshardTwin checkpoints a powerlaw run at srcVpm, re-shards it onto the
// cluster shape with wantMachines machines, and demands the result be
// bit-identical — labels, forest, query answers, carried-over Stats, and
// the entire subsequent evolution — to a fresh instance at the target
// shape fed the same stream.
func reshardTwin(t *testing.T, n, srcVpm, wantMachines, par int) {
	const (
		copies  = 4
		seed    = 17
		prefix  = 30
		suffix  = 6
		bsize   = 1 // MaxBatch of the thinnest shape (2 vertices/machine)
		queryAt = 5 // warm the label cache every queryAt batches
	)
	batches := collectBatches(t, "powerlaw", n, prefix+suffix, bsize, seed+1)
	pairs := make([]core.Pair, 0, 64)
	for i := 0; i < 32; i++ {
		pairs = append(pairs, core.Pair{U: i, V: n - 1 - i}, core.Pair{U: i, V: i + 1})
	}
	cfg := core.Config{N: n, Phi: 0.6, SketchCopies: copies, Seed: seed, Parallelism: par, VerticesPerMachine: srcVpm}
	tcfg, err := core.ResizeConfig(cfg, wantMachines)
	if err != nil {
		t.Fatal(err)
	}
	run := func(c core.Config, k int) *core.DynamicConnectivity {
		dc, err := core.NewDynamicConnectivity(c)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if err := dc.ApplyBatch(batches[i]); err != nil {
				t.Fatal(err)
			}
			if (i+1)%queryAt == 0 {
				dc.ConnectedAll(pairs)
			}
		}
		return dc
	}
	src := run(cfg, prefix)
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	resharded, err := core.NewDynamicConnectivity(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Load(bytes.NewReader(buf.Bytes()), resharded); err != nil {
		t.Fatalf("reshard %d -> %d machines: %v", cfg.MachineCount(), wantMachines, err)
	}
	twin := run(tcfg, prefix)
	// The execution history (rounds, messages, words moved) carries over
	// verbatim; the memory peaks legitimately re-meter under the target
	// fleet's shape, so they are excluded.
	ss, rs := src.Cluster().Stats(), resharded.Cluster().Stats()
	ss.PeakMachineWords, rs.PeakMachineWords = 0, 0
	ss.PeakTotalWords, rs.PeakTotalWords = 0, 0
	if !reflect.DeepEqual(ss, rs) {
		t.Errorf("%d machines: carried-over Stats differ from the source fleet's:\n  src:       %+v\n  resharded: %+v",
			wantMachines, ss, rs)
	}
	if !reflect.DeepEqual(twin.SnapshotComponents(), resharded.SnapshotComponents()) {
		t.Fatalf("%d machines: component labels differ from fresh twin", wantMachines)
	}
	if !reflect.DeepEqual(twin.SnapshotForest(), resharded.SnapshotForest()) {
		t.Fatalf("%d machines: forest differs from fresh twin", wantMachines)
	}
	if !reflect.DeepEqual(twin.ConnectedAll(pairs), resharded.ConnectedAll(pairs)) {
		t.Fatalf("%d machines: query answers differ from fresh twin", wantMachines)
	}
	// The migrated instance must keep evolving in lockstep with the twin.
	for i := prefix; i < prefix+suffix; i++ {
		if err := twin.ApplyBatch(batches[i]); err != nil {
			t.Fatal(err)
		}
		if err := resharded.ApplyBatch(batches[i]); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(twin.ConnectedAll(pairs), resharded.ConnectedAll(pairs)) {
			t.Fatalf("%d machines: answers diverged %d batches after the reshard", wantMachines, i-prefix+1)
		}
	}
	if !reflect.DeepEqual(twin.SnapshotComponents(), resharded.SnapshotComponents()) {
		t.Fatalf("%d machines: post-reshard evolution diverged from fresh twin", wantMachines)
	}
}

// TestReshardThousandMachinesShrinkGrow is the acceptance run: a powerlaw
// stream on a 1025-machine fleet (N=4096, 4 vertices/machine) is
// checkpointed and restored onto 513 and onto 2049 machines, each
// bit-identical to a fresh run at the target fleet — at parallelism 1
// and 8.
func TestReshardThousandMachinesShrinkGrow(t *testing.T) {
	if testing.Short() {
		t.Skip("thousand-machine emulation is a long test")
	}
	for _, par := range []int{1, 8} {
		for _, m := range []int{513, 2049} {
			reshardTwin(t, 4096, 4, m, par)
		}
	}
}

// TestReshardSmallTwin is the fast always-on version of the acceptance
// property (64 vertices, 9 -> 5 and 9 -> 17 machines).
func TestReshardSmallTwin(t *testing.T) {
	for _, m := range []int{5, 17} {
		reshardTwin(t, 64, 8, m, 1)
	}
}

// TestReshardCapRejection pins the memory-cap re-validation: shrinking the
// per-machine budget (VerticesPerMachine=1) below what the migrated state
// needs — here a coordinator label cache warmed over all 64 vertices — is
// rejected with a diagnostic before any target state is touched.
func TestReshardCapRejection(t *testing.T) {
	cfg := core.Config{N: 64, Phi: 0.6, SketchCopies: 1, Seed: 23}
	src, err := core.NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range collectBatches(t, "powerlaw", 64, 8, src.MaxBatch(), 24) {
		if err := src.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	pairs := make([]core.Pair, 0, 64)
	for v := 1; v < 64; v++ {
		pairs = append(pairs, core.Pair{U: 0, V: v})
	}
	src.ConnectedAll(pairs) // warm the full label cache into the checkpoint
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	tcfg := cfg
	tcfg.VerticesPerMachine = 1
	target, err := core.NewDynamicConnectivity(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	err = snapshot.Load(bytes.NewReader(buf.Bytes()), target)
	if err == nil {
		t.Fatal("shrink past the per-machine budget was accepted")
	}
	if !strings.Contains(err.Error(), "rejected") || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("cap violation error %q lacks the diagnostic", err)
	}
	// The failed reshard must leave the target untouched: still the fresh
	// all-singletons state.
	fresh, err := core.NewDynamicConnectivity(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.SnapshotComponents(), target.SnapshotComponents()) {
		t.Fatal("rejected reshard modified the target's components")
	}
	if got := target.SnapshotForest(); len(got) != 0 {
		t.Fatalf("rejected reshard left %d forest edges on the target", len(got))
	}
}

// FuzzReshardRestore feeds arbitrary bytes (and an arbitrary target shape)
// to the re-sharding decoder: it must never panic, and must either reject
// the input or restore a consistent instance — the reject-or-restore
// contract. The checked-in corpus includes a valid grow migration and a
// shrink past the memory cap.
func FuzzReshardRestore(f *testing.F) {
	const n = 64
	cfg := core.Config{N: n, Phi: 0.6, SketchCopies: 1, Seed: 23, VerticesPerMachine: 16}
	src, err := core.NewDynamicConnectivity(cfg)
	if err != nil {
		f.Fatal(err)
	}
	sc, err := workload.Get("powerlaw")
	if err != nil {
		f.Fatal(err)
	}
	gen := sc.New(n, 24)
	for i := 0; i < 8; i++ {
		if err := src.ApplyBatch(gen.Next(src.MaxBatch())); err != nil {
			f.Fatal(err)
		}
	}
	pairs := make([]core.Pair, 0, n-1)
	for v := 1; v < n; v++ {
		pairs = append(pairs, core.Pair{U: 0, V: v})
	}
	src.ConnectedAll(pairs)
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, src); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid, uint8(3))  // grow: 5 -> 17 machines
	f.Add(valid, uint8(32)) // shrink: 5 -> 3 machines
	f.Add(valid, uint8(0))  // a budget of 1 vertex/machine, past the memory cap: rejected
	f.Add(valid[:len(valid)/2], uint8(16))
	if len(valid) > 40 {
		bad := append([]byte(nil), valid...)
		bad[40] ^= 0xff
		f.Add(bad, uint8(16))
	}
	f.Fuzz(func(t *testing.T, data []byte, vpmByte uint8) {
		tcfg := cfg
		tcfg.VerticesPerMachine = 1 + int(vpmByte)%n
		target, err := core.NewDynamicConnectivity(tcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := snapshot.Load(bytes.NewReader(data), target); err != nil {
			return // rejected: fine, as long as it did not panic
		}
		// Restored: the instance must be internally consistent enough to
		// serve collective queries and re-checkpoint.
		if got := len(target.SnapshotComponents()); got != n {
			t.Fatalf("restored instance reports %d components entries, want %d", got, n)
		}
		var out bytes.Buffer
		if err := snapshot.Save(&out, target); err != nil {
			t.Fatalf("restored instance cannot re-checkpoint: %v", err)
		}
	})
}
