package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// ckpt is the base container's name in the tests' in-memory chain stores;
// the chain files its k-th delta under ckpt.delta-00k.
const ckpt = "ckpt"

// tagChain is package snapshot's reserved first section of a delta
// container (the chain-identity header).
const tagChain = 0x0D

// checkpoint writes the next container of the chain and demands its kind.
func checkpoint(tb testing.TB, chain *snapshot.Chain, dc *core.DynamicConnectivity, wantKind string) {
	tb.Helper()
	kind, _, err := chain.Checkpoint(dc)
	if err != nil {
		tb.Fatal(err)
	}
	if kind != wantKind {
		tb.Fatalf("chain wrote a %s checkpoint, want %s", kind, wantKind)
	}
}

// restoreChain replays the chain held in store into dc.
func restoreChain(tb testing.TB, store snapshot.Store, dc *core.DynamicConnectivity) *snapshot.Chain {
	tb.Helper()
	chain := snapshot.OpenChainIn(store, ckpt, 8)
	if ok, err := chain.Restore(dc); err != nil || !ok {
		tb.Fatalf("chain restore: ok=%v err=%v", ok, err)
	}
	return chain
}

// container returns the bytes stored under name.
func container(tb testing.TB, store snapshot.Store, name string) []byte {
	tb.Helper()
	r, err := store.Open(name)
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// storeOf returns a store holding exactly the given containers.
func storeOf(tb testing.TB, files map[string][]byte) snapshot.Store {
	tb.Helper()
	store := snapshot.NewMemStore()
	for name, data := range files {
		if err := store.Put(name, func(w io.Writer) error { _, err := w.Write(data); return err }); err != nil {
			tb.Fatal(err)
		}
	}
	return store
}

// writeDelta writes dc's pending delta as a container the way the chain
// does, but without acknowledging it, so the same journal can be encoded
// again (the chain position it claims is arbitrary).
func writeDelta(tb testing.TB, w io.Writer, dc *core.DynamicConnectivity) {
	tb.Helper()
	e := snapshot.NewEncoder()
	e.Begin(tagChain)
	e.U64(1)
	e.U64(1)
	e.U64(1)
	if !dc.CheckpointDelta(e) {
		tb.Fatal("the instance declined to write a delta")
	}
	if _, _, err := e.WriteContainer(w, snapshot.DeltaMagic); err != nil {
		tb.Fatal(err)
	}
}

// TestDeltaChainRestoreBitIdentical is the delta acceptance property:
// restoring base + delta chain into a fresh instance must be bit-identical —
// Stats, components, forest, and warm query answers — to restoring one full
// snapshot of the same final state, and both must equal the live instance,
// at parallelism 1 and 8. The stream includes deletions, so the replay runs
// cuts, replacement searches and relabels, not just links.
func TestDeltaChainRestoreBitIdentical(t *testing.T) {
	for _, par := range []int{1, 8} {
		dc, mix := warmInstance(t, 64, par, 4, 17)
		store := snapshot.NewMemStore()
		chain := snapshot.OpenChainIn(store, ckpt, 8)
		checkpoint(t, chain, dc, snapshot.KindFull)
		// Three deltas, each covering two batches of churn plus queries (so
		// the label cache is warm and epoch-scoped entries ride the delta).
		for k := 0; k < 3; k++ {
			for i := 0; i < 2; i++ {
				if err := dc.ApplyBatch(mix.Next(dc.MaxBatch())); err != nil {
					t.Fatal(err)
				}
				dc.ConnectedAllInto(nil, toPairs(mix.NextQueries(16)))
			}
			checkpoint(t, chain, dc, snapshot.KindDelta)
		}
		var full bytes.Buffer
		if err := snapshot.Save(&full, dc); err != nil {
			t.Fatal(err)
		}

		fresh := func() *core.DynamicConnectivity {
			r, err := core.NewDynamicConnectivity(core.Config{N: 64, Phi: 0.6, Seed: 17, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		fromChain := fresh()
		if got := restoreChain(t, store, fromChain).Len(); got != 3 {
			t.Fatalf("par %d: chain restore replayed %d deltas, want 3", par, got)
		}
		fromFull := fresh()
		if err := snapshot.Load(bytes.NewReader(full.Bytes()), fromFull); err != nil {
			t.Fatal(err)
		}

		for name, r := range map[string]*core.DynamicConnectivity{"chain": fromChain, "full": fromFull} {
			if !reflect.DeepEqual(dc.Cluster().Stats(), r.Cluster().Stats()) {
				t.Fatalf("par %d: %s-restored Stats differ:\n  live:     %+v\n  restored: %+v",
					par, name, dc.Cluster().Stats(), r.Cluster().Stats())
			}
			if !reflect.DeepEqual(dc.SnapshotComponents(), r.SnapshotComponents()) {
				t.Fatalf("par %d: %s-restored components differ", par, name)
			}
			if !reflect.DeepEqual(dc.SnapshotForest(), r.SnapshotForest()) {
				t.Fatalf("par %d: %s-restored forest differs", par, name)
			}
		}

		// Continue live and chain-restored in lockstep: answers and Stats must
		// stay identical (in particular the restored cache is still warm).
		for i := 0; i < 3; i++ {
			b := mix.Next(dc.MaxBatch())
			if err := dc.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
			if err := fromChain.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
			pairs := toPairs(mix.NextQueries(32))
			if !reflect.DeepEqual(dc.ConnectedAll(pairs), fromChain.ConnectedAll(pairs)) {
				t.Fatalf("par %d: post-restore answers diverged at batch %d", par, i)
			}
		}
		if !reflect.DeepEqual(dc.Cluster().Stats(), fromChain.Cluster().Stats()) {
			t.Fatalf("par %d: post-restore Stats diverged:\n  live:     %+v\n  restored: %+v",
				par, dc.Cluster().Stats(), fromChain.Cluster().Stats())
		}
	}
}

// TestDeltaRejectsOrphanAndOutOfOrder pins the chain-identity validation,
// through the chain: a delta naming another base (an orphan of a crash
// mid-compaction) is swept and counted, a delta at the wrong position (out
// of order) or a full container filed as a delta is a hard error, and each
// is decided before any of that delta's state sections is decoded.
func TestDeltaRejectsOrphanAndOutOfOrder(t *testing.T) {
	dc, mix := warmInstance(t, 64, 1, 3, 19)
	store := snapshot.NewMemStore()
	chain := snapshot.OpenChainIn(store, ckpt, 8)
	checkpoint(t, chain, dc, snapshot.KindFull)
	if err := dc.ApplyBatch(mix.Next(dc.MaxBatch())); err != nil {
		t.Fatal(err)
	}
	checkpoint(t, chain, dc, snapshot.KindDelta)
	base, delta := container(t, store, ckpt), container(t, store, ckpt+".delta-001")

	fresh, err := core.NewDynamicConnectivity(core.Config{N: 64, Phi: 0.6, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	// Orphan: the base was rewritten (here, as a full snapshot of the current
	// state) and the delta of the old base was left behind.
	var rebased bytes.Buffer
	if err := snapshot.Save(&rebased, dc); err != nil {
		t.Fatal(err)
	}
	orphaned := storeOf(t, map[string][]byte{ckpt: rebased.Bytes(), ckpt + ".delta-001": delta})
	if got := restoreChain(t, orphaned, fresh); got.OrphansRemoved() != 1 || got.Len() != 0 {
		t.Fatalf("orphaned delta: %d swept, chain length %d; want 1 and 0", got.OrphansRemoved(), got.Len())
	}
	if _, err := orphaned.Open(ckpt + ".delta-001"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("orphaned delta still in the store: %v", err)
	}
	for name, tc := range map[string]struct {
		second []byte
		want   string
	}{
		"out-of-order": {delta, "out-of-order delta"},
		// Caught by the magic word.
		"full-as-delta": {base, "full snapshot container"},
	} {
		bad := storeOf(t, map[string][]byte{ckpt: base, ckpt + ".delta-001": delta, ckpt + ".delta-002": tc.second})
		if _, err := snapshot.OpenChainIn(bad, ckpt, 8).Restore(fresh); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: not rejected: %v", name, err)
		}
	}
	// The rejected attempts do not poison the instance for the correct chain.
	restoreChain(t, store, fresh)
	if !reflect.DeepEqual(dc.SnapshotComponents(), fresh.SnapshotComponents()) {
		t.Fatal("chain restore after rejected attempts diverged")
	}
}

// bigInstance builds the acceptance-scale instance: 1<<16 vertices with 2
// sketch copies (the default t = 2 log n + 8 would put the arenas at ~2 GB;
// two copies keep the full image ~100 MB while preserving the cost shape),
// warmed with insert-only churn so the replacement search never needs the
// full copy stack.
func bigInstance(tb testing.TB) (*core.DynamicConnectivity, *workload.Churn) {
	tb.Helper()
	const n = 1 << 16
	dc, err := core.NewDynamicConnectivity(core.Config{N: n, Phi: 0.6, SketchCopies: 2, Seed: 21})
	if err != nil {
		tb.Fatal(err)
	}
	churn := workload.NewChurn(workload.Config{N: n, Seed: 21})
	for i := 0; i < 4; i++ {
		if err := dc.ApplyBatch(churn.NextInsertOnly(64)); err != nil {
			tb.Fatal(err)
		}
	}
	return dc, churn
}

// TestDeltaCheckpointCheaper is the acceptance bound: on a 1<<16-vertex
// graph, a delta checkpoint after one 64-update batch must be at least 5×
// cheaper than a full checkpoint in both bytes and wall time (it is four
// orders of magnitude in bytes: the delta ships the 64 updates, not the
// state they touched), and the chain restore must reproduce the full state.
func TestDeltaCheckpointCheaper(t *testing.T) {
	dc, churn := bigInstance(t)
	store := snapshot.NewMemStore()
	chain := snapshot.OpenChainIn(store, ckpt, 8)
	checkpoint(t, chain, dc, snapshot.KindFull)
	if err := dc.ApplyBatch(churn.NextInsertOnly(64)); err != nil {
		t.Fatal(err)
	}

	time1 := func(fn func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			fn()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	var fullBuf bytes.Buffer
	fullNs := time1(func() {
		fullBuf.Reset()
		if err := snapshot.Save(&fullBuf, dc); err != nil {
			t.Fatal(err)
		}
	})
	var deltaBuf bytes.Buffer
	deltaNs := time1(func() {
		deltaBuf.Reset()
		writeDelta(t, &deltaBuf, dc)
	})
	t.Logf("full: %d bytes in %v; delta: %d bytes in %v (ratios %.1f× bytes, %.1f× ns)",
		fullBuf.Len(), fullNs, deltaBuf.Len(), deltaNs,
		float64(fullBuf.Len())/float64(deltaBuf.Len()), float64(fullNs)/float64(deltaNs))
	if deltaBuf.Len()*5 > fullBuf.Len() {
		t.Fatalf("delta is %d bytes, full %d: less than 5× cheaper", deltaBuf.Len(), fullBuf.Len())
	}
	if deltaNs*5 > fullNs {
		t.Fatalf("delta took %v, full %v: less than 5× cheaper", deltaNs, fullNs)
	}

	// The cheap delta still carries everything: base + delta equals the live
	// state.
	checkpoint(t, chain, dc, snapshot.KindDelta)
	if got := len(container(t, store, ckpt+".delta-001")); got != deltaBuf.Len() {
		t.Fatalf("the chain's delta is %d bytes, the measured one %d", got, deltaBuf.Len())
	}
	fresh, err := core.NewDynamicConnectivity(core.Config{N: 1 << 16, Phi: 0.6, SketchCopies: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	restoreChain(t, store, fresh)
	if !reflect.DeepEqual(dc.Cluster().Stats(), fresh.Cluster().Stats()) {
		t.Fatal("chain-restored Stats differ at acceptance scale")
	}
	if !reflect.DeepEqual(dc.SnapshotComponents(), fresh.SnapshotComponents()) {
		t.Fatal("chain-restored components differ at acceptance scale")
	}
	if !reflect.DeepEqual(dc.SnapshotForest(), fresh.SnapshotForest()) {
		t.Fatal("chain-restored forest differs at acceptance scale")
	}
}

// BenchmarkCheckpointFull64K is the full-checkpoint comparator for the
// delta benchmarks below: same instance, same preceding 64-update batch,
// full container (cost scales with graph size).
func BenchmarkCheckpointFull64K(b *testing.B) {
	dc, churn := bigInstance(b)
	if err := dc.ApplyBatch(churn.NextInsertOnly(64)); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := snapshot.Save(&buf, dc); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkCheckpointDelta measures a delta checkpoint of the 1<<16-vertex
// instance after a 64-update batch (cost scales with churn, not graph
// size). The checkpoint is not acknowledged, so every iteration encodes the
// same journal.
func BenchmarkCheckpointDelta(b *testing.B) {
	dc, churn := bigInstance(b)
	dc.AckCheckpoint()
	if err := dc.ApplyBatch(churn.NextInsertOnly(64)); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		writeDelta(b, &buf, dc)
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkRestoreChain measures the incremental part of a chain restore:
// replaying a 4-delta chain (64 insertions each) on top of an already-restored
// base. A replay moves the state forward, so every iteration starts from the
// base again, reloaded off the clock — at 1<<12 vertices, to keep that reload
// small.
func BenchmarkRestoreChain(b *testing.B) {
	const n = 1 << 12
	cfg := core.Config{N: n, Phi: 0.6, SketchCopies: 2, Seed: 21}
	dc, err := core.NewDynamicConnectivity(cfg)
	if err != nil {
		b.Fatal(err)
	}
	churn := workload.NewChurn(workload.Config{N: n, Seed: 21})
	store := snapshot.NewMemStore()
	chain := snapshot.OpenChainIn(store, ckpt, 8)
	checkpoint(b, chain, dc, snapshot.KindFull)
	base := container(b, store, ckpt)
	var deltas [][]byte
	var total int64
	for k := 1; k <= 4; k++ {
		if err := dc.ApplyBatch(churn.NextInsertOnly(64)); err != nil {
			b.Fatal(err)
		}
		checkpoint(b, chain, dc, snapshot.KindDelta)
		deltas = append(deltas, container(b, store, fmt.Sprintf("%s.delta-%03d", ckpt, k)))
		total += int64(len(deltas[k-1]))
	}
	target, err := core.NewDynamicConnectivity(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := snapshot.Load(bytes.NewReader(base), target); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, data := range deltas {
			// What Chain.Restore does per delta, minus the position check.
			d, _, err := snapshot.NewContainerDecoder(bytes.NewReader(data), snapshot.DeltaMagic, "delta snapshot")
			if err != nil {
				b.Fatal(err)
			}
			d.Begin(tagChain)
			d.U64()
			d.U64()
			d.U64()
			if _, err := target.RestoreDelta(d); err != nil {
				b.Fatal(err)
			}
			if err := d.Finish(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
