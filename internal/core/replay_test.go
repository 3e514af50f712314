package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/snapshot"
)

// replayStep is one thing the property test below did to the instance under
// test since its last checkpoint: a batch it applied or a query batch it
// answered. A recovery re-runs them, queries included, because a query warms
// the label cache and the next batch's rounds depend on that.
type replayStep struct {
	batch graph.Batch
	pairs []core.Pair
}

// TestReplayRestoreEqualsUninterrupted is the property behind the journal
// delta: random interleavings of ApplyBatch, ConnectedAll, Chain.Checkpoint
// and kill + Chain.Restore — the restored instance then re-runs what it did
// since the checkpoint, as a recovering front door does — leave an instance
// that is, after every step, indistinguishable from a twin that was never
// interrupted: Stats, components, forest, the answers and the cache behaviour
// (hit or miss) of every query. A restore replays exactly the batches
// journaled since the base, and leaves no search counters behind. Chains of
// every length from none to the cap are restored, at parallelism 1 and 8.
func TestReplayRestoreEqualsUninterrupted(t *testing.T) {
	const (
		n         = 48
		maxDeltas = 3
		steps     = 70
	)
	restoredAt := map[int]int{} // chain length -> restores seen
	for seed := uint64(1); seed <= 4; seed++ {
		for _, par := range []int{1, 8} {
			name := fmt.Sprintf("seed %d par %d", seed, par)
			cfg := core.Config{N: n, Phi: 0.6, Seed: seed, Parallelism: par}
			twin, mix := newQueryRun(t, n, par, seed)
			dc, err := core.NewDynamicConnectivity(cfg)
			if err != nil {
				t.Fatal(err)
			}
			store := snapshot.NewMemStore()
			chain := snapshot.OpenChainIn(store, ckpt, maxDeltas)
			var (
				sinceCkpt []replayStep    // not yet in the chain
				inChain   snapshot.Replay // journaled by the chain's deltas
				durable   bool            // the store holds a base
			)
			rnd := hash.NewPRG(seed*977 + uint64(par))
			for step := 0; step < steps; step++ {
				at := fmt.Sprintf("%s step %d", name, step)
				switch r := rnd.NextN(20); {
				case r < 8: // apply
					b := mix.Next(1 + int(rnd.NextN(uint64(dc.MaxBatch()))))
					for _, x := range []*core.DynamicConnectivity{twin, dc} {
						if err := x.ApplyBatch(b); err != nil {
							t.Fatalf("%s: %v", at, err)
						}
					}
					sinceCkpt = append(sinceCkpt, replayStep{batch: b})
				case r < 13: // query: same answers, same side of the cache
					pairs := toPairs(mix.NextQueries(1 + int(rnd.NextN(12))))
					th, tm := twin.Forest().QueryCacheStats()
					dh, dm := dc.Forest().QueryCacheStats()
					want, got := twin.ConnectedAll(pairs), dc.ConnectedAll(pairs)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: answers %v, twin %v", at, got, want)
					}
					th2, tm2 := twin.Forest().QueryCacheStats()
					dh2, dm2 := dc.Forest().QueryCacheStats()
					if dh2-dh != th2-th || dm2-dm != tm2-tm {
						t.Fatalf("%s: query was %d hit / %d miss, on the twin %d / %d", at, dh2-dh, dm2-dm, th2-th, tm2-tm)
					}
					sinceCkpt = append(sinceCkpt, replayStep{pairs: pairs})
				case r < 17: // checkpoint
					kind, _, err := chain.Checkpoint(dc)
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if kind == snapshot.KindFull {
						inChain = snapshot.Replay{}
					}
					for _, s := range sinceCkpt {
						if s.pairs == nil && kind == snapshot.KindDelta {
							inChain.Batches++
							inChain.Updates += len(s.batch)
						}
					}
					sinceCkpt, durable = nil, true
				default: // kill, restore, re-run
					if !durable {
						continue
					}
					dc, err = core.NewDynamicConnectivity(cfg)
					if err != nil {
						t.Fatal(err)
					}
					chain = snapshot.OpenChainIn(store, ckpt, maxDeltas)
					if ok, err := chain.Restore(dc); err != nil || !ok {
						t.Fatalf("%s: restore = (%v, %v)", at, ok, err)
					}
					restoredAt[chain.Len()]++
					if got := chain.Replayed(); got != inChain {
						t.Fatalf("%s: restore replayed %+v, the chain's deltas journaled %+v", at, got, inChain)
					}
					if got := dc.SearchStats(); got != (core.SearchStats{}) {
						t.Fatalf("%s: restored instance has search counters %+v", at, got)
					}
					for _, s := range sinceCkpt {
						if s.pairs != nil {
							dc.ConnectedAll(s.pairs)
						} else if err := dc.ApplyBatch(s.batch); err != nil {
							t.Fatalf("%s: %v", at, err)
						}
					}
				}
				if got, want := dc.Cluster().Stats(), twin.Cluster().Stats(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Stats\n  got  %+v\n  twin %+v", at, got, want)
				}
				if !reflect.DeepEqual(dc.SnapshotComponents(), twin.SnapshotComponents()) {
					t.Fatalf("%s: components differ from the twin's", at)
				}
				if !reflect.DeepEqual(dc.SnapshotForest(), twin.SnapshotForest()) {
					t.Fatalf("%s: forest differs from the twin's", at)
				}
			}
		}
	}
	for l := 0; l <= maxDeltas; l++ {
		if restoredAt[l] == 0 {
			t.Errorf("no restore of a chain of %d deltas (saw %v): the schedule is too thin", l, restoredAt)
		}
	}
}
