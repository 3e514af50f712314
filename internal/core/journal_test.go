package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/snapshot"
)

// rawUpdate is one journaled update as words, so a test can write what no
// graph.Update can hold (an unknown op, a vertex out of range).
type rawUpdate struct {
	op   uint64
	u, v int
}

func rawOf(b graph.Batch) []rawUpdate {
	out := make([]rawUpdate, len(b))
	for i, up := range b {
		out[i] = rawUpdate{uint64(up.Op), up.Edge.U, up.Edge.V}
	}
	return out
}

// journalStore returns a chain store holding a full base of dc, taken after
// the given warm-up batches, and the identity of that base.
func journalStore(t *testing.T, dc *DynamicConnectivity, warm ...graph.Batch) (*snapshot.MemStore, uint64) {
	t.Helper()
	for _, b := range warm {
		if err := dc.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	store := snapshot.NewMemStore()
	if kind, _, err := snapshot.OpenChainIn(store, "ckpt", 8).Checkpoint(dc); err != nil || kind != snapshot.KindFull {
		t.Fatalf("base checkpoint = (%s, %v)", kind, err)
	}
	r, err := store.Open("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	base, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	// A container's identity is its trailing CRC word.
	return store, binary.LittleEndian.Uint64(base[len(base)-8:])
}

// handDelta builds, word by word and with a fresh CRC, the first delta on the
// base baseID: the given journal, then the fingerprint, label cache and stats
// of live — the instance that really applied the batches. batchCount
// overrides the journal's count prefix when >= 0.
func handDelta(t *testing.T, baseID uint64, live *DynamicConnectivity, journal [][]rawUpdate, batchCount int) []byte {
	t.Helper()
	f := live.f
	e := snapshot.NewEncoder()
	e.Begin(0x0D) // snapshot's chain header: base, predecessor, position
	e.U64(baseID)
	e.U64(baseID)
	e.U64(1)
	e.Begin(tagReplayDelta)
	handEcho(e, f)
	e.Int(f.cl.Machines())
	if batchCount < 0 {
		batchCount = len(journal)
	}
	e.Int(batchCount)
	for _, b := range journal {
		e.Int(len(b))
		for _, up := range b {
			e.U64(up.op)
			e.Int(up.u)
			e.Int(up.v)
			e.I64(0)
		}
	}
	e.U64(f.nextID)
	e.Int(len(live.SnapshotForest()))
	lc := &f.cache
	e.U64(uint64(lc.epoch))
	e.Int(lc.numComps)
	e.Bool(lc.numCompsOK)
	e.Int(lc.valid)
	for v, s := range lc.stamp {
		if s == lc.epoch {
			e.Int(v)
			e.Int(lc.labels[v])
		}
	}
	snapshot.EncodeClusterStats(e, f.cl.Stats())
	var buf bytes.Buffer
	if _, _, err := e.WriteContainer(&buf, snapshot.DeltaMagic); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restoreWith puts delta beside the base in store and restores the chain into
// a fresh instance.
func restoreWith(t *testing.T, store *snapshot.MemStore, cfg Config, delta []byte) (*DynamicConnectivity, *snapshot.Chain, error) {
	t.Helper()
	if err := store.Put("ckpt.delta-001", func(w io.Writer) error { _, err := w.Write(delta); return err }); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chain := snapshot.OpenChainIn(store, "ckpt", 8)
	_, err = chain.Restore(fresh)
	return fresh, chain, err
}

// TestDeltaRejectsTamperedJournal treats the journal as outside input: each
// delta below is well-formed as a container (fresh CRC, right chain
// position) and wrong in one way. A batch dropped from the journal, or two
// batches swapped, replay without error and are caught by the fingerprint;
// an update no front door would admit, a batch over the cap and a count
// prefix past the end of the section are caught before they are applied.
// The untampered hand-built delta is, byte for byte, the one the chain
// writes, and restores.
func TestDeltaRejectsTamperedJournal(t *testing.T) {
	cfg := Config{N: 16, Phi: 0.6, Seed: 5}
	live, err := NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, baseID := journalStore(t, live, graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2), graph.Ins(8, 9)})
	// link joins two components (a new tour), cut splits one again, more links
	// a third: in any other order, or with one missing, the forest or the tour
	// counter comes out different.
	link := graph.Batch{graph.Ins(2, 3), graph.Ins(4, 5)}
	cut := graph.Batch{graph.Del(2, 3)}
	more := graph.Batch{graph.Ins(5, 6)}
	for _, b := range []graph.Batch{link, cut, more} {
		if err := live.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	live.ConnectedAll([]Pair{{U: 0, V: 2}, {U: 4, V: 6}}) // label-cache entries to carry
	good := [][]rawUpdate{rawOf(link), rawOf(cut), rawOf(more)}

	valid := handDelta(t, baseID, live, good, -1)
	var own bytes.Buffer
	e := snapshot.NewEncoder()
	e.Begin(0x0D)
	e.U64(baseID)
	e.U64(baseID)
	e.U64(1)
	if !live.CheckpointDelta(e) {
		t.Fatal("the live instance declined its delta")
	}
	if _, _, err := e.WriteContainer(&own, snapshot.DeltaMagic); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(valid, own.Bytes()) {
		t.Fatal("the hand-built delta is not the container CheckpointDelta writes: the test no longer describes the layout")
	}
	restored, chain, err := restoreWith(t, store, cfg, valid)
	if err != nil {
		t.Fatalf("untampered delta: %v", err)
	}
	if got := chain.Replayed(); got != (snapshot.Replay{Batches: 3, Updates: 4}) {
		t.Errorf("chain reports %+v replayed, want 3 batches of 4 updates", got)
	}
	if got, want := restored.SnapshotForest(), live.SnapshotForest(); len(got) != len(want) {
		t.Errorf("restored forest has %d edges, live %d", len(got), len(want))
	}
	if restored.SearchStats() != (SearchStats{}) {
		t.Errorf("replay left search counters behind: %+v", restored.SearchStats())
	}

	oversize := make([]rawUpdate, live.MaxBatch()+1)
	for i := range oversize {
		oversize[i] = rawUpdate{uint64(graph.Insert), 0, 10 + i%5}
	}
	for name, tc := range map[string]struct {
		journal    [][]rawUpdate
		batchCount int
		want       string
	}{
		"dropped batch":       {[][]rawUpdate{rawOf(link), rawOf(more)}, -1, "replay diverged"},
		"swapped batches":     {[][]rawUpdate{rawOf(cut), rawOf(link), rawOf(more)}, -1, "replay diverged"},
		"vertex out of range": {[][]rawUpdate{rawOf(link), {{uint64(graph.Insert), 3, 16}}}, -1, "vertex out of range [0,16)"},
		"negative vertex":     {[][]rawUpdate{{{uint64(graph.Delete), -1, 3}}}, -1, "vertex out of range [0,16)"},
		"self-loop":           {[][]rawUpdate{rawOf(link), {{uint64(graph.Insert), 7, 7}}}, -1, "self loop {7,7}"},
		"bad op":              {[][]rawUpdate{{{2, 0, 3}}}, -1, "bad op 2"},
		"batch over MaxBatch": {[][]rawUpdate{oversize}, -1, "exceed the batch cap"},
		"count past section":  {good, 1 << 40, "overruns section"},
	} {
		fresh, _, err := restoreWith(t, store, cfg, handDelta(t, baseID, live, tc.journal, tc.batchCount))
		if err == nil {
			t.Errorf("%s: restored (forest %v)", name, fresh.SnapshotForest())
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: diagnostic %q does not say %q", name, err, tc.want)
		}
	}
}

// TestRetiredDeltaTagsRejected feeds the chain a delta whose state section
// carries a retired tag — of the physical delta format (0x13 forest delta,
// then 0x14 and 0x15 per shard) or of the journal delta whose echo named the
// writer's VerticesPerMachine (0x16): it is rejected by tag, before anything
// is applied.
func TestRetiredDeltaTagsRejected(t *testing.T) {
	cfg := Config{N: 16, Phi: 0.6, Seed: 5}
	live, err := NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, baseID := journalStore(t, live)
	for _, tag := range []uint64{0x13, 0x14, 0x15, 0x16} {
		e := snapshot.NewEncoder()
		e.Begin(0x0D)
		e.U64(baseID)
		e.U64(baseID)
		e.U64(1)
		e.Begin(tag)
		handEcho(e, live.f)
		var buf bytes.Buffer
		if _, _, err := e.WriteContainer(&buf, snapshot.DeltaMagic); err != nil {
			t.Fatal(err)
		}
		fresh, _, err := restoreWith(t, store, cfg, buf.Bytes())
		if err == nil || !strings.Contains(err.Error(), "found section") || !strings.Contains(err.Error(), "0x19 was expected") {
			t.Errorf("delta with section %#x: %v", tag, err)
		}
		if got := fresh.SnapshotForest(); len(got) != 0 {
			t.Errorf("delta with section %#x left %d forest edges behind", tag, len(got))
		}
	}
}

// TestJournalBounded pins that nothing grows without bound in an instance
// that is never checkpointed: fed ten updates per vertex, it never holds more
// than one per vertex in its journal, and holds none once it overflowed.
func TestJournalBounded(t *testing.T) {
	cfg := Config{N: 32, Phi: 0.6, Seed: 9}
	dc, err := NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	overflowed := false
	for fed := 0; fed < 10*cfg.N; fed += 2 {
		u := fed / 2 % (cfg.N - 1)
		for _, b := range []graph.Batch{{graph.Ins(u, u+1)}, {graph.Del(u, u+1)}} {
			if err := dc.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		got := dc.journal.Len()
		if got > cfg.N {
			t.Fatalf("after %d updates the journal holds %d, more than one per vertex (%d)", fed+2, got, cfg.N)
		}
		if got == 0 {
			overflowed = true
		} else if overflowed {
			t.Fatalf("after %d updates a dropped journal records again (%d updates)", fed+2, got)
		}
	}
	if !overflowed {
		t.Fatal("the journal never overflowed")
	}
}

// TestDeclinedDeltaIsFullBase pins the chain's one refusal path from the
// state's side: on a linked chain with room for deltas, the checkpoint after
// a journal overflow, after Bootstrap and after a failed ApplyBatch is a full
// base, the one after that a delta again, and what the chain holds restores
// to the live state each time.
func TestDeclinedDeltaIsFullBase(t *testing.T) {
	cfg := Config{N: 32, Phi: 0.6, Seed: 9}
	dc, err := NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := snapshot.NewMemStore()
	chain := snapshot.OpenChainIn(store, "ckpt", 8)
	next := 0
	churn := func() { // one insert the state has not seen, one delete of it
		t.Helper()
		u := next % (cfg.N - 2)
		next++
		for _, b := range []graph.Batch{{graph.Ins(u, u+2)}, {graph.Del(u, u+2)}} {
			if err := dc.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	cut := func(want string) {
		t.Helper()
		kind, _, err := chain.Checkpoint(dc)
		if err != nil || kind != want {
			t.Fatalf("checkpoint = (%s, %v), want %s", kind, err, want)
		}
		fresh, err := NewDynamicConnectivity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := snapshot.OpenChainIn(store, "ckpt", 8).Restore(fresh); err != nil || !ok {
			t.Fatalf("restore after a %s checkpoint = (%v, %v)", want, ok, err)
		}
		if got, want := fresh.Cluster().Stats(), dc.Cluster().Stats(); got.Rounds != want.Rounds || got.WordsSent != want.WordsSent {
			t.Fatalf("restored Stats %+v, live %+v", got, want)
		}
		for v, c := range dc.SnapshotComponents() {
			if got := fresh.SnapshotComponents()[v]; got != c {
				t.Fatalf("restored component of %d is %d, live %d", v, got, c)
			}
		}
	}
	cut(snapshot.KindFull)
	churn()
	cut(snapshot.KindDelta)

	for i := 0; i <= cfg.N/2; i++ { // more than one update per vertex
		churn()
	}
	cut(snapshot.KindFull)
	churn()
	cut(snapshot.KindDelta)

	if _, err := dc.Bootstrap([]graph.Edge{{U: 0, V: 31}, {U: 1, V: 30}}); err != nil {
		t.Fatal(err)
	}
	cut(snapshot.KindFull)
	churn()
	cut(snapshot.KindDelta)

	if err := dc.ApplyBatch(make(graph.Batch, dc.MaxBatch()+1)); err == nil {
		t.Fatal("a batch over MaxBatch was applied")
	}
	cut(snapshot.KindFull)
	churn()
	cut(snapshot.KindDelta)
	if got := chain.Len(); got != 1 {
		t.Errorf("chain holds %d deltas after the last full base, want 1", got)
	}
}
