package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/eulertour"
	"repro/internal/graph"
)

// ledger is the part of mpc.Stats a replay pins absolutely.
type ledger struct {
	Rounds         int
	Messages       int64
	WordsSent      int64
	PeakTotalWords int
}

// TestLedgerPinned replays three checked-in streams through
// DynamicConnectivity (Phi 0.6, Seed 1, batches chunked to MaxBatch) and
// pins the absolute round, message, word and peak-memory totals at
// parallelism 1 and 8. TestGoldenChurnTrace only bounds rounds per batch;
// this is what holds a refactor of the collectives to "the ledger does not
// move". A deliberate metering change regenerates the table once and states
// the delta in CHANGES.md.
//
// History: recorded at the commit before Ask/Tell and unchanged by that
// port; then WordsSent +20 / +525 / +770 (nothing else) when Cut's relabel
// Tell started to carry its drop list and the two fragment-push sets; then
// the replacement search began to ship a window of the sketch copies and to
// retry a failed query inside the level: WordsSent −2016 / −51660 / −50400,
// PeakTotalWords −480 / −1885 / −1255, and on window64 Rounds −45 and
// Messages −57 (levels that only retried a Fail); powerlaw64 never had one;
// then the collectives began to land their last delivery (mpc.Cluster.Land)
// instead of stepping for it: Rounds 408 → 204 / 1048 → 524 / 1800 → 900 and
// nothing else — the same words on the same hops, minus the rounds in which
// no machine could send; then the label cache began to survive updates (Links
// and Cuts rewrite the cached labels, a split component's entries park until
// its replacement Links reunite it), so an update's label lookups stop paying
// their Ask: Rounds 204 → 188 / 524 → 444 / 900 → 826, Messages −60 / −372 /
// −340, WordsSent −408 / −2324 / −2086, and PeakTotalWords +30 / +69 / +57
// because the cache stays resident on the coordinator; then the collectives
// a batch's data dependencies never separated were fused (a deletion
// batch's sketch update and a Cut's closing Tell ride the next broadcast, a
// Link asks sizes and stats at once, the first sketch window rides the
// fragment-min aggregation): Rounds 188 → 143 / 444 → 330 / 826 → 593,
// Messages 656 → 499 / 2176 → 1691 / 4022 → 3070, WordsSent −48 / −142 /
// −275 (one sketch payload instead of two, and no label word on a window
// frame) and PeakTotalWords +0 / +48 / +36 (what a rider drops stays in the
// stores until the broadcast that carries it), with TestForestDigestPinned
// unchanged; then a sketch cell dropped its ℓ0 counter (two words, not
// three): WordsSent 5121 → 4929 / 36579 → 30839 / 41194 → 35594 and
// PeakTotalWords 21197 → 14285 / 55253 → 37123 / 54911 → 36851, nothing else;
// then a Cut stopped pushing the largest fragment of every split tour (its
// relabel Tell names it, with the vertices left alone, and the vertex shards
// fill it in): Messages 499 → 494 / 1691 → 1487 / 3070 → 2418 and WordsSent
// 4929 → 4883 / 30839 → 28810 / 35594 → 31313, nothing else; then an
// insert-only batch's sketch update began to ride its first broadcast like a
// deletion batch's, instead of paying a Tell of its own: Rounds 143 → 128 /
// 330 → 309 / 593 → 586 and Messages 494 → 434 / 1487 → 1382 / 2418 → 2383,
// nothing else.
func TestLedgerPinned(t *testing.T) {
	for _, tc := range []struct {
		stream string
		want   ledger
	}{
		{"testdata/churn32.stream", ledger{128, 434, 4883, 14285}},
		{"../harness/testdata/window64.stream", ledger{309, 1382, 28810, 37123}},
		{"../harness/testdata/powerlaw64.stream", ledger{586, 2383, 31313, 36851}},
	} {
		batches, n := readStream(t, tc.stream)
		for _, p := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", tc.stream, p), func(t *testing.T) {
				dc, err := NewDynamicConnectivity(Config{N: n, Phi: 0.6, Seed: 1, Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				for i, b := range batches {
					for j := 0; j < len(b); j += dc.MaxBatch() {
						if err := dc.ApplyBatch(b[j:min(j+dc.MaxBatch(), len(b))]); err != nil {
							t.Fatalf("batch %d: %v", i, err)
						}
					}
				}
				st := dc.Cluster().Stats()
				got := ledger{st.Rounds, st.Messages, st.WordsSent, st.PeakTotalWords}
				if got != tc.want {
					t.Errorf("ledger %+v, pinned %+v", got, tc.want)
				}
				if len(st.Violations) != 0 {
					t.Errorf("violations: %v", st.Violations[0])
				}
			})
		}
	}
}

// TestForestDigestPinned pins what the updates compute, not what they cost:
// over the three streams of TestLedgerPinned at parallelism 1 and 8, one hash
// of SnapshotForest and SnapshotComponents after every ApplyBatch, and the
// final SearchStats. A change to how the collectives are scheduled or fused
// moves the ledger and must leave this alone: the same forest, the same
// component labels and the same replacement searches, batch by batch.
func TestForestDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		stream string
		digest uint64
		search SearchStats
	}{
		{"testdata/churn32.stream", 0x7d9dc7812048546c, SearchStats{1, 0, 0, 0, 0, 9, 14}},
		{"../harness/testdata/window64.stream", 0x19a45c3b4aaa4e20, SearchStats{12, 12, 22, 0, 0, 175, 593}},
		{"../harness/testdata/powerlaw64.stream", 0xa7facbe1a5ac49bb, SearchStats{31, 20, 14, 0, 0, 148, 1280}},
	} {
		batches, n := readStream(t, tc.stream)
		for _, p := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", tc.stream, p), func(t *testing.T) {
				dc, err := NewDynamicConnectivity(Config{N: n, Phi: 0.6, Seed: 1, Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				var word [8]byte
				put := func(x int) {
					binary.LittleEndian.PutUint64(word[:], uint64(x))
					h.Write(word[:])
				}
				for i, b := range batches {
					for j := 0; j < len(b); j += dc.MaxBatch() {
						if err := dc.ApplyBatch(b[j:min(j+dc.MaxBatch(), len(b))]); err != nil {
							t.Fatalf("batch %d: %v", i, err)
						}
						for _, e := range dc.SnapshotForest() {
							put(e.U)
							put(e.V)
						}
						put(-1)
						for _, c := range dc.SnapshotComponents() {
							put(c)
						}
					}
				}
				if got, st := h.Sum64(), dc.SearchStats(); got != tc.digest || st != tc.search {
					t.Errorf("digest %#x, search stats %+v; pinned %#x, %+v", got, st, tc.digest, tc.search)
				}
			})
		}
	}
}

// TestCutPayloadIsMetered: everything a Cut's relabel Tell hands the machines
// — the drop list and what the fragment push reads (the fresh tour range, the
// passive key of every split component and the vertices left alone) included
// — is on the payload, so it is counted; the passive index, which every
// machine could derive from it, is not. Nothing reaches a machine through a
// closure.
func TestCutPayloadIsMetered(t *testing.T) {
	p := relabelPayload{
		relabels:  make([]eulertour.Relabel, 2),
		drop:      map[graph.Edge]bool{{U: 0, V: 1}: true, {U: 1, V: 2}: true, {U: 2, V: 3}: true},
		fresh:     []eulertour.TourID{7, 9},
		passiveOf: map[int]uint64{0: 8, 5: 0},
		alone:     []int{3},
		passive:   map[uint64]bool{8: true},
	}
	if got, want := p.Words(), 5*2+2*3+2+2*2+1; got != want {
		t.Errorf("relabelPayload.Words() = %d, want %d (relabels + drop list + fresh range + passive keys + alone)", got, want)
	}

	// A path on 32 vertices, cut in k places.
	const n, k = 32, 4
	f, err := NewForest(Config{N: n, Phi: 0.6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var path []graph.WeightedEdge
	for v := 0; v+1 < n; v++ {
		path = append(path, graph.WeightedEdge{Edge: graph.Edge{U: v, V: v + 1}})
	}
	for len(path) > 0 {
		c := min(len(path), f.Config().MaxBatch())
		if err := f.Link(path[:c]); err != nil {
			t.Fatal(err)
		}
		path = path[c:]
	}
	rep, err := f.Cut([]graph.Edge{{U: 3, V: 4}, {U: 10, V: 11}, {U: 17, V: 18}, {U: 24, V: 25}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TreeRecords) != k {
		t.Fatalf("cut %d tree edges, want %d", len(rep.TreeRecords), k)
	}
	// What the push read is gone from every shard once the Cut returns.
	for i := 0; i < f.Cluster().Machines(); i++ {
		mm := f.Cluster().Machine(i)
		if es := eShard(mm); es.held != 0 {
			t.Errorf("machine %d still holds the fresh range or passive keys", i)
		}
		if vs := vShard(mm); vs != nil && (vs.passiveOf != nil || vs.alone != nil || vs.passive != nil) {
			t.Errorf("machine %d still holds passiveOf, alone or passive", i)
		}
	}
	// The Tell on its own: a drop list of three more tree edges costs every
	// receiving machine two words an edge, and the records are gone.
	before := f.Cluster().Stats().WordsSent
	f.applyRelabels(relabelPayload{drop: p.drop})
	receivers := int64(f.Cluster().Machines() - 1)
	if sent := f.Cluster().Stats().WordsSent - before; sent != receivers*2*3 {
		t.Errorf("telling a drop list of 3 edges sent %d words, want %d", sent, receivers*2*3)
	}
	if left := len(f.SnapshotForest()); left != n-1-k-3 {
		t.Errorf("%d tree edges left, want %d", left, n-1-k-3)
	}
	if v := f.Cluster().Stats().Violations; len(v) != 0 {
		t.Errorf("violations: %q", v)
	}
}
