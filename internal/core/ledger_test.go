package core

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/eulertour"
	"repro/internal/graph"
	"repro/internal/streamio"
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
// no machine could send.
func TestLedgerPinned(t *testing.T) {
	for _, tc := range []struct {
		stream string
		want   ledger
	}{
		{"testdata/churn32.stream", ledger{204, 716, 5577, 21167}},
		{"../harness/testdata/window64.stream", ledger{524, 2548, 39045, 55136}},
		{"../harness/testdata/powerlaw64.stream", ledger{900, 4362, 43555, 54818}},
	} {
		f, err := os.Open(tc.stream)
		if err != nil {
			t.Fatal(err)
		}
		batches, err := streamio.Read(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", tc.stream, p), func(t *testing.T) {
				n := streamio.MaxVertex(batches) + 1
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

// TestCutPayloadIsMetered: everything a Cut's relabel Tell hands the machines
// — the drop list and the two sets the fragment push reads included — is on
// the payload, so it is counted; nothing reaches a machine through a closure.
func TestCutPayloadIsMetered(t *testing.T) {
	p := relabelPayload{
		relabels: make([]eulertour.Relabel, 2),
		drop:     map[graph.Edge]bool{{U: 0, V: 1}: true, {U: 1, V: 2}: true, {U: 2, V: 3}: true},
		newTours: map[eulertour.TourID]bool{7: true, 8: true},
		affected: map[int]bool{0: true},
	}
	if got, want := p.Words(), 5*2+2*3+2+1; got != want {
		t.Errorf("relabelPayload.Words() = %d, want %d (relabels + drop list + both sets)", got, want)
	}

	// A path on 32 vertices, cut in k places.
	const n, k = 32, 4
	f, err := NewForest(Config{N: n, Phi: 0.6, Seed: 1, Strict: true})
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
	// The two sets are gone from every shard once the Cut returns.
	for i := 0; i < f.Cluster().Machines(); i++ {
		mm := f.Cluster().Machine(i)
		if es := eShard(mm); es.newTours != nil {
			t.Errorf("machine %d still holds newTours", i)
		}
		if vs := vShard(mm); vs != nil && vs.affected != nil {
			t.Errorf("machine %d still holds affected", i)
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
}
