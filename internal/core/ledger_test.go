package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/eulertour"
	"repro/internal/graph"
	"repro/internal/mpc"
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
// nothing else; then a vertex kept its edge list until the list would outgrow
// its sketch, so the shards hold about 2m words, not n sketches:
// PeakTotalWords 14285 → 762 / 37123 → 1667 / 36851 → 1211, nothing else;
// then a deletion batch began to ask each question once (a Cut's record
// lookup carries its cold endpoints' labels and its warm endpoints'
// component sizes, so the label Ask and the count of a split tour's records
// go; a level lookup that asks carries its candidates' stats, so the
// replacement Link's stats Ask goes): Rounds 128 → 126 / 309 → 263 / 586 →
// 482, Messages 434 → 469 / 1382 → 1203 / 2383 → 2079, WordsSent 4883 →
// 5003 / 28810 → 28340 / 31313 → 31067 and PeakTotalWords 762 → 767 / 1667
// → 1703 / 1211 → 1235. churn32 sends more: most of its deletions are
// non-tree edges, and their lookup now also counts the vertices of their
// components; the peaks rise because one broadcast holds what two did; then
// a Link began to send its new records in its relabel Tell's first round
// (mpc.Cluster.TellParts) instead of a Scatter of their own, and to ask the
// rotation query only for a host whose stats straddle the cut: Rounds 126 →
// 115 / 263 → 214 / 482 → 426, Messages 469 → 469 / 1203 → 1162 / 2079 →
// 2069 and WordsSent 5003 → 5003 / 28340 → 28218 / 31067 → 31027 (the
// rotation Asks that are no longer sent), PeakTotalWords unchanged.
func TestLedgerPinned(t *testing.T) {
	for _, tc := range pinnedStreams {
		for _, p := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", tc.stream, p), func(t *testing.T) {
				st := replayStream(t, tc.stream, p).Cluster().Stats()
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

// pinnedStreams are the three replays TestLedgerPinned and
// TestPhaseLedgerPinned pin, with their totals and their per-phase table
// (name, rounds, messages, words), in the order the phases were first
// charged. The phases sum to the totals.
var pinnedStreams = []struct {
	stream string
	want   ledger
	phases []mpc.PhaseStats
}{
	{"testdata/churn32.stream", ledger{115, 469, 5003, 767}, []mpc.PhaseStats{
		{Name: "link/labels", Rounds: 32, Messages: 102, WordsSent: 906},
		{Name: "link/stats", Rounds: 22, Messages: 88, WordsSent: 730},
		{Name: "link/relabel", Rounds: 11, Messages: 72, WordsSent: 1436},
		{Name: "link/min-above", Rounds: 2, Messages: 6, WordsSent: 12},
		{Name: "cut/lookup", Rounds: 22, Messages: 88, WordsSent: 595},
		{Name: "cut/relabel", Rounds: 1, Messages: 4, WordsSent: 84},
		{Name: "cut/push", Rounds: 1, Messages: 13, WordsSent: 32},
		{Name: "cut/fragment-mins", Rounds: 1, Messages: 4, WordsSent: 400},
		{Name: "flush", Rounds: 23, Messages: 92, WordsSent: 808},
	}},
	{"../harness/testdata/window64.stream", ledger{214, 1162, 28218, 1703}, []mpc.PhaseStats{
		{Name: "link/labels", Rounds: 38, Messages: 136, WordsSent: 1583},
		{Name: "link/stats", Rounds: 44, Messages: 220, WordsSent: 2138},
		{Name: "link/relabel", Rounds: 33, Messages: 236, WordsSent: 6572},
		{Name: "link/min-above", Rounds: 2, Messages: 6, WordsSent: 12},
		{Name: "flush", Rounds: 15, Messages: 75, WordsSent: 855},
		{Name: "cut/lookup", Rounds: 24, Messages: 120, WordsSent: 1403},
		{Name: "cut/relabel", Rounds: 12, Messages: 60, WordsSent: 2085},
		{Name: "cut/push", Rounds: 12, Messages: 145, WordsSent: 504},
		{Name: "cut/fragment-mins", Rounds: 12, Messages: 60, WordsSent: 11764},
		{Name: "search/lookup", Rounds: 22, Messages: 104, WordsSent: 1302},
	}},
	{"../harness/testdata/powerlaw64.stream", ledger{426, 2069, 31027, 1235}, []mpc.PhaseStats{
		{Name: "link/labels", Rounds: 74, Messages: 285, WordsSent: 3103},
		{Name: "link/stats", Rounds: 74, Messages: 365, WordsSent: 2752},
		{Name: "link/relabel", Rounds: 52, Messages: 345, WordsSent: 6823},
		{Name: "link/min-above", Rounds: 4, Messages: 13, WordsSent: 26},
		{Name: "cut/lookup", Rounds: 86, Messages: 417, WordsSent: 1788},
		{Name: "cut/relabel", Rounds: 31, Messages: 155, WordsSent: 3210},
		{Name: "cut/push", Rounds: 31, Messages: 149, WordsSent: 404},
		{Name: "cut/fragment-mins", Rounds: 31, Messages: 152, WordsSent: 11660},
		{Name: "search/lookup", Rounds: 30, Messages: 123, WordsSent: 911},
		{Name: "flush", Rounds: 13, Messages: 65, WordsSent: 350},
	}},
}

// replayStream replays a checked-in stream through a DynamicConnectivity
// (Phi 0.6, Seed 1, batches chunked to MaxBatch) at parallelism p.
func replayStream(t *testing.T, stream string, p int) *DynamicConnectivity {
	t.Helper()
	batches, n := readStream(t, stream)
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
	return dc
}

// TestPhaseLedgerPinned pins where the rounds, messages and words of
// TestLedgerPinned's replays go: the per-phase table mpc.Cluster.Phases
// keeps, at parallelism 1 and 8, whose columns sum to the pinned totals. A
// change that removes a collective shows as the row it leaves; one that
// moves a collective's cost from one step to another, as two rows that move.
func TestPhaseLedgerPinned(t *testing.T) {
	for _, tc := range pinnedStreams {
		for _, p := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", tc.stream, p), func(t *testing.T) {
				got := replayStream(t, tc.stream, p).Cluster().Phases()
				var sum ledger
				for _, ph := range got {
					sum.Rounds += ph.Rounds
					sum.Messages += ph.Messages
					sum.WordsSent += ph.WordsSent
				}
				if want := (ledger{tc.want.Rounds, tc.want.Messages, tc.want.WordsSent, 0}); sum != want {
					t.Errorf("phases sum to %+v, the pinned totals are %+v", sum, want)
				}
				if !reflect.DeepEqual(got, tc.phases) {
					var b strings.Builder
					for _, ph := range got {
						fmt.Fprintf(&b, "\n\t\t{Name: %q, Rounds: %d, Messages: %d, WordsSent: %d},", ph.Name, ph.Rounds, ph.Messages, ph.WordsSent)
					}
					t.Errorf("phases%s\npinned %+v", b.String(), tc.phases)
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
	f.applyRelabels(phaseCutRelabel, relabelPayload{drop: p.drop})
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

// TestIdleBuffersWithinPeakWords replays the three streams of
// TestLedgerPinned on an instance of n = 2^12 vertices (Phi 0.6, Seed 1,
// parallelism 1, where the free list's contents are deterministic) and
// bounds what the cluster holds idle afterwards by the memory the model
// meters: idle bytes ≤ idleFactor × Stats.PeakTotalWords × 8. A class keeps
// what one round held at once in it, and a buffer is its batch's size
// rounded up to a power of two, so the idle set is at most twice the words
// some rounds had in flight; those stay below the stores' peak on these
// streams, which read 0.26×, 0.79× and 0.80×.
func TestIdleBuffersWithinPeakWords(t *testing.T) {
	const idleFactor = 2
	for _, stream := range []string{"testdata/churn32.stream", "../harness/testdata/window64.stream", "../harness/testdata/powerlaw64.stream"} {
		t.Run(stream, func(t *testing.T) {
			batches, _ := readStream(t, stream)
			dc, err := NewDynamicConnectivity(Config{N: 1 << 12, Phi: 0.6, Seed: 1})
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
			idle, peak := 8*dc.Cluster().IdleBufferWords(), 8*dc.Cluster().Stats().PeakTotalWords
			t.Logf("idle %d B, peak total %d B (%.3f×)", idle, peak, float64(idle)/float64(peak))
			if idle > idleFactor*peak {
				t.Errorf("the free list holds %d B idle, over %d × the peak total memory of %d B", idle, idleFactor, peak)
			}
		})
	}
}
