package harness

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"os"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/streamio"
	"repro/internal/workload"
)

// algoLedger is what TestAlgorithmLedgerPinned holds of one algorithm over
// one input: the summed Stats (SumStats) after the last batch, and four
// FNV-64a digests of what they were after every ApplyBatch — Steps of Rounds
// and Messages, Sent of WordsSent, Peak of PeakTotalWords — and of what the
// algorithm maintains then (Output). A change that fuses or splits
// broadcasts moves Steps and leaves Sent and Output alone; a change to what
// is sent moves Sent; a change to what the stores hold at once moves Peak.
type algoLedger struct {
	Rounds         int
	Messages       int64
	WordsSent      int64
	PeakTotalWords int
	Steps          uint64
	Sent           uint64
	Peak           uint64
	Output         uint64
}

// ledgerInputs names each algorithm's pinned inputs: the golden harness
// streams for an algorithm that takes deletions of unweighted edges, and a
// seeded scenario (64 vertices, 16 batches of at most MaxBatch) for one that
// needs insert-only or weighted input.
var ledgerInputs = map[string][]string{
	"connectivity": {"window64", "powerlaw64"},
	"bipartite":    {"window64", "powerlaw64"},
	"dynmatching":  {"window64", "powerlaw64"},
	"nowickionak":  {"window64", "powerlaw64"},
	"approxmsf":    {"churn-weighted"},
	"msf":          {"grow-weighted"},
	"matching":     {"grow"},
}

// algorithmLedgers pins every registered algorithm's ledger, the same at
// parallelism 1 and 8.
//
// History: recorded at the commit before an insert-only batch's sketch
// update began to ride its first broadcast, which moved only the algorithms
// built on DynamicConnectivity. connectivity Rounds 330 → 309 / 593 → 586 and
// Messages 1487 → 1382 / 2418 → 2383 (window64 / powerlaw64); bipartite Rounds
// 834 → 784 / 1393 → 1357 and Messages 4742 → 4442 / 7135 → 6919; approxmsf
// Rounds 1192 → 1046 and Messages 4719 → 3989. Sent and Output stayed, Peak
// moved for all three: a rider's words sit in the stores together with the
// question that carries it, so a batch's peak can rise where the two used to
// be held one after the other; approxmsf's summed PeakTotalWords 581458 →
// 581464, the others' final peaks unchanged. msf, matching, dynmatching and
// nowickionak did not move.
var algorithmLedgers = map[string]algoLedger{
	"approxmsf/churn-weighted": {1046, 3989, 46853, 581464, 0xf3a469b1ba244090, 0xbd17258065ffdb07, 0xbcf69e1669d5ba61, 0xa90a34c1a528c838},
	"bipartite/powerlaw64":     {1357, 6919, 116071, 129074, 0x53f7c4947176230a, 0x966eebb95858f62, 0xad8c6559689ce12d, 0x1fc0ea139c9c6df2},
	"bipartite/window64":       {784, 4442, 108535, 129412, 0xade40f696dae3c09, 0x87e93b70cb4c95c9, 0xeecb858df79d3cce, 0xc7496765ef59eb46},
	"connectivity/powerlaw64":  {586, 2383, 31313, 36851, 0xe52f47d94ed224f0, 0xbb25b57015592a18, 0x8824f655605e151a, 0x383a179d62d9a41b},
	"connectivity/window64":    {309, 1382, 28810, 37123, 0x49ecdf53a8cacbc3, 0x3520775cf861ca0a, 0x300a7c9f57812f5a, 0x9521e61b036086b0},
	"dynmatching/powerlaw64":   {907, 3113, 41870, 9121, 0x327fea448295c0c8, 0x9630a3444234cde3, 0x1751b823d5437dda, 0xb5296539488ec5d2},
	"dynmatching/window64":     {866, 3025, 41783, 9175, 0xbe0ce7f0864e16cb, 0xd02074b1f55562f3, 0xb22b45ec09bb2585, 0x4a84eba639763b57},
	"matching/grow":            {42, 193, 1858, 170, 0x7e440b9dfd34f84f, 0xf28d74e3ae82b971, 0x66885633bfd2f525, 0x3e323f4b860d41ea},
	"msf/grow-weighted":        {342, 1556, 15869, 952, 0xea097227aa8860fa, 0x8b9fabca62132b59, 0x971fe12c9f7de558, 0x21761d1519c7006e},
	"nowickionak/powerlaw64":   {223, 848, 7942, 866, 0x8f076df3d3b4e2dc, 0x891dcb6389969979, 0x7fbe4435ec5f778a, 0x6510289f4fca2f37},
	"nowickionak/window64":     {214, 882, 8912, 1050, 0x7c4b5f33d330490f, 0x1643fdedc55276ad, 0xcac11299f840b7c5, 0xc9c154697795c021},
}

// TestAlgorithmLedgerPinned is TestLedgerPinned (package core) for every
// registered algorithm: it replays each algorithm's pinned inputs at
// parallelism 1 and 8, chunked to its MaxBatch, and holds the ledger and the
// output after every batch. No oracle check runs inside the replay, and the
// output is read with machine-local readouts only, so nothing but the
// updates moves the ledger. A deliberate metering change regenerates the
// table once (the failure prints it) and states in CHANGES.md which
// algorithms moved and why.
func TestAlgorithmLedgerPinned(t *testing.T) {
	got := map[string]algoLedger{}
	for _, name := range AlgorithmNames() {
		algo, err := GetAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, input := range ledgerInputs[name] {
			key := name + "/" + input
			for _, par := range []int{1, 8} {
				l := replayLedger(t, algo, input, par)
				if prev, ok := got[key]; ok && prev != l {
					t.Errorf("%s: the ledger differs between p1 and p8: %+v, %+v", key, prev, l)
				}
				got[key] = l
			}
			if want := algorithmLedgers[key]; got[key] != want {
				t.Errorf("%s: ledger %+v, pinned %+v", key, got[key], want)
			}
		}
	}
	if len(got) != len(algorithmLedgers) {
		t.Errorf("%d inputs replayed, %d pinned", len(got), len(algorithmLedgers))
	}
	if t.Failed() {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			l := got[k]
			t.Logf("%q: {%d, %d, %d, %d, %#x, %#x, %#x, %#x},", k,
				l.Rounds, l.Messages, l.WordsSent, l.PeakTotalWords, l.Steps, l.Sent, l.Peak, l.Output)
		}
	}
}

// replayLedger replays one input through a fresh instance of algo: a golden
// stream, or 16 batches of at most MaxBatch from a seeded scenario on 64
// vertices.
func replayLedger(t *testing.T, algo Algorithm, input string, par int) algoLedger {
	t.Helper()
	sc, err := workload.Get(input)
	seeded := err == nil
	var batches []graph.Batch
	n := 64
	if !seeded {
		batches = goldenStream(t, input)
		n = 0
		for _, b := range batches {
			n = max(n, b.MaxVertex()+1)
		}
	}
	inst, err := algo.New(Options{N: n, Seed: 1, Parallelism: par}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if seeded {
		gen := sc.New(n, 2)
		for range 16 {
			if b := gen.Next(inst.MaxBatch()); len(b) > 0 {
				batches = append(batches, b)
			}
		}
	}
	steps, sent, peak, output := fnv.New64a(), fnv.New64a(), fnv.New64a(), fnv.New64a()
	for i, b := range batches {
		for j := 0; j < len(b); j += inst.MaxBatch() {
			if err := inst.ApplyBatch(b[j:min(j+inst.MaxBatch(), len(b))]); err != nil {
				t.Fatalf("%s over %s, batch %d: %v", algo.Name, input, i, err)
			}
			st := SumStats(inst.Clusters())
			putWords(steps, int64(st.Rounds), st.Messages)
			putWords(sent, st.WordsSent)
			putWords(peak, int64(st.PeakTotalWords))
			putWords(output, outputOf(t, inst)...)
		}
	}
	st := SumStats(inst.Clusters())
	if len(st.Violations) != 0 {
		t.Errorf("%s over %s: violations: %v", algo.Name, input, st.Violations[0])
	}
	return algoLedger{st.Rounds, st.Messages, st.WordsSent, st.PeakTotalWords,
		steps.Sum64(), sent.Sum64(), peak.Sum64(), output.Sum64()}
}

// goldenStream reads testdata/<name>.stream.
func goldenStream(t *testing.T, name string) []graph.Batch {
	t.Helper()
	f, err := os.Open("testdata/" + name + ".stream")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	batches, err := workload.Drain(workload.NewFuncSource(workload.Shape{Batches: -1, Updates: -1}, streamio.NewReader(f).Next))
	if err != nil {
		t.Fatal(err)
	}
	return batches
}

// outputOf reads what an instance maintains through LocalAll readouts, which
// send nothing and cost no round: component labels and forests for the
// connectivity structures, the weighted forest for the MSFs, the edge set
// for the matchings. A readout that asks the shards (a query, a size
// aggregation) would warm caches and move the ledger it is pinned beside.
func outputOf(t *testing.T, inst Instance) []int64 {
	t.Helper()
	var out []int64
	ints := func(xs []int) {
		for _, x := range xs {
			out = append(out, int64(x))
		}
		out = append(out, -1)
	}
	edges := func(es []graph.Edge) {
		for _, e := range es {
			out = append(out, int64(e.U), int64(e.V))
		}
		out = append(out, -1)
	}
	weighted := func(es []graph.WeightedEdge) {
		for _, e := range es {
			out = append(out, int64(e.U), int64(e.V), e.Weight)
		}
		out = append(out, -1)
	}
	switch v := inst.(type) {
	case connectivityInstance:
		ints(v.SnapshotComponents())
		edges(v.SnapshotForest())
	case bipartiteInstance:
		ints(v.Graph().SnapshotComponents())
		ints(v.Cover().SnapshotComponents())
	case exactMSFInstance:
		weighted(v.Snapshot())
	case approxMSFInstance:
		weighted(v.Snapshot())
	case greedyMatchingInstance:
		edges(v.Matching())
	case aklyInstance:
		edges(v.Matching())
	case nowickiOnakInstance:
		edges(v.Matching())
	default:
		t.Fatalf("no output readout for instance type %T", inst)
	}
	return out
}

// putWords feeds words to h little-endian.
func putWords(h hash.Hash64, xs ...int64) {
	var w [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(w[:], uint64(x))
		h.Write(w[:])
	}
}
