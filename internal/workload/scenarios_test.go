package workload

import (
	"bytes"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/streamio"
)

// drive pulls batches batches of the given size from a fresh instance of
// the scenario, validating every update against an independent reference
// graph, and returns the emitted stream.
func drive(t *testing.T, sc Scenario, n, batches, size int) []graph.Batch {
	t.Helper()
	gen := sc.New(n, 7)
	ref := graph.New(n)
	var out []graph.Batch
	for i := 0; i < batches; i++ {
		b := gen.Next(size)
		if len(b) > size {
			t.Fatalf("batch %d has %d > %d updates", i, len(b), size)
		}
		seen := map[graph.Edge]bool{}
		for _, u := range b {
			if seen[u.Edge] {
				t.Fatalf("batch %d touches %v twice", i, u.Edge)
			}
			seen[u.Edge] = true
			if sc.InsertOnly && u.Op == graph.Delete {
				t.Fatalf("insert-only scenario emitted %v", u)
			}
			if sc.Weighted && u.Op == graph.Insert && u.Weight < 1 {
				t.Fatalf("weighted scenario emitted weight %d", u.Weight)
			}
		}
		if err := ref.Apply(b); err != nil {
			t.Fatalf("batch %d invalid: %v", i, err)
		}
		out = append(out, b)
	}
	if got, want := edgeSet(gen.Mirror()), edgeSet(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("mirror diverged from reference: %v vs %v", got, want)
	}
	return out
}

func edgeSet(g *graph.Graph) []graph.WeightedEdge {
	es := g.Edges()
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

func countOps(batches []graph.Batch) (ins, del int) {
	for _, b := range batches {
		for _, u := range b {
			if u.Op == graph.Insert {
				ins++
			} else {
				del++
			}
		}
	}
	return ins, del
}

// TestScenariosValidAndDeterministic checks, for every registered scenario,
// the mirror-graph invariant (valid batches, each edge touched once per
// batch), the registry metadata (insert-only and weighted claims), seeded
// determinism, and — for dynamic scenarios — that deletions actually occur.
func TestScenariosValidAndDeterministic(t *testing.T) {
	const n, batches, size = 40, 14, 16
	for _, name := range Names() {
		sc, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			stream := drive(t, sc, n, batches, size)
			ins, del := countOps(stream)
			if ins == 0 {
				t.Error("scenario emitted no insertions")
			}
			if !sc.InsertOnly && del == 0 {
				t.Error("dynamic scenario emitted no deletions")
			}
			again := drive(t, sc, n, batches, size)
			if !reflect.DeepEqual(stream, again) {
				t.Error("same seed produced a different stream")
			}
		})
	}
}

// TestScenarioTopologyShapes spot-checks the degenerate generators: star
// edges all touch the center, path edges are consecutive, clique edges stay
// inside their block.
func TestScenarioTopologyShapes(t *testing.T) {
	const n = 48
	star := NewStar(n, 3)
	for i := 0; i < 8; i++ {
		for _, u := range star.Next(16) {
			if u.Edge.U != 0 {
				t.Fatalf("star edge %v misses the center", u.Edge)
			}
		}
	}
	path := NewPathChurn(n, 3)
	for i := 0; i < 8; i++ {
		for _, u := range path.Next(16) {
			if u.Edge.V != u.Edge.U+1 {
				t.Fatalf("path edge %v not consecutive", u.Edge)
			}
		}
	}
	cl := NewCliques(n, 8, 3)
	for i := 0; i < 8; i++ {
		for _, u := range cl.Next(16) {
			if u.Edge.U/8 != u.Edge.V/8 {
				t.Fatalf("clique edge %v crosses blocks", u.Edge)
			}
		}
	}
}

// TestPowerLawSkew verifies that preferential attachment actually skews the
// degree distribution: the maximum degree must clearly exceed the mean.
func TestPowerLawSkew(t *testing.T) {
	const n = 128
	gen := NewPowerLaw(n, 11, 0, 0) // insertions only, for a clean read
	for i := 0; i < 40; i++ {
		gen.Next(16)
	}
	g := gen.Mirror()
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	mean := 2 * float64(g.M()) / float64(n)
	if float64(maxDeg) < 3*mean {
		t.Errorf("max degree %d not skewed vs mean %.1f", maxDeg, mean)
	}
}

// TestSlidingWindowBound verifies the window cap and that expiry is FIFO.
func TestSlidingWindowBound(t *testing.T) {
	const n, window = 32, 20
	gen := NewSlidingWindow(n, window, 5, 0)
	var firstDeleted *graph.Edge
	var firstInserted *graph.Edge
	for i := 0; i < 30; i++ {
		b := gen.Next(8)
		for _, u := range b {
			if u.Op == graph.Insert && firstInserted == nil {
				e := u.Edge
				firstInserted = &e
			}
			if u.Op == graph.Delete && firstDeleted == nil {
				e := u.Edge
				firstDeleted = &e
			}
		}
		if m := gen.Mirror().M(); m > window {
			t.Fatalf("live edges %d exceed window %d", m, window)
		}
	}
	if firstDeleted == nil {
		t.Fatal("window never expired an edge")
	}
	if *firstDeleted != *firstInserted {
		t.Errorf("first expiry %v is not the oldest edge %v", *firstDeleted, *firstInserted)
	}
}

// TestCommunityMergeSplit verifies the phase machinery: bridges appear
// during merge phases and are torn down again during split phases.
func TestCommunityMergeSplit(t *testing.T) {
	const n = 64
	gen := NewCommunity(n, 4, 1, 9) // 4 communities, 1-batch phases
	crossEdges := func() int {
		cnt := 0
		for _, e := range gen.Mirror().Edges() {
			if gen.community(e.U) != gen.community(e.V) {
				cnt++
			}
		}
		return cnt
	}
	gen.Next(32) // merge phase
	afterMerge := crossEdges()
	if afterMerge == 0 {
		t.Fatal("merge phase inserted no bridges")
	}
	gen.Next(32) // split phase
	if got := crossEdges(); got >= afterMerge {
		t.Errorf("split phase left %d bridges (had %d)", got, afterMerge)
	}
}

// TestRecordReplayRoundTrip records a scenario through the .stream writer,
// replays it through the reader, and checks the replay emits the recorded
// batches and rebuilds the generator's mirror.
func TestRecordReplayRoundTrip(t *testing.T) {
	const n = 40
	sc, err := Get("powerlaw")
	if err != nil {
		t.Fatal(err)
	}
	gen := sc.New(n, 21)
	var buf bytes.Buffer
	w := streamio.NewWriter(&buf)
	var recorded []graph.Batch
	for i := 0; i < 10; i++ {
		b := gen.Next(16)
		if len(b) > 0 {
			recorded = append(recorded, b)
		}
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(recorded) == 0 {
		t.Fatal("empty recording")
	}
	rp := NewMirrored(NewFuncSource(Shape{N: n, Batches: -1, Updates: -1}, streamio.NewReader(&buf).Next))
	replayed, err := Drain(rp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, recorded) {
		t.Fatalf("replayed %d batches differ from the %d recorded", len(replayed), len(recorded))
	}
	if got, want := edgeSet(rp.Mirror()), edgeSet(gen.Mirror()); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed mirror differs: %v vs %v", got, want)
	}
}

// TestMirroredRejectsInvalidStreams checks that Mirrored.Next surfaces
// descriptive errors (not panics) for streams that are inconsistent with
// their own history or reference vertices outside the declared space: the
// refusal carries graph.Check's diagnostic for the offending batch, and the
// mirror is left exactly as it was before that batch.
func TestMirroredRejectsInvalidStreams(t *testing.T) {
	cases := []struct {
		name    string
		batches []graph.Batch
	}{
		{"duplicate insert", []graph.Batch{{graph.Ins(0, 1)}, {graph.Ins(0, 1)}}},
		{"delete absent", []graph.Batch{{graph.Del(2, 3)}}},
		{"vertex out of range", []graph.Batch{{graph.Ins(0, 99)}}},
		// Valid update by update, but the algorithms apply a batch's inserts
		// before its deletes.
		{"edge touched twice", []graph.Batch{{graph.Ins(1, 2)}, {graph.Del(1, 2), graph.Ins(1, 2)}}},
		{"fails half-way", []graph.Batch{{graph.Ins(0, 1)}, {graph.Ins(1, 2), graph.Ins(2, 3), graph.Del(0, 3)}}},
		{"non-canonical out of range", []graph.Batch{{{Op: graph.Insert, Edge: graph.Edge{U: 9, V: 3}}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			last := len(tc.batches) - 1
			want := graph.New(4)
			for _, b := range tc.batches[:last] {
				if err := want.Apply(b); err != nil {
					t.Fatal(err)
				}
			}
			diagnostic := want.Check(tc.batches[last])
			if diagnostic == nil {
				t.Fatal("test case is not invalid")
			}
			rest := tc.batches
			m := NewMirrored(NewFuncSource(Shape{N: 4, Batches: len(rest), Updates: -1}, func() (graph.Batch, error) {
				if len(rest) == 0 {
					return nil, io.EOF
				}
				b := rest[0]
				rest = rest[1:]
				return b, nil
			}))
			_, err := Drain(m)
			if err == nil {
				t.Fatal("invalid stream replayed without error")
			}
			if !strings.Contains(err.Error(), "invalid batch: "+diagnostic.Error()) {
				t.Errorf("error %q lacks the shared diagnostic %q", err, diagnostic)
			}
			if !reflect.DeepEqual(edgeSet(m.Mirror()), edgeSet(want)) {
				t.Errorf("refused batch changed the mirror: %v, want %v", edgeSet(m.Mirror()), edgeSet(want))
			}
		})
	}
}

// TestRegistryValidation covers the registry error paths.
func TestRegistryValidation(t *testing.T) {
	if _, err := Get("no-such-scenario"); err == nil {
		t.Error("unknown scenario accepted")
	}
	for _, bad := range []Scenario{
		{},
		{Name: "x"},
		{Name: "churn", New: func(int, uint64) Generator { return nil }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%+v) did not panic", bad)
				}
			}()
			Register(bad)
		}()
	}
}
