package session

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

const testN = 64

// testConfig is a connectivity session over testN vertices; builds counts
// the factory calls.
func testConfig(par int, chain *snapshot.Chain, builds *int) Config {
	return Config{
		Shape: Shape{N: testN, Phi: 0.6, Seed: 11, Parallelism: par},
		New: func(sh Shape) (State, error) {
			if builds != nil {
				*builds++
			}
			return core.NewDynamicConnectivity(sh)
		},
		Chain:  chain,
		Mirror: NewMirror(testN),
	}
}

// stream pre-generates a valid churn stream sized for the smallest MaxBatch
// the tests' fleets have.
func stream(t *testing.T, batches int) []graph.Batch {
	t.Helper()
	sc, err := workload.Get("churn")
	if err != nil {
		t.Fatal(err)
	}
	gen := sc.New(testN, 5)
	out := make([]graph.Batch, batches)
	for i := range out {
		out[i] = gen.Next(4)
	}
	return out
}

// feed admits and applies batches[from:to].
func feed(t *testing.T, s *Session, batches []graph.Batch, from, to int) {
	t.Helper()
	for _, b := range batches[from:to] {
		if err := s.Mirror().Admit(b); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
}

func cut(t *testing.T, s *Session, wantKind string) {
	t.Helper()
	c, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != wantKind || c.Bytes <= 0 {
		t.Fatalf("checkpoint = %+v, want a %s container", c, wantKind)
	}
}

// fingerprint is everything the lifecycle must preserve bit for bit.
type fingerprint struct {
	Labels  []int
	Forest  []graph.Edge
	Stats   mpc.Stats
	Edges   []graph.WeightedEdge
	Applied int
	Shape   Shape
}

func fingerprintOf(s *Session) fingerprint {
	dc := s.State().(*core.DynamicConnectivity)
	forest := dc.SnapshotForest()
	sort.Slice(forest, func(i, j int) bool { return forest[i].ID(testN) < forest[j].ID(testN) })
	edges := s.Mirror().Graph().Edges()
	sort.Slice(edges, func(i, j int) bool { return edges[i].ID(testN) < edges[j].ID(testN) })
	shape := s.Shape()
	shape.Parallelism = 0 // the engine is not state: runs at p1 and p8 must agree
	return fingerprint{dc.SnapshotComponents(), forest, dc.Cluster().Stats(), edges, s.Applied(), shape}
}

func readAll(store snapshot.Store, name string) ([]byte, error) {
	f, err := store.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// TestOldFrontEndLayoutsRejectedByTag feeds Open the two meta layouts
// front-end checkpoints carried before the Session existed (mpcserve's
// section 0x60, mpcstream's 0x50): both are rejected with a section-tag
// diagnostic before a state is built or the mirror touched — never migrated.
func TestOldFrontEndLayoutsRejectedByTag(t *testing.T) {
	for name, tc := range map[string]struct {
		meta, mirror uint64
		write        func(e *snapshot.Encoder)
	}{
		"mpcserve": {0x60, 0x61, func(e *snapshot.Encoder) {
			e.Int(testN)
			e.U64(math.Float64bits(0.6))
			e.U64(11)
			e.U64(3) // restore cycles
			e.Int(0) // VerticesPerMachine
		}},
		"mpcstream": {0x50, 0x51, func(e *snapshot.Encoder) {
			e.Int(testN)
			e.U64(math.Float64bits(0.6))
			e.U64(11)
			e.Int(0) // VerticesPerMachine
			e.Int(7) // applied batches
		}},
	} {
		t.Run(name, func(t *testing.T) {
			dc, err := core.NewDynamicConnectivity(core.Config{N: testN, Phi: 0.6, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			e := snapshot.NewEncoder()
			e.Begin(tc.meta)
			tc.write(e)
			e.Begin(tc.mirror)
			e.Int(0) // no edges
			dc.Checkpoint(e)
			store := snapshot.NewMemStore()
			if err := store.Put("old.snap", func(w io.Writer) error { _, err := e.WriteTo(w); return err }); err != nil {
				t.Fatal(err)
			}

			builds := 0
			cfg := testConfig(1, snapshot.OpenChainIn(store, "old.snap", 4), &builds)
			if err := cfg.Mirror.Admit(graph.Batch{graph.Ins(0, 1)}); err != nil {
				t.Fatal(err)
			}
			_, err = Open(cfg)
			if err == nil {
				t.Fatal("old-layout checkpoint accepted")
			}
			want := fmt.Sprintf("found section %#x where %#x was expected", tc.meta, tagMeta)
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q lacks the section-tag diagnostic %q", err, want)
			}
			if builds != 0 {
				t.Errorf("%d states were built before the rejection", builds)
			}
			if g := cfg.Mirror.Graph(); g.M() != 1 || !g.Has(0, 1) {
				t.Error("the rejection touched the mirror")
			}
		})
	}
}

// TestDeltaJournalsEachUpdateOnce pins the single journal of a mirror
// session: one more update in the batch before a delta grows the delta by
// one journaled update (4 words), not by one per journal, and restoring the
// chain replays that journal into the state and the mirror alike.
func TestDeltaJournalsEachUpdateOnce(t *testing.T) {
	base := graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2)}
	var sizes [2]int64
	for i, tail := range []graph.Batch{
		{graph.Ins(2, 3)},
		{graph.Ins(2, 3), graph.Ins(4, 5)},
	} {
		store := snapshot.NewMemStore()
		open := func() *snapshot.Chain { return snapshot.OpenChainIn(store, "s", 4) }
		s, err := Open(testConfig(1, open(), nil))
		if err != nil {
			t.Fatal(err)
		}
		feed(t, s, []graph.Batch{base, tail}, 0, 1)
		cut(t, s, snapshot.KindFull)
		feed(t, s, []graph.Batch{base, tail}, 1, 2)
		c, err := s.Checkpoint()
		if err != nil || c.Kind != snapshot.KindDelta {
			t.Fatalf("checkpoint = (%+v, %v), want a delta", c, err)
		}
		sizes[i] = c.Bytes
		live := fingerprintOf(s)

		r, err := Open(testConfig(1, open(), nil))
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if got := fingerprintOf(r); !reflect.DeepEqual(got, live) {
			t.Errorf("tail of %d updates: restored session differs from the live one:\n  got  %+v\n  want %+v", len(tail), got, live)
		}
	}
	if grew := sizes[1] - sizes[0]; grew != 32 {
		t.Errorf("one more journaled update grew the delta by %d B, want 32 (4 words, written once)", grew)
	}
}

// TestMirrorJournalSectionRejected feeds a restore a delta in the layout
// that carried a journal of the mirror's own (meta echo, mirror journal
// 0x74, state delta): it is rejected by tag, never migrated, before the
// state or the mirror replays anything.
func TestMirrorJournalSectionRejected(t *testing.T) {
	batches := stream(t, 4)
	store := snapshot.NewMemStore()
	open := func() *snapshot.Chain { return snapshot.OpenChainIn(store, "s", 4) }
	s, err := Open(testConfig(1, open(), nil))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, batches, 0, 3)
	cut(t, s, snapshot.KindFull)
	r, err := Open(testConfig(1, open(), nil))
	if err != nil {
		t.Fatalf("resume of the base: %v", err)
	}
	atBase := fingerprintOf(r)
	feed(t, s, batches, 3, 4)

	raw, err := readAll(store, "s")
	if err != nil {
		t.Fatal(err)
	}
	baseID := binary.LittleEndian.Uint64(raw[len(raw)-8:]) // a container's identity is its trailing CRC word
	e := snapshot.NewEncoder()
	e.Begin(0x0D) // the chain header
	e.U64(baseID)
	e.U64(baseID)
	e.U64(1)
	s.writeMeta(e, tagMetaDelta)
	e.Begin(0x74)
	e.Int(1)
	snapshot.EncodeUpdates(e, batches[3])
	if !s.State().(snapshot.DeltaState).CheckpointDelta(e) {
		t.Fatal("the live state declined its delta")
	}
	var delta bytes.Buffer
	if _, _, err := e.WriteContainer(&delta, snapshot.DeltaMagic); err != nil {
		t.Fatal(err)
	}

	const want = "found section 0x74 where 0x1b was expected"
	d, _, err := snapshot.NewContainerDecoder(bytes.NewReader(delta.Bytes()), snapshot.DeltaMagic, "delta snapshot")
	if err != nil {
		t.Fatal(err)
	}
	d.Begin(0x0D)
	d.U64()
	d.U64()
	d.U64()
	if _, err := (image{r}).RestoreDelta(d, nil); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("mirror-journal delta: error %v, want %q", err, want)
	}
	if got := fingerprintOf(r); !reflect.DeepEqual(got, atBase) {
		t.Errorf("the rejection touched the state or the mirror:\n  got  %+v\n  want %+v", got, atBase)
	}

	if err := store.Put("s.delta-001", func(w io.Writer) error { _, err := w.Write(delta.Bytes()); return err }); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testConfig(1, open(), nil)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("resume over the mirror-journal delta: error %v, want %q", err, want)
	}
}

// TestOpenSweepsStaleTemps leaves the temp file of a write that died before
// its rename beside a file-store base: the next Open resumes the base and
// sweeps the temp, counted with the orphaned deltas.
func TestOpenSweepsStaleTemps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.snap")
	s, err := Open(testConfig(1, snapshot.OpenChain(path, 4), nil))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, stream(t, 3), 0, 3)
	cut(t, s, snapshot.KindFull)
	stale := path + ".tmp123"
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	chain := snapshot.OpenChain(path, 4)
	r, err := Open(testConfig(1, chain, nil))
	if err != nil {
		t.Fatal(err)
	}
	if r.Applied() != 3 || r.RestoreCycles() != 1 {
		t.Errorf("Open over the base: %d batches applied, %d restore cycles; want 3 and 1", r.Applied(), r.RestoreCycles())
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) || chain.OrphansRemoved() != 1 {
		t.Errorf("stale temp left (%v) or not counted: %d removed, want 1", err, chain.OrphansRemoved())
	}
}

// TestSameCountResizeKeepsTheShape resizes a bipartiteness session onto
// the machine count it already runs on: a shape whose VerticesPerMachine is
// derived from φ (ceil(48^0.6) = 11 vertices a machine, 6 machines) keeps
// it, so every batch that follows sends as many messages as it does on a
// twin that was never resized.
func TestSameCountResizeKeepsTheShape(t *testing.T) {
	const n = 48
	newSession := func() *Session {
		s, err := Open(Config{
			Shape: Shape{N: n, Phi: 0.6, Seed: 11},
			New:   func(sh Shape) (State, error) { return bipartite.New(sh) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sc, err := workload.Get("community")
	if err != nil {
		t.Fatal(err)
	}
	gen := sc.New(n, 5)
	batches := make([]graph.Batch, 24)
	for i := range batches {
		batches[i] = gen.Next(4)
	}
	resized, twin := newSession(), newSession()
	apply := func(s *Session, b graph.Batch) int64 {
		messages := func() (m int64) {
			for _, cl := range s.State().(*bipartite.Tester).Clusters() {
				m += cl.Stats().Messages
			}
			return m
		}
		before := messages()
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
		return messages() - before
	}
	for _, b := range batches[:8] {
		apply(resized, b)
		apply(twin, b)
	}
	shape := resized.Shape()
	if _, err := resized.Resize(shape.MachineCount()); err != nil {
		t.Fatal(err)
	}
	if got := resized.Shape(); got != shape {
		t.Errorf("a resize to the %d machines it has moved the shape from %+v to %+v", shape.MachineCount(), shape, got)
	}
	for i, b := range batches[8:] {
		if got, want := apply(resized, b), apply(twin, b); got != want {
			t.Errorf("batch %d after the resize sent %d messages, the twin %d", 8+i, got, want)
		}
	}
}
