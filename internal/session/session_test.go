package session

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

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

// lifecycle runs the scripted durable run — apply → full → apply → delta →
// kill → restore → resize → re-based full → delta → restore at the new
// shape → apply — on a chain over store, and returns the final fingerprint.
func lifecycle(t *testing.T, store snapshot.Store, path string, par int, batches []graph.Batch) fingerprint {
	t.Helper()
	open := func() *snapshot.Chain { return snapshot.OpenChainIn(store, path, 4) }
	s, err := New(testConfig(par, open(), nil))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, batches, 0, 3)
	cut(t, s, snapshot.KindFull)
	feed(t, s, batches, 3, 5)
	cut(t, s, snapshot.KindDelta)
	live := fingerprintOf(s)

	// Kill: nothing of the process survives but the store.
	s, ok, err := Resume(testConfig(par, open(), nil))
	if err != nil || !ok {
		t.Fatalf("resume = (%v, %v)", ok, err)
	}
	if got := fingerprintOf(s); !reflect.DeepEqual(got, live) {
		t.Fatalf("restored state differs from the killed one:\n  got  %+v\n  want %+v", got, live)
	}
	if s.RestoreCycles() != 1 {
		t.Errorf("restore cycles = %d, want 1", s.RestoreCycles())
	}

	c, err := s.Resize(9)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != snapshot.KindFull {
		t.Fatalf("resize re-based the chain with a %q checkpoint, want full", c.Kind)
	}
	if got := s.Shape().MachineCount(); got != 9 {
		t.Fatalf("resized onto %d machines, want 9", got)
	}
	feed(t, s, batches, 5, 7)
	cut(t, s, snapshot.KindDelta)
	live = fingerprintOf(s)

	s, ok, err = Resume(testConfig(par, open(), nil))
	if err != nil || !ok {
		t.Fatalf("resume at the new shape = (%v, %v)", ok, err)
	}
	if got := fingerprintOf(s); !reflect.DeepEqual(got, live) {
		t.Fatalf("state restored at the new shape differs:\n  got  %+v\n  want %+v", got, live)
	}
	if s.RestoreCycles() != 2 {
		t.Errorf("restore cycles = %d, want 2", s.RestoreCycles())
	}
	feed(t, s, batches, 7, len(batches))
	return fingerprintOf(s)
}

// TestLifecycleBothStores runs the scripted lifecycle against the file store
// and the in-memory store, at parallelism 1 and 8: the two stores must end
// up holding byte-identical containers, and the final state must equal an
// uninterrupted twin — same stream, same resize, no chain, never killed.
func TestLifecycleBothStores(t *testing.T) {
	batches := stream(t, 10)
	var first fingerprint
	for _, par := range []int{1, 8} {
		twin, err := New(testConfig(par, nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		feed(t, twin, batches, 0, 5)
		if _, err := twin.Resize(9); err != nil {
			t.Fatal(err)
		}
		feed(t, twin, batches, 5, len(batches))
		want := fingerprintOf(twin)

		path := filepath.Join(t.TempDir(), "session.snap")
		mem := snapshot.NewMemStore()
		onDisk := lifecycle(t, snapshot.FileStore{}, path, par, batches)
		inMem := lifecycle(t, mem, path, par, batches)
		for name, got := range map[string]fingerprint{"file store": onDisk, "mem store": inMem} {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("p%d, %s: final state differs from the uninterrupted twin:\n  got  %+v\n  want %+v", par, name, got, want)
			}
		}
		containers := 0
		for _, name := range []string{path, path + ".delta-001", path + ".delta-002"} {
			a, aerr := readAll(snapshot.FileStore{}, name)
			b, berr := readAll(mem, name)
			if (aerr == nil) != (berr == nil) {
				t.Errorf("p%d: %s exists in one store only (file: %v, mem: %v)", par, filepath.Base(name), aerr, berr)
			} else if aerr == nil {
				containers++
				if !bytes.Equal(a, b) {
					t.Errorf("p%d: container %s differs between the stores", par, filepath.Base(name))
				}
			}
		}
		if containers != 2 {
			t.Errorf("p%d: stores hold %d containers, want the re-based full and one delta", par, containers)
		}
		if par == 1 {
			first = want
		} else if !reflect.DeepEqual(want, first) {
			t.Errorf("twin at parallelism %d differs from parallelism 1", par)
		}
	}
}

func readAll(store snapshot.Store, name string) ([]byte, error) {
	f, err := store.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// flakyStore fails every Put while broken is set.
type flakyStore struct {
	snapshot.Store
	broken bool
}

func (f *flakyStore) Put(name string, write func(io.Writer) error) error {
	if f.broken {
		return errors.New("injected put failure")
	}
	return f.Store.Put(name, write)
}

// TestFailedPutKeepsEverything pins what a failed container write must not
// lose: nothing is acknowledged (the journal keeps its updates), the chain
// written before still restores to the state it captured, and the next
// checkpoint is a full base that captures everything.
func TestFailedPutKeepsEverything(t *testing.T) {
	batches := stream(t, 6)
	store := &flakyStore{Store: snapshot.NewMemStore()}
	open := func() *snapshot.Chain { return snapshot.OpenChainIn(store, "s", 4) }
	s, err := New(testConfig(1, open(), nil))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, batches, 0, 3)
	cut(t, s, snapshot.KindFull)
	durable := fingerprintOf(s)
	feed(t, s, batches, 3, 6)
	journal := s.Mirror().JournalLen()
	if journal == 0 {
		t.Fatal("nothing journaled since the checkpoint")
	}

	store.broken = true
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint through a failing store succeeded")
	}
	store.broken = false
	if got := s.Mirror().JournalLen(); got != journal {
		t.Errorf("failed checkpoint changed the journal: %d updates, had %d", got, journal)
	}
	old, ok, err := Resume(testConfig(1, open(), nil))
	if err != nil || !ok {
		t.Fatalf("previous chain no longer restores: (%v, %v)", ok, err)
	}
	if got := fingerprintOf(old); !reflect.DeepEqual(got, durable) {
		t.Errorf("previous chain restores to a different state:\n  got  %+v\n  want %+v", got, durable)
	}

	cut(t, s, snapshot.KindFull)
	if got := s.Mirror().JournalLen(); got != 0 {
		t.Errorf("journal holds %d updates after an acknowledged checkpoint", got)
	}
	live := fingerprintOf(s)
	fresh, ok, err := Resume(testConfig(1, open(), nil))
	if err != nil || !ok {
		t.Fatalf("resume after the retry = (%v, %v)", ok, err)
	}
	if got := fingerprintOf(fresh); !reflect.DeepEqual(got, live) {
		t.Errorf("retried checkpoint lost state:\n  got  %+v\n  want %+v", got, live)
	}
}

// TestJournalBoundedByMirror pins the journal's bound: once it holds more
// updates than the mirror holds edges it is dropped, the next checkpoint is
// a full base even on a linked chain, and journaling resumes after it. A
// session without a chain journals nothing at all.
func TestJournalBoundedByMirror(t *testing.T) {
	churn := func(s *Session, rounds int) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			feed(t, s, []graph.Batch{{graph.Ins(0, 1)}, {graph.Del(0, 1)}}, 0, 2)
		}
	}
	s, err := New(testConfig(1, snapshot.OpenChainIn(snapshot.NewMemStore(), "s", 4), nil))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, []graph.Batch{{graph.Ins(2, 3), graph.Ins(3, 4)}}, 0, 1)
	cut(t, s, snapshot.KindFull)
	churn(s, 1)
	if got := s.Mirror().JournalLen(); got != 2 {
		t.Fatalf("journal holds %d updates, want 2", got)
	}
	cut(t, s, snapshot.KindDelta)
	churn(s, 8)
	if got := s.Mirror().JournalLen(); got != 0 {
		t.Errorf("journal holds %d updates over a 2-edge mirror", got)
	}
	cut(t, s, snapshot.KindFull)
	churn(s, 1)
	cut(t, s, snapshot.KindDelta)

	volatile, err := New(testConfig(1, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	churn(volatile, 1)
	if got := volatile.Mirror().JournalLen(); got != 0 {
		t.Errorf("session without a chain journaled %d updates", got)
	}
}

// TestOldFrontEndLayoutsRejectedByTag feeds Resume the two meta layouts
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
			e.F64(0.6)
			e.U64(11)
			e.U64(3) // restore cycles
			e.Int(0) // VerticesPerMachine
		}},
		"mpcstream": {0x50, 0x51, func(e *snapshot.Encoder) {
			e.Int(testN)
			e.F64(0.6)
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
			snapshot.EncodeGraph(e, graph.New(testN))
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
			_, ok, err := Resume(cfg)
			if err == nil || ok {
				t.Fatalf("old-layout checkpoint accepted: (%v, %v)", ok, err)
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
