package session

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// windowStream is sliding-window churn on testN vertices, dense enough that
// the oldest edges it expires, mostly tree edges, have replacements to
// search for. Session.Apply cuts its batches to every fleet's MaxBatch, and
// six of them stay under a delta's journal bound (an update per vertex).
func windowStream(batches int) []graph.Batch {
	gen := workload.NewSlidingWindow(testN, testN, 5, 0)
	out := make([]graph.Batch, batches)
	for i := range out {
		out[i] = gen.Next(8)
	}
	return out
}

// own is what the live connectivity state counted itself, read off the
// state rather than through Counters.
func own(s *Session) (core.SearchStats, uint64, uint64) {
	dc := s.State().(*core.DynamicConnectivity)
	hits, misses := dc.QueryCacheStats()
	return dc.SearchStats(), hits, misses
}

// TestLifetimeCountersSurviveEveryReplacement drives one connectivity
// session through its whole lifetime on an in-memory chain, at parallelism
// 1 and 8: Open on the empty chain starts fresh, churn batches (a sliding
// window) with queries, a crash restore, a resize, and a recovery onto fewer
// machines with a replay list. After every step Counters is the sum over every state the
// session replaced plus the live one, and the state answers as the mirror
// does. Open on the chain afterwards resumes, with counters of its own.
func TestLifetimeCountersSurviveEveryReplacement(t *testing.T) {
	batches := windowStream(40)
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("p%d", par), func(t *testing.T) {
			store := snapshot.NewMemStore()
			open := func() *snapshot.Chain { return snapshot.OpenChainIn(store, "s", 4) }
			s, err := Open(testConfig(par, open(), nil))
			if err != nil {
				t.Fatal(err)
			}
			if s.RestoreCycles() != 0 || s.Applied() != 0 {
				t.Fatalf("Open on an empty chain resumed: %d restore cycles, %d batches applied", s.RestoreCycles(), s.Applied())
			}

			var replaced core.SearchStats
			var hits, misses uint64
			// retire adds up what the live state counted before a step
			// replaces it, and demands the step has something to lose.
			retire := func(step string) {
				t.Helper()
				st, h, m := own(s)
				if st.Searches == 0 || h == 0 || m == 0 {
					t.Fatalf("before the %s the live state counted %+v, %d hits, %d misses: the traffic exercises nothing", step, st, h, m)
				}
				replaced.Add(st)
				hits += h
				misses += m
			}
			check := func(step string) {
				t.Helper()
				st, h, m := own(s)
				st.Add(replaced)
				want := Counters{Searches: &st, CacheHits: hits + h, CacheMisses: misses + m}
				if got := s.Counters(); !reflect.DeepEqual(got, want) || *got.Searches != st {
					t.Errorf("after the %s: Counters = %+v %+v, want %+v %+v", step, got, *got.Searches, want, st)
				}
				dc := s.State().(*core.DynamicConnectivity)
				if !reflect.DeepEqual(dc.SnapshotComponents(), oracle.Components(s.Mirror().Graph())) {
					t.Errorf("after the %s the state's components differ from the mirror's", step)
				}
			}
			next := 0
			churn := func(k int, step string) {
				t.Helper()
				for _, b := range batches[next : next+k] {
					feed(t, s, []graph.Batch{b}, 0, 1)
					dc := s.State().(*core.DynamicConnectivity)
					dc.ConnectedAll([]core.Pair{{U: 0, V: 1}, {U: 2, V: testN - 1}})
					dc.ConnectedAll([]core.Pair{{U: 0, V: 1}})
				}
				next += k
				check(step)
			}

			churn(6, "first churn")
			cut(t, s, snapshot.KindFull)
			churn(6, "churn after the base")
			cut(t, s, snapshot.KindDelta)

			retire("crash restore")
			if ok, err := s.Restore(); err != nil || !ok {
				t.Fatalf("crash restore = (%v, %v)", ok, err)
			}
			check("crash restore")
			churn(6, "churn after the restore")

			retire("resize")
			if _, err := s.Resize(9); err != nil {
				t.Fatal(err)
			}
			check("resize")
			churn(6, "churn after the resize")

			// The fleet loses machines: the batches applied since the
			// re-base are the replay list.
			since := batches[next-6 : next]
			retire("recovery")
			c, err := s.RecoverOnto(6, since)
			if err != nil {
				t.Fatal(err)
			}
			if c.Kind != snapshot.KindFull || s.Shape().MachineCount() != 6 || s.Applied() != next {
				t.Fatalf("recovery: %+v on %d machines, %d batches applied; want a full re-base on 6 machines, %d applied",
					c, s.Shape().MachineCount(), s.Applied(), next)
			}
			check("recovery")
			churn(6, "churn after the recovery")
			cut(t, s, snapshot.KindDelta)
			live := fingerprintOf(s)

			// A new process: Open finds the re-based chain and resumes it.
			// The counters lived in the old process only.
			r, err := Open(testConfig(par, open(), nil))
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprintOf(r); r.RestoreCycles() != 3 || !reflect.DeepEqual(got, live) {
				t.Errorf("Open on the chain: %d restore cycles, state %+v; want 3 and %+v", r.RestoreCycles(), got, live)
			}
			if c := r.Counters(); *c.Searches != (core.SearchStats{}) || c.CacheHits+c.CacheMisses != 0 {
				t.Errorf("a resumed session starts with counters %+v %+v, want none", c, *c.Searches)
			}
		})
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
