package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/workload"
)

// newTwin builds an uninterrupted in-process instance with the server's
// instance-0 core configuration (the seed-derivation contract of Config).
func newTwin(t *testing.T, cfg Config) *core.DynamicConnectivity {
	t.Helper()
	dc, err := core.NewDynamicConnectivity(core.Config{
		N: cfg.N, Phi: cfg.Phi, Seed: cfg.Seed, Parallelism: cfg.Parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

// resizeURL is the live-resize endpoint for instance id.
func resizeURL(ts *httptest.Server, id, machines int) string {
	return fmt.Sprintf("%s/instances/%d/resize?machines=%d", ts.URL, id, machines)
}

func postResize(t *testing.T, ts *httptest.Server, id, machines int) *http.Response {
	t.Helper()
	resp, err := http.Post(resizeURL(ts, id, machines), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServerResizeLifecycle is the live-resize acceptance path: grow the
// fleet, keep streaming, shrink it, and at every shape the answers must be
// bit-identical to an uninterrupted in-process twin; a restart from the
// checkpoint dir must come back at the resized shape.
func TestServerResizeLifecycle(t *testing.T) {
	const n = 32
	// The queue holds a whole stream(6) burst: the test posts without
	// retrying, so a shallower queue turns a slow applier into a 429.
	cfg := Config{Instances: 1, N: n, Phi: 0.6, Seed: 7, Parallelism: 1, QueueDepth: 6,
		CheckpointDir: t.TempDir()}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	closed := false
	defer func() {
		if !closed {
			ts.Close()
			srv.Close()
		}
	}()

	// Twin: the same core config (server seed derivation), same stream.
	gen := workload.NewChurn(workload.Config{N: n, Seed: 99})
	twin := newTwin(t, cfg)
	queryPairs := [][2]int{{0, 1}, {0, n - 1}, {3, 9}, {5, 17}}

	// Batch size 2 fits MaxBatch at every shape the test visits (the
	// thinnest, 4 vertices/machine, allows 2).
	stream := func(batches int) {
		t.Helper()
		for i := 0; i < batches; i++ {
			b := gen.Next(2)
			if err := twin.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
			req := UpdateRequest{Updates: make([]WireUpdate, len(b))}
			for j, up := range b {
				req.Updates[j] = WireUpdate{Op: up.Op.String(), U: up.Edge.U, V: up.Edge.V, Weight: up.Weight}
			}
			resp := postJSON(t, ts.URL+"/instances/0/updates", req)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("update status %d", resp.StatusCode)
			}
		}
		waitDrained(t, srv.insts[0])
	}
	verify := func(context string) {
		t.Helper()
		resp := postJSON(t, ts.URL+"/instances/0/query", QueryRequest{Pairs: queryPairs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: query status %d", context, resp.StatusCode)
		}
		q := decodeJSON[QueryResponse](t, resp)
		want := twin.ConnectedAll(toCorePairs(queryPairs))
		for i := range want {
			if q.Connected[i] != want[i] {
				t.Errorf("%s: pair %v answered %v, twin says %v", context, queryPairs[i], q.Connected[i], want[i])
			}
		}
		if comps := twin.NumComponents(); q.Components != comps {
			t.Errorf("%s: %d components, twin has %d", context, q.Components, comps)
		}
	}

	stream(6)
	verify("before resize")

	// Grow 5 -> 9 machines (VerticesPerMachine 8 -> 4).
	resp := postResize(t, ts, 0, 9)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resize to 9: status %d", resp.StatusCode)
	}
	ack := decodeJSON[ResizeResponse](t, resp)
	if ack.Machines != 9 || ack.VerticesPerMachine != 4 {
		t.Fatalf("resize ack %+v, want 9 machines at 4 vertices/machine", ack)
	}
	verify("after grow")
	stream(6)
	verify("after grow + stream")

	// Shrink 9 -> 3 machines (VerticesPerMachine 16).
	resp = postResize(t, ts, 0, 3)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resize to 3: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	stream(6)
	verify("after shrink + stream")

	// /instances reports the new shape, and the reshard metrics moved.
	lresp, err := http.Get(ts.URL + "/instances")
	if err != nil {
		t.Fatal(err)
	}
	infos := decodeJSON[[]InstanceInfo](t, lresp)
	if infos[0].Machines != 3 {
		t.Errorf("/instances reports %d machines, want 3", infos[0].Machines)
	}
	body := scrapeMetrics(t, ts)
	if got := sumMetric(t, body, "mpcserve_reshard_total"); got != 2 {
		t.Errorf("mpcserve_reshard_total = %d, want 2", got)
	}
	if got := sumMetric(t, body, "mpcserve_cluster_machines"); got != 3 {
		t.Errorf("mpcserve_cluster_machines = %d, want 3", got)
	}

	// Restart from the checkpoint dir: the fleet must come back at the
	// resized shape (the post-resize full checkpoint carries it) and answer
	// identically.
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	closed = true
	srv2, ts2 := newTestServer(t, cfg)
	if got := srv2.insts[0].machines(); got != 3 {
		t.Errorf("restarted instance has %d machines, want 3", got)
	}
	srv, ts = srv2, ts2
	verify("after restart")
}

// TestServerResizeErrors pins the failure modes: a shape no equal-range
// partition realizes is a 400 with the nearest realizable count, a shrink
// past the per-machine memory budget is a 409 that leaves the instance
// serving at its old shape.
func TestServerResizeErrors(t *testing.T) {
	const n = 32
	srv, ts := newTestServer(t, testConfig(t))

	resp := postResize(t, ts, 0, 1)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("resize to 1 machine: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postResize(t, ts, 0, 10)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("resize to unrealizable count: status %d, want 400", resp.StatusCode)
	}
	if body := readAll(t, resp); !strings.Contains(body, "nearest realizable") {
		t.Errorf("400 body %q lacks the nearest-realizable diagnostic", body)
	}
	resp, err := http.Post(ts.URL+"/instances/0/resize", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("resize without ?machines: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// For the 409 path the migrated state must overflow the thinnest shape's
	// per-machine budget. The fleet's default sketch redundancy leaves too
	// much slack at this scale, so swap in an instance with SketchCopies=1
	// (the same shape the core cap-rejection test pins) and warm its full
	// label cache — per-vertex coordinator state a one-vertex machine's
	// budget cannot absorb.
	const hn = 64
	heavy, err := newInstance(0, core.Config{N: hn, Phi: 0.6, SketchCopies: 1, Seed: 23, Parallelism: 1}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.insts[0].drain()
	srv.insts[0] = heavy
	var b graph.Batch
	for v := 1; v < hn; v++ {
		b = append(b, graph.Ins(0, v))
	}
	for len(b) > 0 {
		k := heavy.shape.Load().MaxBatch()
		if k > len(b) {
			k = len(b)
		}
		if err := heavy.offer(b[:k]); err != nil {
			t.Fatal(err)
		}
		b = b[k:]
		waitDrained(t, heavy)
	}
	warm := make([][2]int, 0, hn-1)
	for v := 1; v < hn; v++ {
		warm = append(warm, [2]int{0, v})
	}
	resp = postJSON(t, ts.URL+"/instances/0/query", QueryRequest{Pairs: warm})
	resp.Body.Close()

	wasMachines := heavy.machines()
	resp = postResize(t, ts, 0, hn+1)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cap-violating shrink: status %d, want 409", resp.StatusCode)
	}
	if body := readAll(t, resp); !strings.Contains(body, "budget") {
		t.Errorf("409 body %q lacks the budget diagnostic", body)
	}
	if got := heavy.machines(); got != wasMachines {
		t.Errorf("rejected resize changed the fleet: %d -> %d machines", wasMachines, got)
	}
	// Still serving, at the old shape, with correct answers.
	resp = postJSON(t, ts.URL+"/instances/0/query", QueryRequest{Pairs: [][2]int{{0, hn - 1}, {1, 2}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after rejected resize: status %d", resp.StatusCode)
	}
	q := decodeJSON[QueryResponse](t, resp)
	if !q.Connected[0] || !q.Connected[1] {
		t.Errorf("star graph answers wrong after rejected resize: %v", q.Connected)
	}
}

// TestCountersSurviveResize pins that no counter of the scrape goes down
// across a live resize. The fresh fleet's state counts cache hits and misses
// and replacement searches from zero again; the session folds what the
// replaced state counted into its own sum (session.Session.Counters), which
// the instance copies into its metrics.
func TestCountersSurviveResize(t *testing.T) {
	srv, ts := newTestServer(t, testConfig(t))
	traffic := func() {
		t.Helper()
		for _, b := range []graph.Batch{{graph.Ins(0, 1)}, {graph.Del(0, 1)}} {
			if err := srv.insts[0].offer(b); err != nil {
				t.Fatal(err)
			}
			waitDrained(t, srv.insts[0])
			for _, pairs := range [][][2]int{{{0, 1}}, {{0, 1}, {2, 3}}} {
				resp := postJSON(t, ts.URL+"/instances/0/query", QueryRequest{Pairs: pairs})
				resp.Body.Close()
			}
		}
	}
	counters := func() map[string]uint64 {
		t.Helper()
		body := scrapeMetrics(t, ts)
		out := map[string]uint64{}
		for _, f := range families {
			if f.typ == "counter" && !f.seconds {
				out[f.name] = sumMetric(t, body, f.name)
			}
		}
		return out
	}
	traffic()
	before := counters()
	for _, name := range []string{"mpcserve_query_cache_hits_total", "mpcserve_query_cache_misses_total", "mpcserve_replacement_sketches_summed_total"} {
		if before[name] == 0 {
			t.Fatalf("%s is 0 before the resize: the traffic does not exercise it", name)
		}
	}
	resp := postResize(t, ts, 0, 9)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resize: status %d", resp.StatusCode)
	}
	traffic()
	for name, after := range counters() {
		if after < before[name] {
			t.Errorf("%s went down across the resize: %d, then %d", name, before[name], after)
		}
	}
}

// TestDrainedInstanceWritesNothing pins that a drained instance refuses
// every op with errDraining — resize and checkpoint alike, and Close's final
// checkpoint — and that none of them writes a container.
func TestDrainedInstanceWritesNothing(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.CheckpointDir = dir
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := srv.insts[0]
	if err := in.offer(graph.Batch{graph.Ins(0, 1)}); err != nil {
		t.Fatal(err)
	}
	in.drain()
	listing := func() string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return strings.Join(names, " ")
	}
	before := listing()
	if err := in.resize(3); !errors.Is(err, errDraining) {
		t.Errorf("resize of a drained instance: %v, want errDraining", err)
	}
	if err := in.do(in.checkpoint); !errors.Is(err, errDraining) {
		t.Errorf("checkpoint of a drained instance: %v, want errDraining", err)
	}
	if after := listing(); after != before {
		t.Errorf("ops on a drained instance wrote to the checkpoint directory: %q, then %q", before, after)
	}
	if err := srv.Close(); !errors.Is(err, errDraining) {
		t.Errorf("close: %v, want errDraining for the drained instance", err)
	}
	if _, err := os.Stat(instancePath(dir, 0)); err == nil {
		t.Error("close checkpointed the drained instance 0")
	}
	if _, err := os.Stat(instancePath(dir, 1)); err != nil {
		t.Errorf("close did not checkpoint the live instance 1: %v", err)
	}
}

// TestInstanceHealthz pins per-instance readiness on the endpoint and the
// mpcserve_instance_ready gauge: 200 and 1 while serving, 503 and 0 while an
// op holds the instance, 200 and 1 once it returns, 503 and 0 after a
// failure.
func TestInstanceHealthz(t *testing.T) {
	srv, ts := newTestServer(t, testConfig(t))
	check := func(state string, id, code int, ready string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/instances/%d/healthz", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		gauge := fmt.Sprintf("mpcserve_instance_ready{instance=\"%d\"} %s\n", id, ready)
		if resp.StatusCode != code || !strings.Contains(scrapeMetrics(t, ts), gauge) {
			t.Errorf("%s instance: healthz %d, want %d and a scrape with %q", state, resp.StatusCode, code, gauge)
		}
	}
	check("ready", 0, http.StatusOK, "1")
	held, release, result := make(chan struct{}), make(chan struct{}), make(chan error)
	go func() {
		result <- srv.insts[0].do(func() error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	check("held", 0, http.StatusServiceUnavailable, "0")
	close(release)
	if err := <-result; err != nil {
		t.Fatal(err)
	}
	check("released", 0, http.StatusOK, "1")
	srv.insts[1].failure.Store(&applyFailure{err: fmt.Errorf("boom")})
	check("failed", 1, http.StatusServiceUnavailable, "0")
	srv.insts[1].failure.Store(nil) // let Cleanup's checkpoint pass
}

// TestRetryAfterScalesWithDrainRate pins the 429 hint computation: no
// estimate yet falls back to 1s; with an EWMA the hint covers the queue at
// the observed drain rate, clamped to 30s.
func TestRetryAfterScalesWithDrainRate(t *testing.T) {
	srv, _ := newTestServer(t, testConfig(t))
	in := srv.insts[0]
	if got := in.retryAfterSeconds(); got != 1 {
		t.Errorf("no estimate: Retry-After %d, want 1", got)
	}
	in.drainEWMA.Store(int64(3 * time.Second))
	if got := in.retryAfterSeconds(); got != 3 {
		t.Errorf("3s/batch, empty queue: Retry-After %d, want 3", got)
	}
	in.drainEWMA.Store(int64(20 * time.Second))
	if got := in.retryAfterSeconds(); got != 20 {
		t.Errorf("20s/batch: Retry-After %d, want 20", got)
	}
	in.drainEWMA.Store(int64(time.Hour))
	if got := in.retryAfterSeconds(); got != 30 {
		t.Errorf("pathological drain rate: Retry-After %d, want the 30s clamp", got)
	}
	in.drainEWMA.Store(0)
}

// scrapeMetrics fetches /metrics as a string.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	return readAll(t, resp)
}
