package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/graph"
)

// testConfig is a small fleet that keeps unit tests fast.
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{Instances: 2, N: 32, Phi: 0.6, Seed: 7, Parallelism: 1, QueueDepth: 4}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitDrained blocks until at least one batch was applied or rejected and
// the instance is idle: pending == 0 under pendMu, the condition waitIdle
// uses. An empty queue is not that barrier — the applier dequeues a batch
// before it takes mu, so the batch can still be unapplied.
func waitDrained(t *testing.T, in *instance) {
	t.Helper()
	idle := func() bool {
		in.pendMu.Lock()
		defer in.pendMu.Unlock()
		return in.pending == 0
	}
	deadline := time.Now().Add(10 * time.Second)
	for !idle() || in.batchesApplied.Load()+in.batchesRejected.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("instance never went idle")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerUpdateQueryFlow(t *testing.T) {
	srv, ts := newTestServer(t, testConfig(t))
	resp := postJSON(t, ts.URL+"/instances/0/updates", UpdateRequest{Updates: []WireUpdate{
		{Op: "insert", U: 0, V: 1},
		{Op: "insert", U: 1, V: 2},
		{Op: "insert", U: 4, V: 5},
	}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	ack := decodeJSON[UpdateResponse](t, resp)
	if ack.Queued != 3 {
		t.Fatalf("queued %d updates, want 3", ack.Queued)
	}
	waitDrained(t, srv.insts[0])

	resp = postJSON(t, ts.URL+"/instances/0/query", QueryRequest{Pairs: [][2]int{{0, 2}, {0, 4}, {4, 5}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	q := decodeJSON[QueryResponse](t, resp)
	want := []bool{true, false, true}
	for i := range want {
		if q.Connected[i] != want[i] {
			t.Errorf("pair %d: got %v, want %v", i, q.Connected[i], want[i])
		}
	}
	if q.Components != 32-3 {
		t.Errorf("components = %d, want %d", q.Components, 32-3)
	}

	// The other instance is independent: nothing is connected there.
	resp = postJSON(t, ts.URL+"/instances/1/query", QueryRequest{Pairs: [][2]int{{0, 1}}})
	if got := decodeJSON[QueryResponse](t, resp); got.Connected[0] {
		t.Error("instance 1 saw instance 0's edges")
	}

	// Components endpoint agrees with the pair queries.
	cresp, err := http.Get(ts.URL + "/instances/0/components?vertices=0,1,2,3")
	if err != nil {
		t.Fatal(err)
	}
	labels := decodeJSON[ComponentsResponse](t, cresp).Labels
	if labels[0] != labels[1] || labels[1] != labels[2] || labels[0] == labels[3] {
		t.Errorf("labels = %v: want 0,1,2 together and 3 apart", labels)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv, ts := newTestServer(t, testConfig(t))
	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"unknown instance", "/instances/99/query", QueryRequest{Pairs: [][2]int{{0, 1}}}, http.StatusNotFound},
		{"garbage id", "/instances/x/query", QueryRequest{Pairs: [][2]int{{0, 1}}}, http.StatusNotFound},
		{"empty batch", "/instances/0/updates", UpdateRequest{}, http.StatusBadRequest},
		{"self loop", "/instances/0/updates", UpdateRequest{Updates: []WireUpdate{{Op: "insert", U: 3, V: 3}}}, http.StatusUnprocessableEntity},
		{"out of range", "/instances/0/updates", UpdateRequest{Updates: []WireUpdate{{Op: "insert", U: 0, V: 99}}}, http.StatusUnprocessableEntity},
		{"bad op", "/instances/0/updates", UpdateRequest{Updates: []WireUpdate{{Op: "upsert", U: 0, V: 1}}}, http.StatusUnprocessableEntity},
		{"delete absent", "/instances/0/updates", UpdateRequest{Updates: []WireUpdate{{Op: "delete", U: 8, V: 9}}}, http.StatusUnprocessableEntity},
		{"duplicate edge", "/instances/0/updates", UpdateRequest{Updates: []WireUpdate{
			{Op: "insert", U: 0, V: 1}, {Op: "insert", U: 1, V: 0}}}, http.StatusUnprocessableEntity},
		{"empty query", "/instances/0/query", QueryRequest{}, http.StatusBadRequest},
		{"query out of range", "/instances/0/query", QueryRequest{Pairs: [][2]int{{0, 32}}}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+tc.url, tc.body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}

	// An oversize batch is refused up front with 413.
	big := UpdateRequest{}
	for i := 0; i <= srv.insts[0].dc.Load().MaxBatch(); i++ {
		big.Updates = append(big.Updates, WireUpdate{Op: "insert", U: 0, V: 1})
	}
	resp := postJSON(t, ts.URL+"/instances/0/updates", big)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize batch: status %d, want 413", resp.StatusCode)
	}
}

// TestServerAdmissionDiagnostic pins the admission front door onto the one
// shared validator: a batch the mirror refuses is a 422 whose body is
// graph.Check's own diagnostic, and the refusal — even of a batch that only
// fails at its last update — leaves the admission mirror untouched.
func TestServerAdmissionDiagnostic(t *testing.T) {
	srv, ts := newTestServer(t, testConfig(t))
	resp := postJSON(t, ts.URL+"/instances/0/updates", UpdateRequest{Updates: []WireUpdate{{Op: "insert", U: 1, V: 2}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("setup batch: status %d", resp.StatusCode)
	}
	mirror := srv.insts[0].mirror.Graph()
	for name, b := range map[string]graph.Batch{
		// Valid update by update, but the algorithm applies a batch's
		// inserts before its deletes.
		"touched twice":  {graph.Del(1, 2), graph.Ins(1, 2)},
		"fails half-way": {graph.Ins(3, 4), graph.Ins(4, 5), graph.Del(0, 3)},
		// graph.Ins would panic on these; the wire accepts anything.
		"self-loop":    {graph.Ins(5, 6), {Op: graph.Insert, Edge: graph.Edge{U: 3, V: 3}}},
		"out of range": {{Op: graph.Delete, Edge: graph.Edge{U: 0, V: mirror.N()}}},
	} {
		want := mirror.Check(b)
		if want == nil {
			t.Fatalf("%s: test batch is not invalid", name)
		}
		req := UpdateRequest{}
		for _, up := range b {
			req.Updates = append(req.Updates, WireUpdate{Op: up.Op.String(), U: up.Edge.U, V: up.Edge.V})
		}
		resp := postJSON(t, ts.URL+"/instances/0/updates", req)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422", name, resp.StatusCode)
		}
		if body := strings.TrimSpace(readAll(t, resp)); body != "invalid batch: "+want.Error() {
			t.Errorf("%s: body %q, want the shared diagnostic %q", name, body, want)
		}
		if mirror.M() != 1 || !mirror.Has(1, 2) {
			t.Errorf("%s: refused batch changed the admission mirror (M=%d)", name, mirror.M())
		}
	}
}

// TestServerWithoutCheckpointsKeepsNoJournal is the regression test of the
// admission-journal leak: with no checkpoint directory nothing will ever
// ask for a delta, so admitted updates must not pile up in a journal.
func TestServerWithoutCheckpointsKeepsNoJournal(t *testing.T) {
	srv, ts := newTestServer(t, testConfig(t))
	in := srv.insts[0]
	for i := 0; i < 24; i++ {
		op := "insert"
		if i%2 == 1 {
			op = "delete"
		}
		resp := postJSON(t, ts.URL+"/instances/0/updates", UpdateRequest{Updates: []WireUpdate{{Op: op, U: 0, V: 1}}})
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch %d: status %d", i, resp.StatusCode)
		}
		waitDrained(t, in)
	}
	if got := in.mirror.JournalLen(); got != 0 {
		t.Errorf("admission journal holds %d updates on a server that never checkpoints, want 0", got)
	}
}

// TestServerBackpressure pins the 429 contract: with the applier stalled
// (we hold the instance read lock, which blocks its write-lock acquisition)
// the bounded queue fills and the next batch is refused, with the refusal
// visible in the rejected counter and Retry-After set.
func TestServerBackpressure(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueDepth = 2
	srv, ts := newTestServer(t, cfg)
	in := srv.insts[0]

	in.mu.RLock()
	stalled := true
	defer func() {
		if stalled {
			in.mu.RUnlock()
		}
	}()

	statuses := make([]int, 0, 4)
	for i := 0; i < cfg.QueueDepth+2; i++ {
		resp := postJSON(t, ts.URL+"/instances/0/updates", UpdateRequest{Updates: []WireUpdate{
			{Op: "insert", U: 2 * i, V: 2*i + 1},
		}})
		resp.Body.Close()
		statuses = append(statuses, resp.StatusCode)
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
	}
	// The applier may pull one batch out of the queue and stall holding it,
	// so up to QueueDepth+1 batches are admitted; the rest must be 429.
	rejected := 0
	for _, s := range statuses {
		switch s {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("unexpected status %d (want 202 or 429)", s)
		}
	}
	if rejected == 0 {
		t.Fatalf("no batch was refused: statuses %v", statuses)
	}
	if got := in.batchesRejected.Load(); got != uint64(rejected) {
		t.Errorf("rejected counter = %d, want %d", got, rejected)
	}

	// Unstall: everything admitted must still apply.
	in.mu.RUnlock()
	stalled = false
	waitDrained(t, in)
	if got := int(in.batchesApplied.Load()); got != len(statuses)-rejected {
		t.Errorf("applied %d batches, want %d", got, len(statuses)-rejected)
	}
}

// TestServerCheckpointRestore pins the graceful-restart lifecycle: shut
// down with a checkpoint dir, start a new fleet from it, and the restored
// instances answer bit-identically — warm, and with intact admission
// mirrors (a delete of a restored edge is accepted, a duplicate insert is
// not).
func TestServerCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.CheckpointDir = dir

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	for id := 0; id < cfg.Instances; id++ {
		resp := postJSON(t, fmt.Sprintf("%s/instances/%d/updates", ts1.URL, id), UpdateRequest{Updates: []WireUpdate{
			{Op: "insert", U: 0, V: 1, Weight: 3},
			{Op: "insert", U: 2, V: 3},
			{Op: "insert", U: 1, V: 2},
		}})
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("instance %d: status %d", id, resp.StatusCode)
		}
	}
	for _, in := range srv1.insts {
		waitDrained(t, in)
	}
	pairs := [][2]int{{0, 3}, {0, 4}, {2, 1}}
	resp := postJSON(t, ts1.URL+"/instances/0/query", QueryRequest{Pairs: pairs})
	before := decodeJSON[QueryResponse](t, resp)
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newTestServer(t, cfg)
	for _, in := range srv2.insts {
		if got := in.restoreCycles.Load(); got != 1 {
			t.Errorf("instance %d: restore cycles = %d, want 1", in.id, got)
		}
		if got := in.mirror.Graph().M(); got != 3 {
			t.Errorf("instance %d: restored mirror has %d edges, want 3", in.id, got)
		}
	}
	resp = postJSON(t, ts2.URL+"/instances/0/query", QueryRequest{Pairs: pairs})
	after := decodeJSON[QueryResponse](t, resp)
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("restored answers %v, want %v", after, before)
	}
	// The label cache was restored warm: the query above must not have run
	// a collective.
	if hits, misses := srv2.insts[0].dc.Load().QueryCacheStats(); hits == 0 || misses != 0 {
		t.Errorf("restored query was not warm: hits=%d misses=%d", hits, misses)
	}
	// Admission mirror survived: duplicate insert refused, delete accepted.
	resp = postJSON(t, ts2.URL+"/instances/0/updates", UpdateRequest{Updates: []WireUpdate{{Op: "insert", U: 0, V: 1}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("duplicate insert after restore: status %d, want 422", resp.StatusCode)
	}
	resp = postJSON(t, ts2.URL+"/instances/0/updates", UpdateRequest{Updates: []WireUpdate{{Op: "delete", U: 0, V: 1}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("delete of restored edge: status %d, want 202", resp.StatusCode)
	}
}

// TestMetricsEndpoint walks the families table against live scrapes: every
// atomic an instance keeps reaches the page, traffic reads as it should, and
// the page is the table — per row, in order, HELP, TYPE, then a sample per
// instance (and per kind or bucket) and nothing else.
func TestMetricsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, testConfig(t))
	for _, op := range []string{"insert", "delete"} {
		resp := postJSON(t, ts.URL+"/instances/0/updates", UpdateRequest{Updates: []WireUpdate{{Op: op, U: 0, V: 1}}})
		resp.Body.Close()
		waitDrained(t, srv.insts[0])
	}
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/instances/0/query", QueryRequest{Pairs: [][2]int{{0, 1}}})
		resp.Body.Close()
	}

	// Bumping any word of idle instance 1's metrics changes the page.
	words := unsafe.Slice((*atomic.Uint64)(unsafe.Pointer(&srv.insts[1].metrics)), unsafe.Sizeof(metrics{})/8)
	for i := range words {
		before := scrapeMetrics(t, ts)
		words[i].Add(1 << 40)
		if scrapeMetrics(t, ts) == before {
			t.Errorf("word %d of metrics reaches no row of the scrape", i)
		}
	}

	// Two batches applied and the queue drained, the cut's search summed the
	// sketches of both endpoints, a cold query then two warm ones.
	body := scrapeMetrics(t, ts)
	for _, want := range []string{
		`mpcserve_batch_apply_seconds_count{instance="0"} 2`,
		`mpcserve_queue_depth{instance="0"} 0`,
		`mpcserve_instance_healthy{instance="0"} 1`,
		`mpcserve_replacement_sketches_summed_total{instance="0"} 2`,
		`mpcserve_replacement_search_window_refills_total{instance="0"} 0`,
		`mpcserve_replacement_search_exhausted_total{instance="0"} 0`,
		`mpcserve_query_cache_hits_total{instance="0"} 2`,
		`mpcserve_query_cache_misses_total{instance="0"} 1`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("metrics output missing %q", want)
		}
	}
	want := []string{}
	for _, f := range families {
		want = append(want, "# HELP "+f.name+" "+f.help, "# TYPE "+f.name+" "+f.typ)
		for id := range srv.insts {
			inst := fmt.Sprintf(`{instance="%d"`, id)
			switch {
			case f.hist != nil:
				for _, le := range leLabels {
					want = append(want, f.name+"_bucket"+inst+le+"}")
				}
				want = append(want, f.name+"_sum"+inst+"}", f.name+"_count"+inst+"}")
			case f.kinded:
				for _, kind := range kindLabels {
					want = append(want, f.name+inst+kind+"}")
				}
			default:
				want = append(want, f.name+inst+"}")
			}
		}
	}
	// Samples compare without their values. Instance 1's integers read >= 2^40
	// after the bumps: printed in exponent form, they would stay unmasked.
	got := strings.Split(regexp.MustCompile(`(?m)^([^#].*) [0-9.e-]+\n`).ReplaceAllString(body, "$1\n"), "\n")
	got, want = append(got[:len(got)-1], "(end of page)"), append(want, "(end of page)")
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			t.Fatalf("scrape line %d is %q where the table puts %q", i+1, got[i], want[i])
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Instances: 0, N: 16, Phi: 0.6},
		{Instances: 1, N: 1, Phi: 0.6},
		{Instances: 1, N: 16, Phi: 0},
		{Instances: 1, N: 16, Phi: 1.5},
		{Instances: 1, N: 16, Phi: 0.6, QueueDepth: -1},
		{Instances: 1, N: 16, Phi: 0.6, CheckpointEvery: time.Second},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// TestServerDeltaCheckpointChain is the server-side chain contract: a
// second graceful shutdown writes a delta (the base already exists), and a
// fleet restored from base+delta answers bit-identically to the fleet that
// wrote it — warm cache and intact admission mirror included.
func TestServerDeltaCheckpointChain(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.CheckpointDir = dir
	cfg.MaxDeltaChain = 4

	// Generation 1: full base on shutdown.
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	resp := postJSON(t, ts1.URL+"/instances/0/updates", UpdateRequest{Updates: []WireUpdate{
		{Op: "insert", U: 0, V: 1},
		{Op: "insert", U: 2, V: 3},
	}})
	resp.Body.Close()
	waitDrained(t, srv1.insts[0])
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv1.insts[0].ckpt[0].count.Load(); got != 1 {
		t.Fatalf("generation 1 wrote %d full checkpoints, want 1", got)
	}

	// Generation 2: restores the base, applies more updates, and its
	// shutdown checkpoint must be a delta extending that base.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	resp = postJSON(t, ts2.URL+"/instances/0/updates", UpdateRequest{Updates: []WireUpdate{
		{Op: "insert", U: 1, V: 2},
		{Op: "delete", U: 2, V: 3},
	}})
	resp.Body.Close()
	waitDrained(t, srv2.insts[0])
	pairs := [][2]int{{0, 2}, {2, 3}, {0, 3}}
	resp = postJSON(t, ts2.URL+"/instances/0/query", QueryRequest{Pairs: pairs})
	before := decodeJSON[QueryResponse](t, resp)
	ts2.Close()
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if full, delta := srv2.insts[0].ckpt[0].count.Load(), srv2.insts[0].ckpt[1].count.Load(); full != 0 || delta != 1 {
		t.Fatalf("generation 2 wrote full=%d delta=%d checkpoints, want 0 full, 1 delta", full, delta)
	}
	if _, err := os.Stat(instancePath(dir, 0) + ".delta-001"); err != nil {
		t.Fatalf("delta file missing after generation 2 shutdown: %v", err)
	}

	// Generation 3: restored from base+delta, answers must match and the
	// cache must be warm (no collective ran for the repeated query).
	srv3, ts3 := newTestServer(t, cfg)
	for _, in := range srv3.insts {
		if got := in.restoreCycles.Load(); got != 2 {
			t.Errorf("instance %d: restore cycles = %d, want 2", in.id, got)
		}
	}
	resp = postJSON(t, ts3.URL+"/instances/0/query", QueryRequest{Pairs: pairs})
	after := decodeJSON[QueryResponse](t, resp)
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("restored answers %v, want %v", after, before)
	}
	if hits, misses := srv3.insts[0].dc.Load().QueryCacheStats(); hits == 0 || misses != 0 {
		t.Errorf("restore from base+delta was not warm: hits=%d misses=%d", hits, misses)
	}
	// The delta carried generation 2's two updates, and the restore says so.
	if got := srv3.insts[0].replayedUpdates.Load(); got != 2 {
		t.Errorf("restore from base+delta replayed %d updates, want 2", got)
	}
	// Admission mirror replayed the delta journal: the deleted edge can be
	// re-inserted, the still-present one cannot.
	resp = postJSON(t, ts3.URL+"/instances/0/updates", UpdateRequest{Updates: []WireUpdate{{Op: "insert", U: 1, V: 2}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("duplicate insert after delta restore: status %d, want 422", resp.StatusCode)
	}
	resp = postJSON(t, ts3.URL+"/instances/0/updates", UpdateRequest{Updates: []WireUpdate{{Op: "insert", U: 2, V: 3}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("re-insert of delta-deleted edge: status %d, want 202", resp.StatusCode)
	}
}

// TestServerCloseCheckpointsEveryInstance pins the shutdown contract: one
// failed instance must not abort the fleet checkpoint — the healthy
// instances still get their snapshots, and Close reports the failure.
func TestServerCloseCheckpointsEveryInstance(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.CheckpointDir = dir
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	resp := postJSON(t, ts.URL+"/instances/1/updates", UpdateRequest{Updates: []WireUpdate{{Op: "insert", U: 0, V: 1}}})
	resp.Body.Close()
	waitDrained(t, srv.insts[1])
	// Instance 0 (the first one Close visits) is failed: its checkpoint is
	// skipped with an error, but instance 1 must still be checkpointed.
	srv.insts[0].failure.Store(&applyFailure{err: errors.New("induced failure")})
	ts.Close()
	err = srv.Close()
	if err == nil || !strings.Contains(err.Error(), "induced failure") {
		t.Fatalf("Close error = %v, want the induced instance-0 failure reported", err)
	}
	if _, statErr := os.Stat(instancePath(dir, 1)); statErr != nil {
		t.Errorf("instance 1 was not checkpointed after instance 0 failed: %v", statErr)
	}
	if _, statErr := os.Stat(instancePath(dir, 0)); statErr == nil {
		t.Errorf("failed instance 0 wrote a checkpoint; its state is not trustworthy")
	}
}

// TestServerPeriodicCheckpoint exercises the background checkpoint loop: a
// live (non-shutdown) server cuts a full base then deltas on its own, while
// continuing to serve.
func TestServerPeriodicCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 20 * time.Millisecond
	cfg.MaxDeltaChain = 4
	srv, ts := newTestServer(t, cfg)
	resp := postJSON(t, ts.URL+"/instances/0/updates", UpdateRequest{Updates: []WireUpdate{{Op: "insert", U: 0, V: 1}}})
	resp.Body.Close()
	waitDrained(t, srv.insts[0])
	deadline := time.Now().Add(10 * time.Second)
	ckpt := &srv.insts[0].ckpt // full, delta
	for ckpt[0].count.Load() == 0 || ckpt[1].count.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background loop wrote full=%d delta=%d checkpoints; want both kinds",
				ckpt[0].count.Load(), ckpt[1].count.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The server still serves while checkpointing in the background.
	resp = postJSON(t, ts.URL+"/instances/0/query", QueryRequest{Pairs: [][2]int{{0, 1}}})
	if got := decodeJSON[QueryResponse](t, resp); !got.Connected[0] {
		t.Error("query answered wrong during background checkpointing")
	}
}
