package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/workload"
)

// Soak dimensions. 8 writers + 504 readers = 512 concurrent clients over
// 8 instances, per the service acceptance bar.
const (
	soakInstances = 8
	soakReaders   = 504
	soakN         = 64
	soakBatches   = 24 // per instance; the restart happens after half
	soakBatchSize = 4
	soakQueryLen  = 8
)

// TestServerSoak drives the full service lifecycle under load: 512
// concurrent mixed read/write clients (workload.QueryMix streams) against 8
// instances, one graceful restart mid-soak (drain + checkpoint + restore),
// and a final bit-identical comparison of warm query answers against an
// uninterrupted in-process twin. Run under -race in CI.
func TestServerSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	cfg := Config{
		Instances:     soakInstances,
		N:             soakN,
		Phi:           0.6,
		Seed:          42,
		Parallelism:   1,
		QueueDepth:    8,
		CheckpointDir: t.TempDir(),
	}

	// Pre-record every writer's update stream. After this loop each mix's
	// mirror is static, so concurrent readers can draw query batches from it
	// race-free via NextQueriesFrom.
	mixes := make([]*workload.QueryMix, soakInstances)
	streams := make([][]graph.Batch, soakInstances)
	for i := range mixes {
		mixes[i] = workload.NewQueryMix(
			workload.NewChurn(workload.Config{N: soakN, Seed: cfg.Seed + uint64(i)}),
			soakN, cfg.Seed+uint64(i))
		for b := 0; b < soakBatches; b++ {
			streams[i] = append(streams[i], mixes[i].Next(soakBatchSize))
		}
	}

	// The uninterrupted twin: same per-instance core config (the server's
	// seed derivation), fed the identical recorded batches with no restart.
	twins := make([]*core.DynamicConnectivity, soakInstances)
	for i := range twins {
		dc, err := core.NewDynamicConnectivity(core.Config{
			N: soakN, Phi: cfg.Phi, Seed: cfg.Seed + uint64(i)*0x9e3779b9, Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range streams[i] {
			if err := dc.ApplyBatch(b); err != nil {
				t.Fatalf("twin %d: %v", i, err)
			}
		}
		twins[i] = dc
	}

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	var baseURL atomic.Value
	baseURL.Store(ts1.URL)
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        soakReaders + soakInstances,
		MaxIdleConnsPerHost: soakReaders + soakInstances,
	}}

	// post sends one JSON request; the writer and reader loops retry the
	// transport errors of the restart window and the 429/503 backpressure.
	post := func(path string, body, out any) (status int, err error) {
		data, _ := json.Marshal(body)
		req, err := http.NewRequest("POST", baseURL.Load().(string)+path, bytes.NewReader(data))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
		}
		var sink bytes.Buffer
		_, _ = sink.ReadFrom(resp.Body)
		return resp.StatusCode, nil
	}
	retryable := func(status int, err error) bool {
		return err != nil || status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
	}

	done := make(chan struct{})
	resume := make(chan struct{})
	var firstHalf, writers, readers sync.WaitGroup

	// Writers: one per instance, sending the recorded stream in order.
	// Between the halves they park at the restart barrier; retries are safe
	// because no writer traffic is in flight while the fleet restarts.
	wireBatch := func(b graph.Batch) UpdateRequest {
		req := UpdateRequest{Updates: make([]WireUpdate, len(b))}
		for j, up := range b {
			req.Updates[j] = WireUpdate{Op: up.Op.String(), U: up.Edge.U, V: up.Edge.V, Weight: up.Weight}
		}
		return req
	}
	sendStream := func(t *testing.T, id int, batches []graph.Batch) {
		path := fmt.Sprintf("/instances/%d/updates", id)
		for _, b := range batches {
			for {
				status, err := post(path, wireBatch(b), nil)
				if status == http.StatusAccepted {
					break
				}
				if !retryable(status, err) {
					t.Errorf("writer %d: status %d, err %v", id, status, err)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}
	firstHalf.Add(soakInstances)
	writers.Add(soakInstances)
	for i := 0; i < soakInstances; i++ {
		go func(id int) {
			defer writers.Done()
			sendStream(t, id, streams[id][:soakBatches/2])
			firstHalf.Done()
			<-resume
			sendStream(t, id, streams[id][soakBatches/2:])
		}(i)
	}

	// Readers: mixed query clients, each with its own salted deterministic
	// stream, hammering through the restart (retrying transport errors).
	readers.Add(soakReaders)
	var queriesServed atomic.Uint64
	for c := 0; c < soakReaders; c++ {
		go func(salt uint64) {
			defer readers.Done()
			id := int(salt) % soakInstances
			path := fmt.Sprintf("/instances/%d/query", id)
			for iter := uint64(0); ; iter++ {
				select {
				case <-done:
					return
				default:
				}
				pairs := mixes[id].NextQueriesFrom(salt<<16|iter, soakQueryLen)
				var resp QueryResponse
				status, err := post(path, QueryRequest{Pairs: pairs}, &resp)
				if retryable(status, err) {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				if status != http.StatusOK {
					t.Errorf("reader %d: status %d", salt, status)
					return
				}
				if len(resp.Connected) != len(pairs) {
					t.Errorf("reader %d: %d answers for %d pairs", salt, len(resp.Connected), len(pairs))
					return
				}
				queriesServed.Add(1)
			}
		}(uint64(c))
	}

	// Graceful restart at the halfway mark, with readers still hammering.
	firstHalf.Wait()
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Close()
	for _, in := range srv2.insts {
		if got := in.restoreCycles.Load(); got != 1 {
			t.Errorf("instance %d: restore cycles = %d, want 1", in.id, got)
		}
	}
	baseURL.Store(ts2.URL)
	close(resume)

	writers.Wait()
	for _, in := range srv2.insts {
		waitDrained(t, in)
	}
	close(done)
	readers.Wait()
	if t.Failed() {
		t.Fatal("client errors during the soak; skipping verification")
	}
	t.Logf("soak: %d query batches served by %d readers", queriesServed.Load(), soakReaders)

	// Warm answers must be bit-identical to the uninterrupted twin. Query
	// twice: the first fill may run a collective, the second must be warm,
	// and both must agree with the twin exactly.
	for i := 0; i < soakInstances; i++ {
		pairs := mixes[i].NextQueriesFrom(0xdead, 32)
		want := twins[i].ConnectedAll(toCorePairs(pairs))
		wantComps := twins[i].NumComponents()
		for pass := 0; pass < 2; pass++ {
			var resp QueryResponse
			status, err := post(fmt.Sprintf("/instances/%d/query", i), QueryRequest{Pairs: pairs}, &resp)
			if err != nil || status != http.StatusOK {
				t.Fatalf("verify instance %d: status %d, err %v", i, status, err)
			}
			for j := range want {
				if resp.Connected[j] != want[j] {
					t.Errorf("instance %d pass %d pair %v: server %v, twin %v", i, pass, pairs[j], resp.Connected[j], want[j])
				}
			}
			if resp.Components != wantComps {
				t.Errorf("instance %d pass %d: %d components, twin has %d", i, pass, resp.Components, wantComps)
			}
		}
	}

	// Every instance must report ready on its per-instance healthz once the
	// soak has drained — liveness and readiness, scraped like CI does.
	for i := 0; i < soakInstances; i++ {
		hresp, err := client.Get(baseURL.Load().(string) + fmt.Sprintf("/instances/%d/healthz", i))
		if err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			t.Errorf("instance %d healthz = %d after the soak, want 200", i, hresp.StatusCode)
		}
	}

	// The metrics the acceptance bar names must be live: nonzero cache hits
	// (warm queries happened) and nonzero apply-latency samples.
	mresp, err := client.Get(baseURL.Load().(string) + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, mresp)
	mresp.Body.Close()
	if hits := sumMetric(t, body, "mpcserve_query_cache_hits_total"); hits == 0 {
		t.Error("mpcserve_query_cache_hits_total is zero after the soak")
	}
	if n := sumMetric(t, body, "mpcserve_batch_apply_seconds_count"); n == 0 {
		t.Error("mpcserve_batch_apply_seconds_count is zero after the soak")
	}
	if n := sumMetric(t, body, "mpcserve_restore_cycles_total"); n != soakInstances {
		t.Errorf("mpcserve_restore_cycles_total sums to %d, want %d", n, soakInstances)
	}
}

func toCorePairs(pairs [][2]int) []core.Pair {
	out := make([]core.Pair, len(pairs))
	for i, p := range pairs {
		out[i] = core.Pair{U: p[0], V: p[1]}
	}
	return out
}

// sumMetric adds up a metric's value across every instance label in a
// Prometheus text exposition body.
func sumMetric(t *testing.T, body, name string) uint64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `\{[^}]*\} (\d+)$`)
	var sum uint64
	for _, m := range re.FindAllStringSubmatch(body, -1) {
		v, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			t.Fatalf("metric %s: bad value %q", name, m[1])
		}
		sum += v
	}
	return sum
}
