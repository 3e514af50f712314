package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/workload"
)

// TestServerElasticSoak is the elastic-soak CI driver: a 200-batch powerlaw
// stream at parallelism 8 with a live resize — up, down, up — every ~50
// batches, readers and healthz probes hammering throughout (so the resize
// ops run under the race detector), and the final state bit-identical to an
// uninterrupted in-process twin. Writers and query readers go through
// postRetry, which absorbs backpressure 429s and the 503s of held admission.
func TestServerElasticSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("elastic soak skipped in -short mode")
	}
	const (
		n           = 64
		batches     = 200
		batchSize   = 2  // fits MaxBatch at every shape visited
		resizeEvery = 50 // resize after batches 50, 100, 150
		readerCount = 6
	)
	// Shapes the soak cycles through (all realizable at N=64): grow to 9
	// machines, shrink to 5, grow to 9 again.
	shapes := []int{9, 5, 9}
	cfg := Config{
		Instances: 1, N: n, Phi: 0.6, Seed: 11, Parallelism: 8, QueueDepth: 8,
		CheckpointDir: t.TempDir(),
	}
	sc, err := workload.Get("powerlaw")
	if err != nil {
		t.Fatal(err)
	}
	gen := sc.New(n, 12)
	stream := make([]graph.Batch, batches)
	for i := range stream {
		stream[i] = append(graph.Batch(nil), gen.Next(batchSize)...)
	}

	twin, err := core.NewDynamicConnectivity(core.Config{
		N: n, Phi: cfg.Phi, Seed: cfg.Seed, Parallelism: cfg.Parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range stream {
		if err := twin.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}

	srv, ts := newTestServer(t, cfg)
	client := ts.Client()

	done := make(chan struct{})
	var readers sync.WaitGroup
	var healthOK, healthBusy atomic.Uint64
	queryPairs := [][2]int{{0, 1}, {0, n - 1}, {3, 9}, {5, 17}, {20, 40}}
	readers.Add(readerCount)
	for r := 0; r < readerCount; r++ {
		go func(id int) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if id%2 == 0 {
					resp, err := http.Get(ts.URL + "/instances/0/healthz")
					if err != nil {
						continue
					}
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
						healthOK.Add(1)
					case http.StatusServiceUnavailable:
						healthBusy.Add(1)
					default:
						t.Errorf("healthz returned %d", resp.StatusCode)
						return
					}
				} else {
					resp, err := postRetry(client, ts.URL+"/instances/0/query", QueryRequest{Pairs: queryPairs})
					if err != nil {
						t.Errorf("reader %d: %v", id, err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("reader %d: query status %d", id, resp.StatusCode)
						return
					}
				}
				time.Sleep(100 * time.Microsecond)
			}
		}(r)
	}

	resizes := 0
	for i, b := range stream {
		resp, err := postRetry(client, ts.URL+"/instances/0/updates", wireRequest(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch %d: status %d", i, resp.StatusCode)
		}
		if (i+1)%resizeEvery == 0 && resizes < len(shapes) {
			waitDrained(t, srv.insts[0])
			target := shapes[resizes]
			resp, err := postRetry(client, fmt.Sprintf("%s/instances/0/resize?machines=%d", ts.URL, target), nil)
			if err != nil {
				t.Fatal(err)
			}
			ack := decodeJSON[ResizeResponse](t, resp)
			if ack.Machines != target {
				t.Fatalf("resize %d: fleet has %d machines, want %d", resizes, ack.Machines, target)
			}
			resizes++
		}
	}
	waitDrained(t, srv.insts[0])
	close(done)
	readers.Wait()
	if t.Failed() {
		t.Fatal("client errors during the soak; skipping verification")
	}
	t.Logf("elastic soak: %d resizes, healthz %d ready / %d quiesced", resizes, healthOK.Load(), healthBusy.Load())
	if healthOK.Load() == 0 {
		t.Error("healthz never reported ready during the soak")
	}

	// Final state must match the uninterrupted twin bit-identically — warm
	// (second pass) included.
	want := twin.ConnectedAll(toCorePairs(queryPairs))
	for pass := 0; pass < 2; pass++ {
		resp := postJSON(t, ts.URL+"/instances/0/query", QueryRequest{Pairs: queryPairs})
		q := decodeJSON[QueryResponse](t, resp)
		for j := range want {
			if q.Connected[j] != want[j] {
				t.Errorf("pass %d pair %v: server %v, twin %v", pass, queryPairs[j], q.Connected[j], want[j])
			}
		}
		if comps := twin.NumComponents(); q.Components != comps {
			t.Errorf("pass %d: %d components, twin has %d", pass, q.Components, comps)
		}
	}
	body := scrapeMetrics(t, ts)
	if got := sumMetric(t, body, "mpcserve_reshard_total"); got != uint64(resizes) {
		t.Errorf("mpcserve_reshard_total = %d, want %d", got, resizes)
	}
	if got := sumMetric(t, body, "mpcserve_cluster_machines"); got != uint64(shapes[len(shapes)-1]) {
		t.Errorf("mpcserve_cluster_machines = %d, want %d", got, shapes[len(shapes)-1])
	}
}

// postRetry sends one JSON POST (nil body allowed), retrying for up to about
// two seconds while the server answers 429 (queue full) or 503 (instance
// held by a checkpoint or resize op). The caller owns the last response.
func postRetry(client *http.Client, url string, body any) (*http.Response, error) {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	for attempt := 1; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(data))
		if err != nil || attempt == 1000 ||
			resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
			return resp, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		time.Sleep(2 * time.Millisecond)
	}
}

// wireRequest renders a batch as the updates wire form.
func wireRequest(b graph.Batch) UpdateRequest {
	req := UpdateRequest{Updates: make([]WireUpdate, len(b))}
	for j, up := range b {
		req.Updates[j] = WireUpdate{Op: up.Op.String(), U: up.Edge.U, V: up.Edge.V, Weight: up.Weight}
	}
	return req
}
