package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// TestNoAnswerFromAFailedBatch pins that no read answers from the state a
// failed batch left. The batch is one update longer than MaxBatch, so the
// session applies it in two chunks: the first links 0 and 1, the second
// fails. Readers ask whether 0 and 1 are connected while it goes through the
// queue; a read runs between two ops, never inside one, and the applier
// records the failure before its next op, so no answer may connect them.
// Once the failure is on record, the next read must get it. Nothing here
// depends on timing: it holds at GOMAXPROCS=1.
func TestNoAnswerFromAFailedBatch(t *testing.T) {
	srv, ts := newTestServer(t, testConfig(t))
	in := srv.insts[0]
	var bad graph.Batch
	for i := 0; i < in.shape.Load().MaxBatch(); i++ {
		bad = append(bad, graph.Ins(2*i, 2*i+1))
	}
	bad = append(bad, graph.Update{Op: graph.Op(99), Edge: graph.Edge{U: 0, V: 1}})

	query := QueryRequest{Pairs: [][2]int{{0, 1}}}
	var wg, answered sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		answered.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				resp, code, err := postQuery(ts.URL, query)
				if i == 0 {
					answered.Done() // the batch is queued after every reader's first answer
				}
				switch {
				case err != nil:
					t.Error(err)
					return
				case code == http.StatusInternalServerError:
					return
				case code != http.StatusOK:
					t.Errorf("status %d, want 200 or 500", code)
					return
				case resp.Connected[0]:
					t.Error("a read answered from the state of a failed batch")
					return
				}
			}
		}()
	}
	answered.Wait()
	// The mirror refuses the batch, so it goes on the queue directly.
	in.queue <- op{batch: bad}
	for deadline := time.Now().Add(10 * time.Second); in.failed() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the failing batch was never recorded")
		}
	}
	if _, code, err := postQuery(ts.URL, query); err != nil || code != http.StatusInternalServerError {
		t.Errorf("read after the failure: status %d, %v; want 500", code, err)
	}
	wg.Wait()
}

// TestReadAfterStopIsDraining pins that a read never blocks on an applier
// that has exited: it gets errDraining.
func TestReadAfterStopIsDraining(t *testing.T) {
	srv, _ := newTestServer(t, testConfig(t))
	in := srv.insts[0]
	in.drain()
	got := make(chan error, 1)
	go func() { got <- in.call(in.reads, func() error { return nil }, make(chan error, 1)) }()
	select {
	case err := <-got:
		if !errors.Is(err, errDraining) {
			t.Errorf("read after stop: %v, want errDraining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a read sent after stop did not return")
	}
}

// TestReadsAreLinearizable runs many reader goroutines POSTing query batches
// while the applier drains pre-recorded batches. Each reader reads the
// applied-batch count before and after its request; its answer, the
// component count included, must be the oracle's on some prefix of the
// stream within that range. Run under -race, it also fails when a query
// touches the live state off the applier.
func TestReadsAreLinearizable(t *testing.T) {
	const (
		n         = 64
		batches   = 120
		batchSize = 4
		readers   = 16
		pairs     = 8
	)
	cfg := Config{Instances: 1, N: n, Phi: 0.6, Seed: 3, Parallelism: 2, QueueDepth: batches}
	srv, ts := newTestServer(t, cfg)
	in := srv.insts[0]

	// The stream and the oracle's labels and count after each prefix of it.
	gen := workload.NewChurn(workload.Config{N: n, Seed: 5})
	stream := make([]graph.Batch, batches)
	labels := [][]int{oracle.Components(gen.Mirror())}
	comps := []int{oracle.NumComponents(gen.Mirror())}
	for i := range stream {
		stream[i] = gen.Next(batchSize)
		labels = append(labels, oracle.Components(gen.Mirror()))
		comps = append(comps, oracle.NumComponents(gen.Mirror()))
	}

	var written atomic.Bool
	var midStream atomic.Int64 // answers to requests sent while batches were pending
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 1))
			req := QueryRequest{Pairs: make([][2]int, pairs)}
			// Every reader asks at least once after the last batch applied.
			for done := false; !done; {
				done = written.Load() && int(in.batchesApplied.Load()) == batches
				for i := range req.Pairs {
					req.Pairs[i] = [2]int{rng.IntN(n), rng.IntN(n)}
				}
				before := int(in.batchesApplied.Load())
				resp, code, err := postQuery(ts.URL, req)
				after := int(in.batchesApplied.Load())
				if err != nil || code != http.StatusOK {
					t.Errorf("reader %d: status %d, %v", r, code, err)
					return
				}
				if !explainedByPrefix(req.Pairs, resp, labels[before:after+1], comps[before:after+1]) {
					t.Errorf("reader %d: %v answered %v with %d components, which no prefix of %d..%d batches gives",
						r, req.Pairs, resp.Connected, resp.Components, before, after)
					return
				}
				if before < batches {
					midStream.Add(1)
				}
			}
		}(r)
	}
	for _, b := range stream {
		if err := in.offer(b); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond) // spread the batches over the readers' requests
	}
	written.Store(true)
	wg.Wait()
	if got := in.batchesApplied.Load(); got != batches {
		t.Fatalf("%d batches applied, want %d", got, batches)
	}
	if midStream.Load() < readers {
		t.Errorf("only %d answers to requests sent mid-stream; the readers hardly overlapped the applier", midStream.Load())
	}
	t.Logf("%d answers to requests sent mid-stream", midStream.Load())
}

// postQuery sends one query batch to instance 0 and decodes a 200 answer.
// Unlike postJSON it is safe off the test goroutine.
func postQuery(url string, req QueryRequest) (QueryResponse, int, error) {
	var out QueryResponse
	data, err := json.Marshal(req)
	if err != nil {
		return out, 0, err
	}
	resp, err := http.Post(url+"/instances/0/query", "application/json", bytes.NewReader(data))
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, resp.StatusCode, nil
	}
	return out, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&out)
}

// explainedByPrefix reports whether some prefix's labels and component count
// give exactly the answer resp to pairs.
func explainedByPrefix(pairs [][2]int, resp QueryResponse, labels [][]int, comps []int) bool {
	for k, l := range labels {
		ok := len(resp.Connected) == len(pairs) && resp.Components == comps[k]
		for i, p := range pairs {
			ok = ok && resp.Connected[i] == (l[p[0]] == l[p[1]])
		}
		if ok {
			return true
		}
	}
	return false
}
