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

// TestNoAnswerFromAFailedBatch pins that a failed batch is on record before
// the instance lock is free again, so no query answers from the state it
// left. The batch is one update longer than MaxBatch, so the session applies
// it in two chunks: the first links 0 to 1, the second fails. In each round a
// reader waits on the lock while the batch applies and then asks what a
// query would: the instance must report the failure, or not connect 0 and 1.
// The reader has waited over a millisecond by then, which puts the lock in
// its starvation mode: the unlock hands it to the reader at once, before the
// applier runs another line. (The sleep only makes the check sharp: a reader
// that gets the lock sooner sees the state before the batch.) Between rounds
// the test unlinks 0 and 1 and clears the failure. Last, a query that passed
// the handler's early failure check and then waited on the lock gets the
// failure.
func TestNoAnswerFromAFailedBatch(t *testing.T) {
	srv, _ := newTestServer(t, testConfig(t))
	in := srv.insts[0]
	var first, undo graph.Batch
	for i := 0; i < in.dc.Load().MaxBatch(); i++ {
		first = append(first, graph.Ins(2*i, 2*i+1))
		undo = append(undo, graph.Del(2*i, 2*i+1))
	}
	bad := append(first, graph.Update{Op: graph.Op(99), Edge: graph.Edge{U: 0, V: 1}})

	ask, answer := make(chan struct{}), make(chan bool)
	go func() {
		for range ask {
			in.mu.Lock()
			torn := in.failed() == nil && in.dc.Load().Connected(0, 1)
			in.mu.Unlock()
			answer <- torn
		}
	}()
	defer close(ask)
	for round := 0; round < 50; round++ {
		in.mu.Lock()
		ask <- struct{}{}
		time.Sleep(2 * time.Millisecond)
		in.mu.Unlock()
		in.applyBatch(bad)
		if <-answer {
			t.Fatalf("round %d: a reader got the lock with the failed batch applied and not recorded", round)
		}
		in.mu.Lock()
		recorded := in.failed() != nil
		err := in.sess.Apply(undo)
		in.failure.Store(nil)
		in.mu.Unlock()
		if !recorded || err != nil {
			t.Fatalf("round %d: failure recorded: %v; undo: %v", round, recorded, err)
		}
	}

	// A query that waited on the lock while the batch failed gets the failure.
	in.mu.Lock()
	waited := make(chan error)
	go func() {
		err := in.lockLive()
		if err == nil {
			in.mu.Unlock()
		}
		waited <- err
	}()
	in.failure.Store(&applyFailure{err: errors.New("boom")})
	in.mu.Unlock()
	if err := <-waited; err == nil {
		t.Error("a query that waited on the lock of a failing batch went on to read its state")
	}
	in.failure.Store(nil)
}

// TestReadsAreLinearizable runs many reader goroutines POSTing query batches
// while the applier drains pre-recorded batches. Each reader reads the
// applied-batch count before and after its request; its answer, the
// component count included, must be the oracle's on some prefix of the
// stream within that range. Run under -race, it also fails when a query
// answers without the instance lock.
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
