package server

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestServerRefusesOversizedBody: a body past maxBodyBytes is refused with
// 413 and a size diagnostic on both hot endpoints, not cut short and
// answered 400 "unexpected EOF".
func TestServerRefusesOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, testConfig(t))
	for _, ep := range []struct{ url, body string }{
		{"/instances/0/query", `{"pairs":[[0,1]`},
		{"/instances/0/updates", `{"updates":[{"op":"insert","u":0,"v":1}`},
	} {
		body := ep.body + strings.Repeat(" ", maxBodyBytes) + "]}"
		resp, err := http.Post(ts.URL+ep.url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg := readAll(t, resp)
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "exceeds 8388608 bytes") {
			t.Errorf("%s: status %d %q, want 413 naming the %d-byte limit", ep.url, resp.StatusCode, msg, maxBodyBytes)
		}
	}
}

// TestResponsesMatchEncoder: the appended responses are byte for byte what
// json.Encoder.Encode writes for the exported response types.
func TestResponsesMatchEncoder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var out []byte
	for n := 1; n <= 256; n++ {
		connected := make([]bool, n)
		for i := range connected {
			connected[i] = rng.IntN(2) == 1
		}
		comps := rng.IntN(1 << rng.IntN(40))
		out = appendQueryResponse(out[:0], connected, comps)
		if want := encode(QueryResponse{Connected: connected, Components: comps}); !bytes.Equal(out, want) {
			t.Fatalf("%d answers: appended %q, encoder %q", n, out, want)
		}
		queued, depth := rng.IntN(1<<rng.IntN(20)), rng.IntN(n)
		out = appendUpdateResponse(out[:0], queued, depth)
		if want := encode(UpdateResponse{Queued: queued, QueueDepth: depth}); !bytes.Equal(out, want) {
			t.Fatalf("appended %q, encoder %q", out, want)
		}
	}
}

// wireSeeds are the bodies of TestServerRejectsBadRequests plus the shapes
// clients send, with whitespace and member order varied.
var wireSeeds = []string{
	`{"pairs":[[0,2],[0,4],[4,5]]}` + "\n",
	" {\n\t\"pairs\" : [ [ 0 , 1 ] ,[2,3]\r] } ",
	`{"pairs":[]}`, `{}`, `{"pairs":[[0,1],[5]]}`, `{"pairs":[null]}`, `{"pairs":[[0,1,2]]}`,
	`{"pairs":[[null,1]]}`, `hello`, `{"pairs":[[0,1]`, `{"pairs":5}`, `{"pairs":null}`,
	`{"pairs":[["0",1]]}`, `{"pairs":[[0.5,1]]}`, `{"pairs":[[1e1,1]]}`, `{"pairs":[[01,1]]}`,
	`{"pairs":[[-1,1]]}`, `{"pairs":[[-0,1]]}`, `{"Pairs":[[0,1]]}`, `{"pairs":[[0,1]],"extra":1}`,
	`{"pairs":[[0,1]]} trailing garbage`, `{"pairs":[[1],[2]],"pairs":[[3,4]]}`,
	`{"pairs":[[999999999999999999,-999999999999999999]]}`, `{"pairs":[[9999999999999999999,1]]}`,
	`{"updates":[{"op":"insert","u":0,"v":1},{"op":"delete","u":1,"v":2,"weight":7}]}` + "\n",
	`{"updates":[{"v":1,"weight":-3,"op":"delete","u":9}]}`,
	`{"updates":[]}`, `{"updates":[{"op":"insert","u":3}]}`, `{"updates":[{"u":2,"v":3}]}`,
	`{"updates":[null]}`, `{"updates":[{}]}`, `{"updates":[{"op":"insert"`, `{"updates":[{"op":"upsert","u":0,"v":1}]}`,
	`{"updates":[{"op":"insert","u":18,"v":19,"weight":1.5}]}`, `{"UPDATES":[{"Op":"insert","U":10,"V":11}]}`,
	`{"updates":[{"op":"insert","u":12,"v":13,"color":"red"}]}`, `{"updates":[{"op":"insert","u":14,"v":15}]}`,
	`{"updates":[{"op":"insert","u":16,"v":17}]}{"updates":`, `{"updates":[{"op":"insert","op":"delete","u":1,"v":2}]}`,
	`{"updates":[{"op":null,"u":1,"v":2}]}`, `{"updates":[{"op":"insert","u":1,"v":2,"weight":null}]}`,
}

// FuzzWireDecode holds the scanner to the encoding/json fallback on both
// hot bodies: whatever the scanner accepts, the fallback accepts with the
// same values, and the full decode (scanner, else fallback, then checks)
// answers every input with the fallback's status class.
func FuzzWireDecode(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	const n, maxBatch = 32, 16
	f.Fuzz(func(t *testing.T, body []byte) {
		class := func(rf *refusal) int {
			if rf == nil {
				return 2
			}
			return rf.status / 100
		}

		if scanned, ok := scanPairs(nil, body); ok {
			ref, rf := jsonPairs(nil, body)
			if rf != nil || !slices.Equal(scanned, ref) {
				t.Fatalf("query %q: scanned %v, encoding/json %v (%v)", body, scanned, ref, rf)
			}
		}
		pairs, rf := decodeQuery(nil, body, n)
		ref, refRF := jsonPairs(nil, body)
		if refRF == nil {
			refRF = checkPairs(ref, n)
		}
		if class(rf) != class(refRF) || (rf == nil && !slices.Equal(pairs, ref)) {
			t.Fatalf("query %q: decoded %v (%v), encoding/json %v (%v)", body, pairs, rf, ref, refRF)
		}

		if scanned, ok := scanUpdates(nil, body); ok && len(scanned) > 0 {
			ref, rf := jsonUpdates(nil, body, len(scanned)+1)
			if rf != nil || !slices.Equal(scanned, ref) {
				t.Fatalf("updates %q: scanned %v, encoding/json %v (%v)", body, scanned, ref, rf)
			}
		}
		batch, rf := decodeUpdates(body, maxBatch)
		refBatch, refRF := jsonUpdates(nil, body, maxBatch)
		if class(rf) != class(refRF) || (rf == nil && !slices.Equal(batch, refBatch)) {
			t.Fatalf("updates %q: decoded %v (%v), encoding/json %v (%v)", body, batch, rf, refBatch, refRF)
		}
	})
}

// The bodies the benchmark's serve workloads send: 256 query pairs, a
// 74-update batch, each as json.Encoder writes the exported request types.
func benchBodies(b *testing.B) (query, updates []byte) {
	rng := rand.New(rand.NewPCG(3, 4))
	q := QueryRequest{Pairs: make([][2]int, 256)}
	for i := range q.Pairs {
		q.Pairs[i] = [2]int{rng.IntN(4096), rng.IntN(4096)}
	}
	u := UpdateRequest{Updates: make([]WireUpdate, 74)}
	for i := range u.Updates {
		u.Updates[i] = WireUpdate{Op: graph.Op(rng.IntN(2)).String(), U: rng.IntN(4096), V: rng.IntN(4096)}
	}
	var qb, ub bytes.Buffer
	if err := json.NewEncoder(&qb).Encode(q); err != nil {
		b.Fatal(err)
	}
	if err := json.NewEncoder(&ub).Encode(u); err != nil {
		b.Fatal(err)
	}
	return qb.Bytes(), ub.Bytes()
}

func BenchmarkDecodeQuery(b *testing.B) {
	body, _ := benchBodies(b)
	var pairs []core.Pair
	var rf *refusal
	for b.Loop() {
		if pairs, rf = decodeQuery(pairs, body, 4096); rf != nil || len(pairs) != 256 {
			b.Fatal(rf)
		}
	}
}

func BenchmarkDecodeUpdates(b *testing.B) {
	_, body := benchBodies(b)
	for b.Loop() {
		if batch, rf := decodeUpdates(body, 1024); rf != nil || len(batch) != 74 {
			b.Fatal(rf)
		}
	}
}

func BenchmarkQueryResponse(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	connected := make([]bool, 256)
	for i := range connected {
		connected[i] = rng.IntN(2) == 1
	}
	var out []byte
	for b.Loop() {
		out = appendQueryResponse(out[:0], connected, 3000)
	}
}
