package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/workload"
)

// query is one batched connectivity question with the oracle's answer.
type query struct {
	pairs []core.Pair
	body  []byte // pre-encoded POST body (HTTP front-end only)
	want  []bool
	comps int // oracle component count at the time of the query
}

// step is one update batch of the script, the queries that follow it, and
// the oracle's state after it. Everything here is computed before the clock
// starts: the program sees only batch/body and the query pairs.
type step struct {
	batch   graph.Batch
	body    []byte  // pre-encoded POST body (HTTP front-end only)
	queries []query // the steady query round that follows the batch
	probes  []query // first questions to a restored or resized instance
	labels  []int   // oracle component label of every vertex after the batch; kept only where the run verifies all of them
}

// scripter produces the input script. Implementations own the reference
// graph; next never touches the program under test.
type scripter interface {
	// next emits one batch of at most size updates followed by nq query
	// batches of np pairs each; keepLabels retains the full label vector.
	next(size, nq, np int, keepLabels bool) *step
}

// genScripter drives a workload generator and answers from the sequential
// oracle, recomputed once per batch.
type genScripter struct {
	gen  workload.Generator
	n    int
	prg  *hash.PRG
	http bool

	// live is the current edge set in an order that depends only on the
	// update stream (append on insert, swap-remove on delete), so that
	// drawing "a random live edge" is reproducible without sorting the
	// mirror for every batch.
	live []graph.Edge
	at   map[graph.Edge]int
}

func newGenScripter(gen workload.Generator, n int, seed uint64, http bool) *genScripter {
	return &genScripter{gen: gen, n: n, prg: hash.NewPRG(seed ^ 0x51c9), http: http, at: map[graph.Edge]int{}}
}

func (s *genScripter) track(b graph.Batch) {
	for _, u := range b {
		if u.Op == graph.Insert {
			s.at[u.Edge] = len(s.live)
			s.live = append(s.live, u.Edge)
			continue
		}
		i, last := s.at[u.Edge], len(s.live)-1
		s.live[i] = s.live[last]
		s.at[s.live[i]] = i
		s.live = s.live[:last]
		delete(s.at, u.Edge)
	}
}

func (s *genScripter) next(size, nq, np int, keepLabels bool) *step {
	st := &step{batch: s.gen.Next(size)}
	if len(st.batch) == 0 {
		panic(fmt.Sprintf("bench: generator stalled at %d edges", s.gen.Mirror().M()))
	}
	s.track(st.batch)
	labels := oracle.Components(s.gen.Mirror())
	if keepLabels {
		st.labels = labels
	}
	if s.http {
		st.body = encodeUpdates(st.batch)
	}
	if nq > 0 {
		comps := 0
		for v, l := range labels {
			if l == v { // oracle labels are the minimum vertex of the component
				comps++
			}
		}
		same := func(u, v int) bool { return labels[u] == labels[v] }
		for i := 0; i < nq; i++ {
			st.queries = append(st.queries, drawQuery(s.prg, s.n, np, s.live, same, comps, s.http))
		}
	}
	return st
}

// drawQuery samples np pairs the way workload.QueryMix does — half uniform,
// half endpoints of a live edge, so answers split between connected and not
// — but from a maintained edge list: QueryMix re-sorts the whole mirror for
// every query batch, which at tens of query batches per update would cost
// more than the run it prepares.
func drawQuery(prg *hash.PRG, n, np int, edges []graph.Edge, same func(u, v int) bool, comps int, http bool) query {
	q := query{pairs: make([]core.Pair, 0, np), want: make([]bool, 0, np), comps: comps}
	for len(q.pairs) < np {
		var u, v int
		if len(edges) > 0 && prg.NextN(2) == 0 {
			e := edges[prg.NextN(uint64(len(edges)))]
			u, v = e.U, e.V
		} else {
			u, v = int(prg.NextN(uint64(n))), int(prg.NextN(uint64(n)))
			if u == v {
				continue
			}
		}
		q.pairs = append(q.pairs, core.Pair{U: u, V: v})
		q.want = append(q.want, same(u, v))
	}
	if http {
		q.body = encodeQuery(q.pairs)
	}
	return q
}

func encodeUpdates(b graph.Batch) []byte {
	req := server.UpdateRequest{Updates: make([]server.WireUpdate, len(b))}
	for i, u := range b {
		op := "insert"
		if u.Op == graph.Delete {
			op = "delete"
		}
		req.Updates[i] = server.WireUpdate{Op: op, U: u.Edge.U, V: u.Edge.V, Weight: u.Weight}
	}
	return mustJSON(req)
}

func encodeQuery(pairs []core.Pair) []byte {
	req := server.QueryRequest{Pairs: make([][2]int, len(pairs))}
	for i, p := range pairs {
		req.Pairs[i] = [2]int{p.U, p.V}
	}
	return mustJSON(req)
}

func mustJSON(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// edgeScripter is the script of the file workload. The benchmark writes the
// edge list itself, so it knows — without reading the converter's output —
// which batches a correct convert + decode must yield: the distinct,
// non-loop edges in line order, cut every batchSize.
type edgeScripter struct {
	n     int
	edges []graph.Edge // distinct non-loop edges in first-appearance order
	pos   int
	uf    *oracle.UnionFind
	prg   *hash.PRG
}

// newEdgeList writes a genedges-style clustered, timestamped edge list of
// the given number of lines (4 clusters, 6 % repeated lines, 2 % self-loops)
// and returns it with the scripter that predicts its conversion.
func newEdgeList(n, lines int, seed uint64) ([]byte, *edgeScripter) {
	const clusters, dupPerMille, selfPerMille = 4, 60, 20
	prg := hash.NewPRG(seed)
	csize := (n + clusters - 1) / clusters
	randIn := func(c int) int {
		lo, hi := c*csize, c*csize+csize
		if hi > n {
			hi = n
		}
		return lo + int(prg.NextN(uint64(hi-lo)))
	}
	var text bytes.Buffer
	text.Grow(lines * 18)
	fmt.Fprintf(&text, "# bench edge list: n=%d lines=%d seed=%d\n", n, lines, seed)
	s := &edgeScripter{n: n, uf: oracle.NewUnionFind(n), prg: hash.NewPRG(seed ^ 0x51c9)}
	seen := make(map[graph.Edge]bool, lines)
	var emitted []graph.Edge // every non-loop line so far, the pool repeats draw from
	var t int64
	for i := 0; i < lines; i++ {
		t += int64(prg.NextN(3))
		roll := int(prg.NextN(1000))
		var u, v int
		switch {
		case roll < dupPerMille && len(emitted) > 0:
			e := emitted[prg.NextN(uint64(len(emitted)))]
			u, v = e.U, e.V
		case roll < dupPerMille+selfPerMille:
			u = int(prg.NextN(uint64(n)))
			v = u
		default:
			c := int(prg.NextN(clusters))
			u = randIn(c)
			for v = u; v == u; {
				if prg.NextN(10) < 8 {
					v = randIn(c)
				} else {
					v = int(prg.NextN(uint64(n)))
				}
			}
			emitted = append(emitted, graph.Edge{U: u, V: v})
		}
		fmt.Fprintf(&text, "%d %d %d\n", u, v, t)
		if u != v {
			if e := graph.NewEdge(u, v); !seen[e] {
				seen[e] = true
				s.edges = append(s.edges, e)
			}
		}
	}
	return text.Bytes(), s
}

func (s *edgeScripter) batches(size int) int { return (len(s.edges) + size - 1) / size }

func (s *edgeScripter) next(size, nq, np int, keepLabels bool) *step {
	end := s.pos + size
	if end > len(s.edges) {
		end = len(s.edges)
	}
	if s.pos == end {
		panic("bench: edge script exhausted")
	}
	st := &step{}
	for _, e := range s.edges[s.pos:end] {
		st.batch = append(st.batch, graph.Update{Op: graph.Insert, Edge: e})
		s.uf.Union(e.U, e.V)
	}
	s.pos = end
	if keepLabels {
		st.labels = make([]int, s.n)
		for v := range st.labels {
			st.labels[v] = s.uf.Find(v)
		}
	}
	same := func(u, v int) bool { return s.uf.Find(u) == s.uf.Find(v) }
	for i := 0; i < nq; i++ {
		st.queries = append(st.queries, drawQuery(s.prg, s.n, np, s.edges[:end], same, s.uf.Sets(), false))
	}
	return st
}
