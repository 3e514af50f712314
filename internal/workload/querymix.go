package workload

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/oracle"
)

// QueryMix turns any update generator into a read/write-mix workload: the
// update stream passes through unchanged, and NextQueries draws seeded
// vertex-pair query batches between them. The query stream is its own PRG,
// independent of the update stream and of algorithm state (the oblivious-
// adversary model covers reads as well as writes), so adding or removing
// queries never perturbs the recorded update trace.
//
// Queries are biased toward "interesting" answers: half the pairs are
// drawn uniformly, half are drawn from the mirror's current edges (whose
// endpoints are trivially connected), giving the connected/disconnected
// split real workloads show instead of the almost-always-disconnected
// answers of uniform sampling on sparse graphs.
type QueryMix struct {
	gen  Generator
	n    int
	seed uint64
	prg  *hash.PRG
}

// NewQueryMix wraps gen (over n vertices) with a query stream drawn from
// seed.
func NewQueryMix(gen Generator, n int, seed uint64) *QueryMix {
	if n < 2 {
		panic(fmt.Sprintf("workload: QueryMix over n = %d", n))
	}
	return &QueryMix{gen: gen, n: n, seed: seed ^ 0x51c9, prg: hash.NewPRG(seed ^ 0x51c9)}
}

// Next forwards to the wrapped update generator.
func (q *QueryMix) Next(size int) graph.Batch { return q.gen.Next(size) }

// Mirror forwards to the wrapped update generator.
func (q *QueryMix) Mirror() *graph.Graph { return q.gen.Mirror() }

// NextQueries emits the next batch of k query pairs against the current
// mirror state.
func (q *QueryMix) NextQueries(k int) [][2]int {
	return q.drawQueries(q.prg, k)
}

// NextQueriesFrom draws a batch of k query pairs from an independent PRG
// derived from the mix's seed and the given salt, leaving the mix's own
// query stream untouched. Concurrent reader clients (the server soak, the
// core race tests) each pick a distinct salt and get their own
// deterministic stream against the current mirror; the caller must ensure
// the mirror is not concurrently mutated (reads under the instance read
// lock satisfy this).
func (q *QueryMix) NextQueriesFrom(salt uint64, k int) [][2]int {
	return q.drawQueries(hash.NewPRG(q.seed^(salt*0x9e3779b97f4a7c15+0x2545)), k)
}

// drawQueries samples k pairs from prg against the current mirror.
func (q *QueryMix) drawQueries(prg *hash.PRG, k int) [][2]int {
	out := make([][2]int, 0, k)
	// Edges() comes back in an order that depends on the update history;
	// sort so the sampled query stream depends only on the seed and the
	// edge set.
	edges := q.Mirror().Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	for len(out) < k {
		if len(edges) > 0 && prg.NextN(2) == 0 {
			e := edges[prg.NextN(uint64(len(edges)))]
			out = append(out, [2]int{e.U, e.V})
			continue
		}
		u := int(prg.NextN(uint64(q.n)))
		v := int(prg.NextN(uint64(q.n)))
		if u == v {
			continue
		}
		out = append(out, [2]int{u, v})
	}
	return out
}

// OracleAnswers answers a query batch against the mirror with the
// sequential oracle (one Components sweep for the whole batch), for
// differential checks of batched query engines.
func (q *QueryMix) OracleAnswers(pairs [][2]int) []bool {
	labels := oracle.Components(q.Mirror())
	out := make([]bool, len(pairs))
	for i, p := range pairs {
		out[i] = labels[p[0]] == labels[p[1]]
	}
	return out
}
