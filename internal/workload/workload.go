// Package workload generates the oblivious-adversary update streams driven
// by the experiments. Every generator is seeded and fixes its choices
// independently of the algorithms' randomness, which is exactly the
// oblivious-adversary model the paper assumes; each maintains a mirror
// reference graph so the emitted batches are always valid (no duplicate
// insertions, deletions only of present edges).
package workload

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/oracle"
)

// Churn emits batches mixing random insertions and deletions.
type Churn struct {
	n   int
	g   *graph.Graph
	prg *hash.PRG
	// InsertBias in [0,1]: probability that a touched existing edge is left
	// alone rather than deleted (higher = denser graphs).
	insertBias float64
	// MaxWeight > 0 makes the stream weighted with uniform weights in
	// [1, MaxWeight].
	maxWeight int64
}

// Config parameterizes a Churn generator.
type Config struct {
	N          int
	Seed       uint64
	InsertBias float64 // default 0.5
	MaxWeight  int64   // 0 = unweighted
}

// Validate reports whether the config can drive a generator, with a
// descriptive usage error otherwise. CLIs and servers call this before
// construction so a bad flag (n < 2, negative weight range, out-of-range
// bias) surfaces as an error message instead of a panic from deep inside a
// PRG or graph constructor.
func (cfg Config) Validate() error {
	if cfg.N < 2 {
		return fmt.Errorf("workload: generator needs at least 2 vertices, got n = %d", cfg.N)
	}
	if cfg.MaxWeight < 0 {
		return fmt.Errorf("workload: negative MaxWeight %d (use 0 for unweighted, > 0 for weights in [1, MaxWeight])", cfg.MaxWeight)
	}
	if cfg.InsertBias < 0 || cfg.InsertBias > 1 {
		return fmt.Errorf("workload: InsertBias %v outside [0, 1]", cfg.InsertBias)
	}
	return nil
}

// validateN is the construction-time guard shared by every generator: the
// scenario constructors take a bare vertex count, and a count below 2 would
// otherwise panic opaquely inside graph.New or prg.NextN.
func validateN(n int) {
	if n < 2 {
		panic(fmt.Sprintf("workload: generator needs at least 2 vertices, got n = %d", n))
	}
}

// NewChurn returns a generator over an initially empty graph. The config
// must be valid (see Config.Validate); construction panics on a bad one —
// callers handling user input validate first.
func NewChurn(cfg Config) *Churn {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	bias := cfg.InsertBias
	if bias == 0 {
		bias = 0.5
	}
	return &Churn{
		n:          cfg.N,
		g:          graph.New(cfg.N),
		prg:        hash.NewPRG(cfg.Seed),
		insertBias: bias,
		maxWeight:  cfg.MaxWeight,
	}
}

// Mirror returns the reference graph reflecting all emitted batches.
func (c *Churn) Mirror() *graph.Graph { return c.g }

// weight draws an edge weight (1 when unweighted).
func (c *Churn) weight() int64 {
	if c.maxWeight <= 1 {
		return 1
	}
	return int64(c.prg.NextN(uint64(c.maxWeight))) + 1
}

// Next emits a batch of exactly size valid updates (or fewer if the random
// walk stalls, e.g. on a complete graph with InsertBias 1).
func (c *Churn) Next(size int) graph.Batch {
	var b graph.Batch
	used := map[graph.Edge]bool{}
	for attempts := 0; len(b) < size && attempts < 50*size+200; attempts++ {
		u := int(c.prg.NextN(uint64(c.n)))
		v := int(c.prg.NextN(uint64(c.n)))
		if u == v {
			continue
		}
		e := graph.NewEdge(u, v)
		if used[e] {
			continue
		}
		if c.g.Has(e.U, e.V) {
			if float64(c.prg.NextN(1000))/1000 < c.insertBias {
				continue
			}
			used[e] = true
			w, _ := c.g.Weight(e.U, e.V)
			_ = c.g.Delete(e.U, e.V)
			b = append(b, graph.DelW(e.U, e.V, w))
		} else {
			used[e] = true
			w := c.weight()
			_ = c.g.Insert(e.U, e.V, w)
			b = append(b, graph.InsW(e.U, e.V, w))
		}
	}
	return b
}

// NextInsertOnly emits a batch of insertions only.
func (c *Churn) NextInsertOnly(size int) graph.Batch {
	var b graph.Batch
	used := map[graph.Edge]bool{}
	for attempts := 0; len(b) < size && attempts < 50*size+200; attempts++ {
		u := int(c.prg.NextN(uint64(c.n)))
		v := int(c.prg.NextN(uint64(c.n)))
		if u == v {
			continue
		}
		e := graph.NewEdge(u, v)
		if used[e] || c.g.Has(e.U, e.V) {
			continue
		}
		used[e] = true
		w := c.weight()
		_ = c.g.Insert(e.U, e.V, w)
		b = append(b, graph.InsW(e.U, e.V, w))
	}
	return b
}

// PathStream emits the edges of a Hamiltonian path in order, batched; it is
// the worst case for sketch-free component merging and for AGM query depth.
func PathStream(n, batch int) []graph.Batch {
	var out []graph.Batch
	var cur graph.Batch
	for i := 0; i+1 < n; i++ {
		cur = append(cur, graph.Ins(i, i+1))
		if len(cur) == batch {
			out = append(out, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// Bipartiteish emits a stream over a bipartite backbone (edges between even
// and odd vertices) with odd-cycle-closing violations injected at the given
// step indices.
type Bipartiteish struct {
	n       int
	g       *graph.Graph
	prg     *hash.PRG
	violate map[int]bool
	step    int
}

// NewBipartiteish returns the generator; violateAt lists the Next calls
// (0-based) that inject a same-parity edge.
func NewBipartiteish(n int, seed uint64, violateAt ...int) *Bipartiteish {
	validateN(n)
	v := map[int]bool{}
	for _, s := range violateAt {
		v[s] = true
	}
	return &Bipartiteish{n: n, g: graph.New(n), prg: hash.NewPRG(seed), violate: v}
}

// Mirror returns the reference graph.
func (b *Bipartiteish) Mirror() *graph.Graph { return b.g }

// Next emits one batch of the stream. A violation step ends its batch with
// a same-parity edge between two already-connected vertices, which closes a
// genuine odd cycle over the even/odd backbone.
func (b *Bipartiteish) Next(size int) graph.Batch {
	defer func() { b.step++ }()
	var out graph.Batch
	wantViolation := b.violate[b.step]
	budget := size
	if wantViolation {
		budget--
	}
	for attempts := 0; len(out) < budget && attempts < 50*size+200; attempts++ {
		u := int(b.prg.NextN(uint64(b.n)))
		v := int(b.prg.NextN(uint64(b.n)))
		if u == v || (u^v)&1 == 0 {
			continue
		}
		e := graph.NewEdge(u, v)
		if b.g.Has(e.U, e.V) {
			continue
		}
		_ = b.g.Insert(e.U, e.V, 0)
		out = append(out, graph.Ins(e.U, e.V))
	}
	if wantViolation {
		labels := oracle.Components(b.g)
		if e, ok := b.samePairConnected(labels); ok {
			_ = b.g.Insert(e.U, e.V, 0)
			out = append(out, graph.Ins(e.U, e.V))
		}
	}
	return out
}

// samePairConnected finds two connected vertices of equal parity with no
// edge between them.
func (b *Bipartiteish) samePairConnected(labels []int) (graph.Edge, bool) {
	for attempts := 0; attempts < 40*b.n; attempts++ {
		u := int(b.prg.NextN(uint64(b.n)))
		v := int(b.prg.NextN(uint64(b.n)))
		if u == v || (u^v)&1 != 0 || labels[u] != labels[v] || b.g.Has(u, v) {
			continue
		}
		return graph.NewEdge(u, v), true
	}
	return graph.Edge{}, false
}
