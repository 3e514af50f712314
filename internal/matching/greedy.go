// Package matching implements the approximate maximum-matching algorithms
// of Section 8:
//
//   - GreedyInsertOnly (Theorem 8.1): an O(α)-approximate matching under
//     insertion-only streams in Õ(n/α) total memory — a greedily maintained
//     matching capped at c·n/α.
//   - AKLYDynamic (Theorem 8.2): an O(α)-approximate matching under fully
//     dynamic streams in Õ(max{n²/α³, n/α}) total memory — the
//     Assadi–Khanna–Li–Yaroslavtsev sparsifier (hashed vertex groups,
//     active group pairs, one ℓ0-sampler per active pair) feeding a
//     batch-dynamic maximal matching (package nowickionak).
//   - InsertOnlySizeEstimator (Theorem 8.5) and DynamicSizeEstimator
//     (Theorem 8.6): O(α)-approximations of the maximum matching size in
//     Õ(n/α²) and Õ(n²/α⁴) memory, following the Tester meta-algorithm of
//     Assadi–Khanna–Li.
package matching

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/mpc"
)

// slotShard is the store slot of a machine's shard.
const slotShard = "m"

// greedyShard holds match pointers for one machine's vertex range.
type greedyShard struct {
	lo, hi int
	match  []int
}

// Words implements mpc.Sized.
func (s *greedyShard) Words() int { return s.hi - s.lo + 2 }

// GreedyInsertOnly maintains a matching that is either maximal or of size
// at least cap = ceil(2n/α); in both cases it is an O(α)-approximate
// maximum matching (Theorem 8.1). Each batch costs O(1) collective rounds.
type GreedyInsertOnly struct {
	n     int
	cap   int
	cl    *mpc.Cluster
	part  mpc.Partition
	coord int
	size  int // coordinator-local counter
}

// NewGreedyInsertOnly creates the structure for an empty graph; alpha > 1.
func NewGreedyInsertOnly(n int, alpha float64, verticesPerMachine int) (*GreedyInsertOnly, error) {
	if n < 2 {
		return nil, fmt.Errorf("matching: n = %d", n)
	}
	if alpha <= 1 {
		return nil, fmt.Errorf("matching: alpha = %v", alpha)
	}
	vpm := verticesPerMachine
	if vpm == 0 {
		vpm = 64
	}
	m := (n+vpm-1)/vpm + 1
	capSize := int(2*float64(n)/alpha) + 1
	g := &GreedyInsertOnly{
		n:     n,
		cap:   capSize,
		cl:    mpc.NewCluster(mpc.Config{Machines: m, LocalMemory: vpm * 16}),
		part:  mpc.Partition{N: n, Machines: m - 1},
		coord: m - 1,
	}
	g.cl.LocalAll(func(mm *mpc.Machine) {
		if mm.ID == g.coord {
			return
		}
		lo, hi := g.part.Range(mm.ID)
		sh := &greedyShard{lo: lo, hi: hi, match: make([]int, hi-lo)}
		for i := range sh.match {
			sh.match[i] = -1
		}
		mm.Set(slotShard, sh)
	})
	return g, nil
}

// Cluster exposes the cluster for metering.
func (g *GreedyInsertOnly) Cluster() *mpc.Cluster { return g.cl }

// Cap returns the matching-size cap c·n/α.
func (g *GreedyInsertOnly) Cap() int { return g.cap }

// edgesPayload carries a batch of edges.
type edgesPayload struct{ edges []graph.Edge }

func (p edgesPayload) Words() int { return 2 * len(p.edges) }

// InsertBatch processes a batch of insertions: if the matching is already
// at its cap nothing happens; otherwise the endpoints' match status is
// asked for, the coordinator extends the matching greedily, and the
// changes are scattered back. O(1) collective rounds.
func (g *GreedyInsertOnly) InsertBatch(edges []graph.Edge) error {
	if g.size >= g.cap || len(edges) == 0 {
		return nil
	}
	status := g.queryStatus(edges)
	var newMatches []graph.Edge
	for _, e := range edges {
		if g.size+len(newMatches) >= g.cap {
			break
		}
		c := e.Canonical()
		if status[c.U] == -1 && status[c.V] == -1 {
			newMatches = append(newMatches, c)
			status[c.U], status[c.V] = c.V, c.U
		}
	}
	if len(newMatches) == 0 {
		return nil
	}
	g.size += len(newMatches)
	nm := newMatches
	g.cl.Scatter(g.coord,
		func(mm *mpc.Machine) []mpc.Message {
			byOwner := map[int][]graph.Edge{}
			for _, e := range nm {
				byOwner[g.part.Owner(e.U)] = append(byOwner[g.part.Owner(e.U)], e)
				if g.part.Owner(e.V) != g.part.Owner(e.U) {
					byOwner[g.part.Owner(e.V)] = append(byOwner[g.part.Owner(e.V)], e)
				}
			}
			var out []mpc.Message
			for owner, es := range byOwner {
				out = append(out, mpc.Message{To: owner, Payload: edgesPayload{edges: es}})
			}
			return out
		},
		func(mm *mpc.Machine, msg mpc.Message) {
			sh := mm.Get(slotShard).(*greedyShard)
			for _, e := range msg.Payload.(edgesPayload).edges {
				if e.U >= sh.lo && e.U < sh.hi {
					sh.match[e.U-sh.lo] = e.V
				}
				if e.V >= sh.lo && e.V < sh.hi {
					sh.match[e.V-sh.lo] = e.U
				}
			}
		},
	)
	return nil
}

// queryStatus asks for the match status of the edges' endpoints, answered
// in [vertex, match] frames (each vertex owned by exactly one machine, so
// the sorted merge-join never combines).
func (g *GreedyInsertOnly) queryStatus(edges []graph.Edge) map[int]int {
	res := g.cl.Ask(g.coord, edgesPayload{edges: edges},
		func(mm *mpc.Machine, payload mpc.Sized) *mpc.MessageBatch {
			sh, ok := mm.Get(slotShard).(*greedyShard)
			if !ok {
				return nil
			}
			var owned []int
			for _, e := range payload.(edgesPayload).edges {
				for _, v := range [2]int{e.U, e.V} {
					if v >= sh.lo && v < sh.hi {
						owned = append(owned, v)
					}
				}
			}
			sort.Ints(owned)
			b := mpc.AcquireMessageBatch()
			for i, v := range owned {
				if i > 0 && owned[i-1] == v {
					continue
				}
				b.Append(uint64(v), uint64(int64(sh.match[v-sh.lo])))
			}
			return b
		}, mpc.KeepFirst)
	out := map[int]int{}
	if res != nil {
		for f := range res.Frames {
			out[int(f[0])] = int(int64(f[1]))
		}
		res.Release()
	}
	return out
}

// Size returns the current matching size (coordinator-local).
func (g *GreedyInsertOnly) Size() int { return g.size }

// Matching reads out the matching (driver-level readout). Per-machine
// buckets keep the readout within the mpc.StepFunc concurrency contract
// (a shared append would race under a parallel executor).
func (g *GreedyInsertOnly) Matching() []graph.Edge {
	buckets := make([][]graph.Edge, g.cl.Machines())
	g.cl.LocalAll(func(mm *mpc.Machine) {
		sh, ok := mm.Get(slotShard).(*greedyShard)
		if !ok {
			return
		}
		for i, p := range sh.match {
			v := sh.lo + i
			if p > v {
				buckets[mm.ID] = append(buckets[mm.ID], graph.Edge{U: v, V: p})
			}
		}
	})
	var out []graph.Edge
	for _, b := range buckets {
		out = append(out, b...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}
