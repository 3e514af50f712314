package matching

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/mpc"
)

// aklyInstance is the AKLY sparsifier for one guess OPT' of the maximum
// matching size (the meta-algorithm of Theorem 8.2 runs Θ(log n) of these).
type aklyInstance struct {
	n      int
	beta   int
	hSide  *hash.Family
	hGroup *hash.Family
	sp     *sparsifier
}

func newAKLYInstance(cfg core.Config, optGuess int, alpha float64, prg *hash.PRG) (*aklyInstance, error) {
	beta := int(float64(optGuess)/alpha) + 1
	gamma := int(float64(optGuess)/(alpha*alpha)) + 1
	inst := &aklyInstance{
		n:      cfg.N,
		beta:   beta,
		hSide:  hash.NewPairwise(prg),
		hGroup: hash.NewPairwise(prg),
	}
	// Active pairs: gamma independent uniform R-groups per L-group, with
	// replacement (Section 8.1's pre-processing).
	seen := map[pairKey]bool{}
	var pairs []pairKey
	for i := 0; i < beta; i++ {
		for g := 0; g < gamma; g++ {
			p := pairKey{i: i, j: int(prg.NextN(uint64(beta)))}
			if !seen[p] {
				seen[p] = true
				pairs = append(pairs, p)
			}
		}
	}
	sp, err := newSparsifier(cfg, pairs, inst.pairOf, prg)
	if err != nil {
		return nil, err
	}
	inst.sp = sp
	return inst, nil
}

// side returns 0 (L) or 1 (R) for a vertex, from a pairwise-independent
// random bipartition (the paper's reduction to bipartite matching).
func (a *aklyInstance) side(v int) int { return int(a.hSide.HashRange(uint64(v), 2)) }

// group returns the vertex's group index in [beta].
func (a *aklyInstance) group(v int) int { return int(a.hGroup.HashRange(uint64(v), uint64(a.beta))) }

// pairOf classifies an edge into its (L-group, R-group) pair; edges with
// both endpoints on one side are dropped (a constant-factor loss).
func (a *aklyInstance) pairOf(e graph.Edge) (pairKey, bool) {
	su, sv := a.side(e.U), a.side(e.V)
	if su == sv {
		return pairKey{}, false
	}
	l, r := e.U, e.V
	if su == 1 {
		l, r = e.V, e.U
	}
	return pairKey{i: a.group(l), j: a.group(r)}, true
}

// AKLYDynamic maintains an O(α)-approximate maximum matching under fully
// dynamic streams with Õ(max{n²/α³, n/α}) total memory (Theorem 8.2). It
// runs one sparsifier instance per guess of the maximum matching size and
// reports the best matching across instances.
type AKLYDynamic struct {
	n         int
	alpha     float64
	instances []*aklyInstance
}

// NewAKLYDynamic builds Θ(log n) guess instances on n = cfg.N vertices from
// cfg.Seed. The embedded maximal matchers are placed at the shape cfg; the
// sparsifiers' fleet is fixed.
func NewAKLYDynamic(cfg core.Config, alpha float64) (*AKLYDynamic, error) {
	n := cfg.N
	if n < 4 {
		return nil, fmt.Errorf("matching: n = %d", n)
	}
	if alpha <= 1 {
		return nil, fmt.Errorf("matching: alpha = %v", alpha)
	}
	prg := hash.NewPRG(cfg.Seed)
	d := &AKLYDynamic{n: n, alpha: alpha}
	for guess := n / 2; guess >= 1; guess /= 2 {
		inst, err := newAKLYInstance(cfg, guess, alpha, prg.Fork())
		if err != nil {
			return nil, err
		}
		d.instances = append(d.instances, inst)
	}
	return d, nil
}

// Instances returns the number of guess instances.
func (d *AKLYDynamic) Instances() int { return len(d.instances) }

// ApplyBatch forwards the batch to every instance (side by side in a real
// MPC; sequential in the simulator).
func (d *AKLYDynamic) ApplyBatch(b graph.Batch) error {
	for i, inst := range d.instances {
		if err := inst.sp.applyBatch(b); err != nil {
			return fmt.Errorf("matching: instance %d: %w", i, err)
		}
	}
	return nil
}

// Matching returns the largest maximal matching found across instances: a
// matching of the sparsified graph H — hence of G — whose size is an O(α)
// approximation of the maximum matching w.h.p. (Lemma 8.3).
func (d *AKLYDynamic) Matching() []graph.Edge {
	var best []graph.Edge
	for _, inst := range d.instances {
		if m := inst.sp.matcher.Matching(); len(m) > len(best) {
			best = m
		}
	}
	sort.Slice(best, func(i, j int) bool {
		if best[i].U != best[j].U {
			return best[i].U < best[j].U
		}
		return best[i].V < best[j].V
	})
	return best
}

// Size returns the best matching size across instances.
func (d *AKLYDynamic) Size() int {
	best := 0
	for _, inst := range d.instances {
		if s := inst.sp.matcher.Size(); s > best {
			best = s
		}
	}
	return best
}

// Clusters returns every cluster the structure runs on: per guess instance,
// its sampler fleet and then its maximal matcher's.
func (d *AKLYDynamic) Clusters() []*mpc.Cluster {
	out := make([]*mpc.Cluster, 0, 2*len(d.instances))
	for _, inst := range d.instances {
		out = append(out, inst.sp.cl, inst.sp.matcher.Cluster())
	}
	return out
}

// SparsifierWords reports the peak sampler memory across instances, the
// Õ(max{n²/α³, n/α}) bound of Theorem 8.2.
func (d *AKLYDynamic) SparsifierWords() int {
	total := 0
	for _, inst := range d.instances {
		total += inst.sp.peakWords()
	}
	return total
}
