package matching

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hash"
)

// InsertOnlySizeEstimator maintains an O(α)-approximation of the maximum
// matching size under insertion-only streams in Õ(n/α²) memory
// (Theorem 8.5, after Assadi–Khanna–Li). It combines two regimes:
//
//   - a greedy matching on the full graph capped at K = c·n/α², which is
//     maximal (hence a 2-approximation) while the optimum is below K;
//   - a greedy maximal matching on the subgraph induced by sampling each
//     vertex with probability 1/α, whose size scaled by 2α² estimates large
//     optima.
type InsertOnlySizeEstimator struct {
	n       int
	alpha   float64
	full    *GreedyInsertOnly
	sampled *GreedyInsertOnly
	hSample *hash.Family
	aInt    int
}

// NewInsertOnlySizeEstimator creates the estimator on n = cfg.N vertices
// from cfg.Seed; both greedy structures are placed at the shape cfg.
// alpha > 1.
func NewInsertOnlySizeEstimator(cfg core.Config, alpha float64) (*InsertOnlySizeEstimator, error) {
	if alpha <= 1 {
		return nil, fmt.Errorf("matching: alpha = %v", alpha)
	}
	// Both greedy structures are capped at Θ(n/α²); NewGreedyInsertOnly
	// caps at 2n/a, so pass a = α²/2 clamped to > 1.
	capAlpha := alpha * alpha / 2
	if capAlpha <= 1 {
		capAlpha = 1.01
	}
	full, err := NewGreedyInsertOnly(cfg, capAlpha)
	if err != nil {
		return nil, err
	}
	sampled, err := NewGreedyInsertOnly(cfg, capAlpha)
	if err != nil {
		return nil, err
	}
	aInt := int(alpha + 0.5)
	if aInt < 2 {
		aInt = 2
	}
	return &InsertOnlySizeEstimator{
		n:       cfg.N,
		alpha:   alpha,
		full:    full,
		sampled: sampled,
		hSample: hash.NewPairwise(hash.NewPRG(cfg.Seed)),
		aInt:    aInt,
	}, nil
}

// sampledVertex reports whether v survives the 1/α vertex sampling.
func (s *InsertOnlySizeEstimator) sampledVertex(v int) bool {
	return s.hSample.HashRange(uint64(v), uint64(s.aInt)) == 0
}

// InsertBatch feeds the batch to both regimes.
func (s *InsertOnlySizeEstimator) InsertBatch(edges []graph.Edge) error {
	if err := s.full.InsertBatch(edges); err != nil {
		return err
	}
	var induced []graph.Edge
	for _, e := range edges {
		if s.sampledVertex(e.U) && s.sampledVertex(e.V) {
			induced = append(induced, e)
		}
	}
	return s.sampled.InsertBatch(induced)
}

// Estimate returns the O(α)-approximate maximum matching size.
func (s *InsertOnlySizeEstimator) Estimate() int {
	if s.full.Size() < s.full.Cap() {
		// The full greedy matching is maximal: 2|M| bounds the optimum.
		return 2 * s.full.Size()
	}
	est := 2 * s.full.Size() // at least the saturated cap
	if scaled := 2 * s.aInt * s.aInt * s.sampled.Size(); scaled > est {
		est = scaled
	}
	if est > s.n/2 {
		est = s.n / 2
	}
	return est
}

// DynamicSizeEstimator maintains an O(α)-approximation of the maximum
// matching size under fully dynamic streams in Õ(n²/α⁴) memory
// (Theorem 8.6). It runs the Tester(G, k) meta-algorithm: for each guess k
// (powers of two), vertices are hashed into Θ(k) groups, one ℓ0-sampler
// is kept per group pair, and a maximal matching is maintained on the
// recovered subgraph H_k through the batch-dynamic matcher. Testers run on
// the full graph (small optima) and on a 1/α vertex-sampled subgraph
// (large optima, rescaled by α²).
type DynamicSizeEstimator struct {
	n       int
	alpha   float64
	aInt    int
	hSample *hash.Family
	full    []*tester
	sampled []*tester
}

// tester is one Tester(·, k) instance.
type tester struct {
	k      int
	groups int
	hGroup *hash.Family
	sp     *sparsifier
	// induced filters edges to the sampled subgraph (nil for full-graph
	// testers).
	induced func(graph.Edge) bool
}

func newTester(cfg core.Config, k int, induced func(graph.Edge) bool, prg *hash.PRG) (*tester, error) {
	groups := 3 * k
	t := &tester{k: k, groups: groups, hGroup: hash.NewPairwise(prg), induced: induced}
	var pairs []pairKey
	for i := 0; i < groups; i++ {
		for j := i; j < groups; j++ {
			pairs = append(pairs, pairKey{i: i, j: j})
		}
	}
	sp, err := newSparsifier(cfg, pairs, t.classify, prg)
	if err != nil {
		return nil, err
	}
	t.sp = sp
	return t, nil
}

// classify maps an edge to its unordered group pair.
func (t *tester) classify(e graph.Edge) (pairKey, bool) {
	if t.induced != nil && !t.induced(e) {
		return pairKey{}, false
	}
	gi := int(t.hGroup.HashRange(uint64(e.U), uint64(t.groups)))
	gj := int(t.hGroup.HashRange(uint64(e.V), uint64(t.groups)))
	if gi > gj {
		gi, gj = gj, gi
	}
	return pairKey{i: gi, j: gj}, true
}

// NewDynamicSizeEstimator creates the estimator on n = cfg.N vertices from
// cfg.Seed; every tester's maximal matcher is placed at the shape cfg.
// alpha > 1. maxGuess caps the largest tester (default n/4 when 0), letting
// experiments bound the Θ(k²) sampler space.
func NewDynamicSizeEstimator(cfg core.Config, alpha float64, maxGuess int) (*DynamicSizeEstimator, error) {
	n := cfg.N
	if alpha <= 1 {
		return nil, fmt.Errorf("matching: alpha = %v", alpha)
	}
	if maxGuess == 0 {
		maxGuess = n / 4
	}
	prg := hash.NewPRG(cfg.Seed)
	aInt := int(alpha + 0.5)
	if aInt < 2 {
		aInt = 2
	}
	d := &DynamicSizeEstimator{n: n, alpha: alpha, aInt: aInt, hSample: hash.NewPairwise(prg)}
	induced := func(e graph.Edge) bool {
		return d.hSample.HashRange(uint64(e.U), uint64(d.aInt)) == 0 &&
			d.hSample.HashRange(uint64(e.V), uint64(d.aInt)) == 0
	}
	for k := 1; k <= maxGuess; k *= 2 {
		ft, err := newTester(cfg, k, nil, prg.Fork())
		if err != nil {
			return nil, err
		}
		d.full = append(d.full, ft)
		st, err := newTester(cfg, k, induced, prg.Fork())
		if err != nil {
			return nil, err
		}
		d.sampled = append(d.sampled, st)
	}
	return d, nil
}

// Testers returns the number of tester instances (both regimes).
func (d *DynamicSizeEstimator) Testers() int { return len(d.full) + len(d.sampled) }

// ApplyBatch forwards the batch to every tester.
func (d *DynamicSizeEstimator) ApplyBatch(b graph.Batch) error {
	for _, t := range d.full {
		if err := t.sp.applyBatch(b); err != nil {
			return fmt.Errorf("matching: tester k=%d: %w", t.k, err)
		}
	}
	for _, t := range d.sampled {
		if err := t.sp.applyBatch(b); err != nil {
			return fmt.Errorf("matching: sampled tester k=%d: %w", t.k, err)
		}
	}
	return nil
}

// Estimate returns the O(α)-approximate maximum matching size: the best
// maximal-matching size over the full-graph testers, against the rescaled
// best over the sampled testers.
func (d *DynamicSizeEstimator) Estimate() int {
	best := 0
	for _, t := range d.full {
		if s := t.sp.matcher.Size(); s > best {
			best = s
		}
	}
	est := 2 * best
	bestS := 0
	for _, t := range d.sampled {
		if s := t.sp.matcher.Size(); s > bestS {
			bestS = s
		}
	}
	if scaled := 2 * d.aInt * d.aInt * bestS; scaled > est && best >= d.full[len(d.full)-1].k/2 {
		// Trust the rescaled sampled estimate only when the full testers
		// are saturated near their largest guess.
		est = scaled
	}
	if est > d.n/2 {
		est = d.n / 2
	}
	return est
}

// SamplerWords reports the peak sampler memory across testers, the
// Õ(n²/α⁴) bound of Theorem 8.6.
func (d *DynamicSizeEstimator) SamplerWords() int {
	total := 0
	for _, t := range d.full {
		total += t.sp.peakWords()
	}
	for _, t := range d.sampled {
		total += t.sp.peakWords()
	}
	return total
}
