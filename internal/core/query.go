package core

// The batched query engine. PR 3 made the update path allocation-free; this
// file is the query-path counterpart: N point queries become one Ask
// (O(1/φ) rounds total instead of N collectives), and the coordinator label
// cache answers every cached vertex with zero MPC rounds. Updates keep the
// cache exact instead of dropping it (labelCache in forest.go), so a query
// batch after an update is warm for every vertex it asked about before. The
// Into variants write into caller-provided buffers, so a warm steady-state
// query performs zero allocations (see the AllocsPerRun gates in
// query_test.go).
//
// A DynamicConnectivity is not safe for concurrent use: callers serialize
// every call, queries included (internal/server runs every call on one
// applier goroutine per instance).
//
// Every query entry point validates its vertices up front: a vertex
// outside [0, N) — e.g. a stale QueryMix trace replayed against a smaller
// instance — fails with a diagnostic "core: query vertex out of range"
// panic instead of an index error deep inside the label cache.

import (
	"slices"

	"repro/internal/eulertour"
)

// Pair is one connectivity query: "are U and V in the same component?".
type Pair struct{ U, V int }

// fillLabels makes the label cache cover vertices and the endpoints of pairs
// (either may be nil): it stamps the misses and resolves them with the one
// cache-fill collective, charged to phase, and reports whether there were
// none (warm). The caller then reads lc.labels.
func (f *Forest) fillLabels(phase string, vertices []int, pairs []Pair) (warm bool) {
	if f.stageLabels(vertices, pairs) {
		return true
	}
	f.ask(phase)
	return false
}

// stageLabels is fillLabels up to the Ask: when there are misses it poses
// the cache-fill question and reports false, and the caller asks.
func (f *Forest) stageLabels(vertices []int, pairs []Pair) (warm bool) {
	for _, v := range vertices {
		f.checkQueryVertex(v)
	}
	for _, p := range pairs {
		f.checkQueryVertex(p.U)
		f.checkQueryVertex(p.V)
	}
	lc := &f.cache
	lc.miss = lc.miss[:0]
	for _, v := range vertices {
		lc.stampMiss(v)
	}
	for _, p := range pairs {
		lc.stampMiss(p.U)
		lc.stampMiss(p.V)
	}
	return !f.poseMisses()
}

// stampMiss stages v on the miss list unless the cache holds it already.
func (lc *labelCache) stampMiss(v int) {
	if lc.stamp[v] != lc.epoch {
		lc.stamp[v] = lc.epoch
		lc.valid++
		lc.miss = append(lc.miss, v)
	}
}

// countQuery books one query batch as answered warm (a hit) or by the
// cache-fill collective (a miss).
func (f *Forest) countQuery(warm bool) {
	if warm {
		f.cache.hits++
	} else {
		f.cache.misses++
	}
}

// labelsInto appends the component label of every listed vertex to dst[:0],
// aligned with the input, and reports whether the cache was warm. It books
// no hit or miss: the update path (a Link's label lookup) is not a query
// batch, and ComponentsOfInto books its own.
func (f *Forest) labelsInto(phase string, dst []int, vertices []int) ([]int, bool) {
	warm := f.fillLabels(phase, vertices, nil)
	return f.appendLabels(dst, vertices), warm
}

// labelsAndStats is labelsInto for a replacement search's level lookup:
// when the lookup sends its Ask, the same Ask asks the occurrence stats of
// vertices (statsQuestion) into stats, which the replacement Link then need
// not ask (linkFacts). A lookup the cache answers asks nothing.
func (f *Forest) labelsAndStats(dst []int, vertices []int, stats map[int]eulertour.VertexStats) []int {
	if !f.stageLabels(vertices, nil) {
		f.ask(phaseSearchLookup, statsQuestion(sortedSet(vertices), stats))
	}
	return f.appendLabels(dst, vertices)
}

// appendLabels appends the cached label of every listed vertex to dst[:0].
func (f *Forest) appendLabels(dst []int, vertices []int) []int {
	dst = slices.Grow(dst[:0], len(vertices))
	for _, v := range vertices {
		dst = append(dst, f.cache.labels[v])
	}
	return dst
}

// ComponentsOf resolves the component label of every listed vertex,
// aligned with the input. Cache misses cost one Ask for the whole batch;
// fully cached batches cost zero rounds.
func (f *Forest) ComponentsOf(vertices []int) []int {
	return f.ComponentsOfInto(nil, vertices)
}

// ComponentsOfInto is ComponentsOf appending into dst[:0] (allocation-free
// when dst has capacity).
func (f *Forest) ComponentsOfInto(dst []int, vertices []int) []int {
	dst, warm := f.labelsInto(phaseQueryLabels, dst, vertices)
	f.countQuery(warm)
	return dst
}

// ConnectedAll answers a batch of connectivity queries, aligned with the
// input: one collective for the batch's cache misses, zero rounds when
// warm.
func (f *Forest) ConnectedAll(pairs []Pair) []bool {
	return f.ConnectedAllInto(nil, pairs)
}

// ConnectedAllInto is ConnectedAll appending into dst[:0] (allocation-free
// when dst has capacity).
func (f *Forest) ConnectedAllInto(dst []bool, pairs []Pair) []bool {
	warm := f.fillLabels(phaseQueryLabels, nil, pairs)
	labels := f.cache.labels
	dst = slices.Grow(dst[:0], len(pairs))
	for _, p := range pairs {
		dst = append(dst, labels[p.U] == labels[p.V])
	}
	f.countQuery(warm)
	return dst
}

// Connected answers one connectivity query (a batch of one: O(1/φ) rounds
// on a cache miss, zero rounds when both endpoints are cached).
func (f *Forest) Connected(u, v int) bool {
	pair := [1]Pair{{u, v}}
	warm := f.fillLabels(phaseQueryLabels, nil, pair[:])
	same := f.cache.labels[u] == f.cache.labels[v]
	f.countQuery(warm)
	return same
}

// --- DynamicConnectivity surface -----------------------------------------

// ConnectedAll answers a batch of connectivity queries in one O(1/φ)-round
// collective (zero rounds when the label cache is warm), aligned with the
// input.
func (dc *DynamicConnectivity) ConnectedAll(pairs []Pair) []bool {
	return dc.f.ConnectedAll(pairs)
}

// ConnectedAllInto is ConnectedAll appending into dst[:0]; the steady-state
// warm path performs zero allocations.
func (dc *DynamicConnectivity) ConnectedAllInto(dst []bool, pairs []Pair) []bool {
	return dc.f.ConnectedAllInto(dst, pairs)
}

// ComponentsOf resolves the component labels of the listed vertices,
// aligned with the input, in one O(1/φ)-round collective (zero rounds when
// warm).
func (dc *DynamicConnectivity) ComponentsOf(vertices []int) []int {
	return dc.f.ComponentsOf(vertices)
}

// ComponentsOfInto is ComponentsOf appending into dst[:0]; the steady-state
// warm path performs zero allocations.
func (dc *DynamicConnectivity) ComponentsOfInto(dst []int, vertices []int) []int {
	return dc.f.ComponentsOfInto(dst, vertices)
}

// InvalidateQueryCache drops the coordinator label cache, forcing the next
// query batch to run its collective. Updates never need it — they keep the
// cache exact; this exists for measurement (E15 and the query benchmarks
// ablate the cache).
func (dc *DynamicConnectivity) InvalidateQueryCache() { dc.f.InvalidateCache() }

// QueryCacheStats reports how many query batches were answered entirely
// from the label cache (zero rounds) and how many ran a cache-fill
// collective. The serving layer folds the pair into its cache-hit-rate
// metrics on the goroutine that drives the state.
func (dc *DynamicConnectivity) QueryCacheStats() (hits, misses uint64) {
	return dc.f.QueryCacheStats()
}
