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
// # Concurrency contract (single writer, many readers)
//
// The query entry points — Connected, ConnectedAll(Into), ComponentsOf(Into),
// NumComponents — may be called from any number of goroutines concurrently
// with each other and with InvalidateQueryCache. A fully cached (warm) query
// holds only the cache read lock and touches no cluster state, so warm
// readers proceed in parallel; a cache miss takes the cache write lock and
// runs its collective exclusively, which serializes concurrent misses onto
// the single-threaded MPC cluster. What the lock does NOT cover is the
// mutating surface: ApplyBatch, Link, Cut, Checkpoint and Restore drive the
// same cluster through many collectives and must never overlap any query.
// Callers that interleave updates with concurrent queries (internal/server)
// enforce this with a per-instance RWMutex: updates under the write lock,
// query batches under the read lock. query_race_test.go pins the contract
// under the race detector.
//
// Every query entry point validates its vertices up front: a vertex
// outside [0, N) — e.g. a stale QueryMix trace replayed against a smaller
// instance — fails with a diagnostic "core: query vertex out of range"
// panic instead of an index error deep inside the label cache.

import "slices"

// Pair is one connectivity query: "are U and V in the same component?".
type Pair struct{ U, V int }

// lockLabels makes the label cache cover vertices and the endpoints of
// pairs (either may be nil) and returns holding the cache lock that keeps it
// so: the read lock when everything was cached already (warm), the write
// lock after stamping the misses and running the one cache-fill collective
// otherwise. The caller reads lc.labels and then calls unlockLabels(warm).
// This is the only place a query takes the cache lock.
func (f *Forest) lockLabels(vertices []int, pairs []Pair) (warm bool) {
	for _, v := range vertices {
		f.checkQueryVertex(v)
	}
	for _, p := range pairs {
		f.checkQueryVertex(p.U)
		f.checkQueryVertex(p.V)
	}
	lc := &f.cache
	lc.mu.RLock()
	warm = true
	for _, v := range vertices {
		warm = warm && lc.stamp[v] == lc.epoch
	}
	for _, p := range pairs {
		warm = warm && lc.stamp[p.U] == lc.epoch && lc.stamp[p.V] == lc.epoch
	}
	if warm {
		return true
	}
	lc.mu.RUnlock()
	lc.mu.Lock()
	lc.miss = lc.miss[:0]
	for _, v := range vertices {
		lc.stampMiss(v)
	}
	for _, p := range pairs {
		lc.stampMiss(p.U)
		lc.stampMiss(p.V)
	}
	f.resolveMissesLocked()
	return false
}

// stampMiss stages v on the miss list unless the cache holds it already.
func (lc *labelCache) stampMiss(v int) {
	if lc.stamp[v] != lc.epoch {
		lc.stamp[v] = lc.epoch
		lc.valid++
		lc.miss = append(lc.miss, v)
	}
}

// unlockLabels releases the lock lockLabels returned with.
func (f *Forest) unlockLabels(warm bool) {
	if warm {
		f.cache.mu.RUnlock()
	} else {
		f.cache.mu.Unlock()
	}
}

// countQuery books one query batch as answered warm (a hit) or by the
// cache-fill collective (a miss).
func (f *Forest) countQuery(warm bool) {
	if warm {
		f.cache.hits.Add(1)
	} else {
		f.cache.misses.Add(1)
	}
}

// labelsInto appends the component label of every listed vertex to dst[:0],
// aligned with the input, and reports whether the cache was warm. It is the
// label lookup of the update path (Link, Cut, the replacement search), which
// is not a query batch and books no hit or miss.
func (f *Forest) labelsInto(dst []int, vertices []int) ([]int, bool) {
	warm := f.lockLabels(vertices, nil)
	dst = slices.Grow(dst[:0], len(vertices))
	for _, v := range vertices {
		dst = append(dst, f.cache.labels[v])
	}
	f.unlockLabels(warm)
	return dst, warm
}

// ComponentsOf resolves the component label of every listed vertex,
// aligned with the input. Cache misses cost one Ask for the whole batch;
// fully cached batches cost zero rounds.
func (f *Forest) ComponentsOf(vertices []int) []int {
	return f.ComponentsOfInto(nil, vertices)
}

// ComponentsOfInto is ComponentsOf appending into dst[:0] (allocation-free
// when dst has capacity). Safe for concurrent readers; see the package
// concurrency contract above.
func (f *Forest) ComponentsOfInto(dst []int, vertices []int) []int {
	dst, warm := f.labelsInto(dst, vertices)
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
// when dst has capacity). Safe for concurrent readers; see the package
// concurrency contract above.
func (f *Forest) ConnectedAllInto(dst []bool, pairs []Pair) []bool {
	warm := f.lockLabels(nil, pairs)
	labels := f.cache.labels
	dst = slices.Grow(dst[:0], len(pairs))
	for _, p := range pairs {
		dst = append(dst, labels[p.U] == labels[p.V])
	}
	f.unlockLabels(warm)
	f.countQuery(warm)
	return dst
}

// Connected answers one connectivity query (a batch of one: O(1/φ) rounds
// on a cache miss, zero rounds when both endpoints are cached).
func (f *Forest) Connected(u, v int) bool {
	pair := [1]Pair{{u, v}}
	warm := f.lockLabels(nil, pair[:])
	same := f.cache.labels[u] == f.cache.labels[v]
	f.unlockLabels(warm)
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
// warm path performs zero allocations. Safe for concurrent readers (see the
// concurrency contract at the top of this file).
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
// warm path performs zero allocations. Safe for concurrent readers (see the
// concurrency contract at the top of this file).
func (dc *DynamicConnectivity) ComponentsOfInto(dst []int, vertices []int) []int {
	return dc.f.ComponentsOfInto(dst, vertices)
}

// InvalidateQueryCache drops the coordinator label cache, forcing the next
// query batch to run its collective. Updates never need it — they keep the
// cache exact; this exists for measurement (E15 and the query benchmarks
// ablate the cache). Safe to race with concurrent readers (but not with
// updates).
func (dc *DynamicConnectivity) InvalidateQueryCache() { dc.f.InvalidateCache() }

// QueryCacheStats reports how many query batches were answered entirely
// from the label cache (zero rounds) and how many ran a cache-fill
// collective. Safe to call concurrently with queries; the serving layer
// exports the pair as its cache-hit-rate metric.
func (dc *DynamicConnectivity) QueryCacheStats() (hits, misses uint64) {
	return dc.f.QueryCacheStats()
}
