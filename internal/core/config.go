// Package core implements the paper's primary contribution: maintaining
// connectivity and a spanning forest of a dynamically evolving graph on an
// MPC with strongly sublinear local memory and Õ(n) total memory, processing
// batches of Õ(n^φ) edge insertions and deletions in O(1/φ) rounds
// (Theorem 1.1 / Theorem 6.7).
//
// The package has two layers:
//
//   - Forest is the distributed Euler-tour spanning-forest engine: it owns
//     the MPC cluster, the vertex shards (component ids) and the edge shards
//     (tree-edge records with dart positions), and executes batched Link,
//     Cut, component lookups, occurrence-stats queries and Identify-Path.
//     It contains no randomness and no sketches; the exact-MSF algorithm of
//     Section 7.1 runs directly on it.
//
//   - DynamicConnectivity adds the AGM vertex sketches (one stack of
//     O(log n) ℓ0-samplers per vertex, sharded with the vertices) and the
//     replacement-edge search of Section 6.3, yielding the full dynamic
//     connectivity algorithm. The search merges and queries the sketches of
//     every fragment a Cut produced except the largest of each split tour,
//     which Cut names from the split plan and which stays passive. It is
//     shipped a window of the sketch copies at a time, and every supernode
//     reads through them behind its own cursor: never a copy that it, or a
//     supernode merged into it, has read. Its counters are read with
//     SearchStats.
//
// Rounds are counted the way package mpc states them — a round is a hop, a
// collective lands its last delivery — so at a shape whose trees have depth 1
// an Ask costs 2, a Tell 1 and a Scatter 1: a cold-cache insert batch without
// a Link is 3 rounds, a Cut of tree edges 10, a Link 6 to 10.
// TestRoundBudgetPerOperation pins the budget of every step of the update
// path, TestLedgerPinned the totals of three replayed streams.
//
// Both layers checkpoint in full (snapshot.go, reshard.go: every shard, every
// arena, one loader for any source fleet shape). Only DynamicConnectivity has
// delta checkpoints, and its delta is the batches, not the bytes they
// dirtied: ApplyBatch journals what it received (a snapshot.Journal, at most
// one update per vertex), a delta ships the journal, and a restore replays it
// through ApplyBatch — exact because all randomness is seed-fixed and the
// apply path deterministic. Nothing on the apply path marks anything dirty.
package core

import (
	"fmt"
	"math"
)

// Config parameterizes a Forest or DynamicConnectivity instance.
type Config struct {
	// N is the number of vertices (fixed for the lifetime of the instance,
	// per Section 1.2).
	N int
	// Phi is the local-memory exponent: each machine holds about N^Phi
	// vertices' worth of state. Must be in (0, 1].
	Phi float64
	// SketchCopies overrides the number t of independent sketch copies per
	// vertex (0 = 2*ceil(log2 N) + 8, enough for the Borůvka replacement
	// search to succeed with high probability).
	SketchCopies int
	// Seed drives all algorithm randomness (sketch hash functions).
	Seed uint64
	// Strict makes the underlying cluster panic on any memory or
	// communication cap violation.
	Strict bool
	// VerticesPerMachine overrides the derived ceil(N^Phi) when positive;
	// tests use it to force specific cluster shapes.
	VerticesPerMachine int
	// Parallelism is passed through to the MPC cluster's execution engine
	// (see mpc.Config.Parallelism): 0 or 1 simulates rounds sequentially,
	// k > 1 fans each round out over k worker goroutines, negative uses
	// runtime.NumCPU(). Results and Stats are identical at every setting.
	Parallelism int
}

// normalize validates and fills derived fields.
func (c *Config) normalize() error {
	if c.N < 2 {
		return fmt.Errorf("core: N = %d", c.N)
	}
	if c.Phi <= 0 || c.Phi > 1 {
		return fmt.Errorf("core: Phi = %v", c.Phi)
	}
	return nil
}

// verticesPerMachine returns ceil(N^Phi), the machine capacity in vertex
// bundles. A vertex bundle is one vertex's full state: its component id plus
// (for DynamicConnectivity) its sketch stack; expressing s in bundles keeps
// the n^φ scaling visible while absorbing the polylog bundle size, mirroring
// the paper's Õ(·) accounting.
func (c Config) verticesPerMachine() int {
	if c.VerticesPerMachine > 0 {
		return c.VerticesPerMachine
	}
	v := int(math.Ceil(math.Pow(float64(c.N), c.Phi)))
	if v < 2 {
		v = 2
	}
	return v
}

// machines returns the number of MPC machines: enough for every vertex
// bundle plus slack for edge records and coordinator working sets.
func (c Config) machines() int {
	vpm := c.verticesPerMachine()
	m := (c.N + vpm - 1) / vpm
	// One extra machine of slack keeps the coordinator's transient working
	// set (batch edges, fragment sketches) from competing with a full
	// vertex shard.
	return m + 1
}

// defaultSketchCopies returns t = 2*ceil(log2 N) + 8.
func (c Config) defaultSketchCopies() int {
	if c.SketchCopies > 0 {
		return c.SketchCopies
	}
	return 2*ceilLog2(c.N) + 8
}

// MaxBatch returns the largest update batch the instance accepts: half a
// machine's vertex-bundle capacity, so that one batch's working set
// (edges, terminals, fragment sketches) fits on the coordinator. This is
// the Õ(n^φ) batch bound of Theorem 1.1.
func (c Config) MaxBatch() int {
	b := c.verticesPerMachine() / 2
	if b < 1 {
		b = 1
	}
	return b
}

func ceilLog2(n int) int {
	l := 0
	for v := 1; v < n; v *= 2 {
		l++
	}
	return l
}
