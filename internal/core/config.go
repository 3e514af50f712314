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
//     Cut, component lookups, occurrence-stats queries and Identify-Path,
//     asked of a set of terminals at once: the heaviest tree edge of every
//     edge of their virtual tree (Forest.HeaviestSeparating).
//     A Cut names the fragment of every vertex of a component it splits on
//     the vertex shards, but the edge shards push only the small fragments:
//     the largest fragment of each split tour, and the vertices left alone,
//     ride the Cut's relabel Tell, so a Cut's words and messages follow the
//     small sides of its cuts, not the components it cuts. It contains no
//     randomness and no sketches; the exact-MSF algorithm of Section 7.1
//     runs directly on it.
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
// a Link is 2 rounds (1 warm) and one with a warm Link 6, the sketch update
// riding the batch's first broadcast; a Cut of tree edges 7 with its labels
// warm (8 public, which sends its closing Tell itself), a Link 4 to 6 warm and
// 6 cold, a one-level replacement search 2, and a deletion batch 8 for a
// bridge and 13 when it finds a replacement. TestRoundBudgetPerOperation pins the budget
// of every step of the update path, TestLedgerPinned the totals of three
// replayed streams.
//
// Both layers checkpoint in full (snapshot.go, reshard.go: the tree edges and
// the sketch state, from which one loader for any source fleet shape derives the
// component column and the cached labels). Only DynamicConnectivity has
// delta checkpoints, and its delta is the batches, not the bytes they
// dirtied: ApplyBatch journals what it received (a snapshot.Journal, at most
// one update per vertex), a delta ships the journal, and a restore replays it
// through ApplyBatch — exact because all randomness is seed-fixed and the
// apply path deterministic. Nothing on the apply path marks anything dirty.
package core

import (
	"fmt"
	"math"

	"repro/internal/hash"
	"repro/internal/mpc"
	"repro/internal/sketch"
)

// Config is the one cluster shape of the repository: a Forest, a
// DynamicConnectivity, and the baseline, matching and MSF states are all
// placed by its rule (NewFleet), and ResizeConfig reshapes it.
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
	// VerticesPerMachine overrides the derived ceil(N^Phi) when positive:
	// ResizeConfig sets it, and tests use it to force specific cluster
	// shapes.
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

// verticesPerMachine returns ceil(N^Phi), at least 2, the machine capacity
// in vertex bundles. A vertex bundle is one vertex's full state in the
// algorithm that runs on the shape (for DynamicConnectivity its component id
// plus its sketch stack); expressing s in bundles keeps the n^φ scaling
// visible while absorbing the polylog bundle size, mirroring the paper's
// Õ(·) accounting.
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

// MachineCount returns the number of MPC machines an instance of this
// configuration runs on: enough vertex machines for every vertex bundle, plus
// the coordinator, whose transient working set (batch edges, fragment
// sketches) then never competes with a full vertex shard.
func (c Config) MachineCount() int {
	vpm := c.verticesPerMachine()
	return (c.N+vpm-1)/vpm + 1
}

// NewSketchSpace validates c and draws the vertex-sketch space of an instance
// of this shape from its seed: t = SketchCopies independent copies, or
// 2*ceil(log2 N) + 8, enough for the Borůvka replacement search to succeed
// with high probability.
func (c Config) NewSketchSpace() (*sketch.Space, error) {
	if err := c.normalize(); err != nil {
		return nil, err
	}
	t := c.SketchCopies
	if t <= 0 {
		t = 2*ceilLog2(c.N) + 8
	}
	return sketch.NewGraphSpace(c.N, t, hash.NewPRG(c.Seed)), nil
}

// Fleet is a cluster laid out by the shape rule: the last machine, Coord, is
// the coordinator, and the machines before it hold the vertices in Part's
// contiguous ranges.
type Fleet struct {
	Cluster *mpc.Cluster
	Part    mpc.Partition
	Coord   int
}

// NewFleet validates c and places an instance of this shape whose vertices
// take bundle words each: MachineCount machines with room for
// VerticesPerMachine bundles apiece. Every vertex-partitioned state of the
// repository is placed here, so the fleet a session resizes (see
// ResizeConfig) is the fleet that runs.
func (c Config) NewFleet(bundle int) (Fleet, error) {
	if err := c.normalize(); err != nil {
		return Fleet{}, err
	}
	return c.FixedFleet(c.MachineCount(), c.verticesPerMachine()*bundle), nil
}

// FixedFleet builds a fleet of the given size and per-machine memory under
// c's engine setting (Parallelism), for state whose size is not the
// vertex count's.
func (c Config) FixedFleet(machines, localMemory int) Fleet {
	return Fleet{
		Cluster: mpc.NewCluster(mpc.Config{
			Machines:    machines,
			LocalMemory: localMemory,
			Parallelism: c.Parallelism,
		}),
		Part:  mpc.Partition{N: c.N, Machines: machines - 1},
		Coord: machines - 1,
	}
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
