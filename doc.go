// Package repro is a from-scratch Go reproduction of "Streaming Graph
// Algorithms in the Massively Parallel Computation Model" (Czumaj, Mishra,
// Mukherjee; PODC 2024). See README.md for the repository layout, the
// pluggable execution-engine architecture of the MPC simulator, the
// workload scenario registry, and how to run the experiment tables and
// benchmarks. The simulator and algorithm packages live under internal/,
// runnable examples under examples/, the experiment harness behind
// cmd/experiments, and the differential-testing engine —
// which cross-checks every algorithm against the brute-force oracles over
// every registered scenario — in internal/harness.
//
// The hot path is allocation-free at steady state: sketch.Arena backs all
// vertex sketches of a machine shard with one contiguous buffer (sketches
// are cheap views, not heap objects), mpc.MessageBatch packs per-edge
// traffic into one length-prefixed frame buffer per (src, dst) machine
// pair, and the simulator reuses its per-round routing buffers. The
// profile is locked in by allocation-budget tests and by the count ledger
// BENCH_sketch.json: allocs/op, B/op and rounds/query of every benchmark,
// pinned two-sided in CI by scripts/benchdiff.go (see README.md
// "Performance"; time is measured by `go run ./bench`).
//
// Every coordinator-to-shards conversation is one of two verbs on
// mpc.Cluster: Ask broadcasts a question and tree-combines the machines'
// key-sorted answer frames, Tell broadcasts a message and runs a callback on
// every machine; both drop the payload from every store as they hand it
// over. A round is a hop: a collective lands its last delivery
// (mpc.Cluster.Land) instead of stepping for it, so a Tell costs its tree
// depth and an Ask the way down plus the way up — 1 and 2 at depth 1. The
// query path is batched and cached on top: core exposes
// ConnectedAll / ComponentsOf and their allocation-free Into variants so N
// connectivity queries cost one Ask (O(1/phi) rounds), and a coordinator
// label cache — invalidated automatically by updates — answers repeated
// queries between updates with zero MPC rounds and zero allocations.
// workload.QueryMix generates
// read/write-mix streams, which the E15 table drives oracle-verified; E15
// and the gated rounds/query benchmark metric keep the round complexity
// from regressing (see README.md "Query API").
//
// The whole stack is crash-safe: internal/snapshot serializes every
// algorithm's full distributed state — machine shards, sketch arenas,
// coordinator caches, cluster Stats — into a versioned, CRC-guarded
// binary container (reusing the MessageBatch frame encoding), so a killed
// run restores bit-identically and continues without replaying its
// stream. workload.NewCrashSchedule injects seeded kill/restore cycles
// into any scenario (harness Options.CrashEvery, mpcstream -crash-every),
// the CLIs persist snapshots (-checkpoint/-resume), and the E16 table
// plus FuzzSnapshotDecode keep restores exact and corrupt snapshots
// rejected (see README.md "Checkpoint & recovery").
package repro
