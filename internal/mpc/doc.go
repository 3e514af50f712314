// Package mpc implements an in-process simulator of the Massively Parallel
// Computation model with sublinear local memory, the substrate on which every
// algorithm in this repository runs.
//
// A Cluster is a fixed collection of machines that communicate only in
// synchronous rounds. In each round every machine may read its inbox, perform
// arbitrary local computation on its local store, and emit messages; the
// cluster routes the messages, enforces the per-machine communication cap
// (total words sent or received by one machine in one round must not exceed
// its local memory s), and meters rounds, messages, words moved, and peak
// memory. Algorithms are written against Step and against the two verbs built
// on top of it, so their round counts are structural properties of the
// execution, not estimates:
//
//   - Ask(from, question, answer, combine) broadcasts the question, has every
//     machine answer with one MessageBatch of key-sorted [key, ...] frames,
//     and merge-joins the answers up an aggregation tree back to `from`;
//   - Tell(from, msg, apply) broadcasts the message and runs apply on every
//     machine between rounds.
//
// A round is a hop: what a round sends is input to the local computation
// that opens the next one, so receiving costs nothing of its own. A
// collective therefore lands its last delivery — Land hands every machine the
// inbox the last Step filled, empties it and re-meters memory, without
// advancing the round counter — and every counted round is one on which some
// machine may send: Broadcast, Tell and AggregateBatches cost their tree
// depth ceil(log_f M), Ask the way down plus the way up (2 when both trees
// have depth 1), Scatter 1, SortByKey 3.
//
// Drop on consume: the payload is in every machine's store, and metered
// there, from the round it arrives until the machine's callback is handed
// it; the cluster deletes it at that moment, under a slot name no algorithm
// sees. Broadcast, AggregateBatches, Scatter, SortByKey and Land are the
// building blocks, exported for the few collectives that need only one half
// (see aggregate.go) or that route by hand and land the result.
//
// Memory is accounted in machine words: one vertex id, one tour index, or one
// sketch cell each count as one word, matching the convention of the paper's
// model (Section 1.2).
//
// # Round pipeline
//
// One Step runs in three phases:
//
//  1. Compute + encode/route. The executor fans the machines out over OS
//     threads; each invocation runs the machine's StepFunc and then, still
//     on the same worker, validates its outbox destinations, sizes the
//     payloads, and buckets the message indices by destination shard
//     (prepRoute). Encoding therefore overlaps the compute of other
//     machines instead of serializing behind the round barrier.
//  2. Sharded merge. The destination space is carved into contiguous
//     shards (about two per worker), and the executor runs one merge job
//     per shard: each job walks the senders in ascending machine order and
//     copies that sender's bucketed messages for its shard into the
//     destination inboxes. Shards write disjoint inbox ranges, so the
//     merges run concurrently without locks.
//  3. Meter fold. A single serial pass folds the per-machine counters into
//     Stats in machine order — per sender: invalid-destination violations
//     in outbox order, message/word totals, the send-cap check; then per
//     destination: the receive-cap check — and finally the fresh inboxes
//     are swapped in and the round counter advances.
//
// # Determinism
//
// Every metric and every delivery order the simulator reports is
// bit-identical at any parallelism level, including Config.Parallelism 1.
// The argument: phase 1 writes only slot i of cluster-owned arrays from
// invocation i (the StepFunc concurrency contract), so its outputs are
// independent of scheduling; phase 2 assembles each inbox from per-sender
// buckets in ascending sender order, and each sender's bucket preserves its
// outbox order, so each inbox equals what the serial scan (senders 0..M-1,
// outbox in order) would produce no matter how shards are scheduled; phase
// 3 is serial and runs in machine order, so violation strings, counters,
// and peaks are appended in the serial order too. A Strict-mode violation
// panics inside phase 3 — after deliveries are merged but before the inbox
// swap — and the next Step discards the partial merge, so a recovered
// Strict panic is also scheduling-independent (see the determinism tests in
// merge_test.go and executor_test.go).
//
// Executors are pluggable (Config.Parallelism selects the sequential loop
// or a work-stealing worker pool); the pool claims contiguous index chunks
// off a shared cursor, so a machine with a skewed share of the round's work
// costs its one chunk rather than a statically assigned slice of the range.
//
// The round machinery itself is allocation-free at steady state: the
// cluster owns its routing buffers (per-machine outboxes, shard buckets,
// double-buffered inboxes, word counters) and reuses them round over round,
// and MessageBatch provides a length-prefixed binary codec so algorithms
// route one packed buffer per (src, dst) machine pair instead of one small
// allocation per logical message. See codec.go and the allocation-budget
// tests.
package mpc
