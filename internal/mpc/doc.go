// Package mpc implements an in-process simulator of the Massively Parallel
// Computation model with sublinear local memory, the substrate on which every
// algorithm in this repository runs.
//
// A Cluster is a fixed collection of machines that communicate only in
// synchronous rounds. In each round every machine may read its inbox, perform
// arbitrary local computation on its local store, and emit messages; the
// cluster routes the messages, checks the per-machine communication cap
// (total words sent or received by one machine in one round must not exceed
// its local memory s) and records every breach in Stats, and meters rounds,
// messages, words moved, and peak memory. Algorithms are written against Step and against the two verbs built
// on top of it, so their round counts are structural properties of the
// execution, not estimates:
//
//   - Ask(from, question, answer, combine) broadcasts the question, has every
//     machine answer with one MessageBatch of key-sorted [key, ...] frames,
//     and merge-joins the answers up an aggregation tree back to `from`;
//   - Tell(from, msg, apply) broadcasts the message and runs apply on every
//     machine between rounds; TellParts also sends addressed parts, each to
//     one machine, in the broadcast's first round, and hands every machine
//     its parts after its apply.
//
// Every per-machine callback — a Step's compute, a Tell's apply, an Ask's
// answer, an AggregateBatches contribution, a LocalAll or a Land — runs
// through the executor under the StepFunc concurrency contract; a
// contribution writes only its machine's accumulator slot, and the largest
// one, which sizes the aggregation tree, is folded afterwards in machine
// order.
//
// A round is a hop: what a round sends is input to the local computation
// that opens the next one, so receiving costs nothing of its own. A
// collective therefore lands its last delivery — Land hands every machine the
// inbox the last Step filled, empties it and re-meters memory, without
// advancing the round counter — and every counted round is one on which some
// machine may send: Tell and AggregateBatches cost their tree depth
// ceil(log_f M), Ask the way down plus the way up (2 when both trees have
// depth 1), Scatter 1. A Tell's parts cost no round of their own: they are
// counted in the first round's messages and words, and the sender's share
// of that round is taken off s before the fanout is sized.
//
// Every round is charged to the phase named last (Cluster.Phase), with the
// messages and words it routed: Cluster.Phases is where a run's rounds went,
// counted in the one serial pass that meters them, so it is the same at any
// parallelism and sums to Stats on a cluster built fresh.
//
// Drop on consume: the payload is in every machine's store, and metered
// there, from the round it arrives until the machine's callback is handed
// it; the cluster deletes it at that moment, under a slot name no algorithm
// sees. AggregateBatches, Scatter and Land are the building blocks, exported
// for the collectives that need only the way up (see aggregate.go) or that
// route by hand and land the result; the way down is only ever Ask's or
// Tell's.
//
// Memory is accounted in machine words: one vertex id, one tour index, or one
// of a sketch cell's two field elements (index sum, fingerprint) each count as
// one word, matching the convention of the paper's model (Section 1.2).
//
// # Round pipeline
//
// One Step runs in two phases, as the model's round does:
//
//  1. Compute. The executor fans the machines out over OS threads; each
//     invocation runs the machine's StepFunc and writes only its own slots:
//     its outbox and its post-round store size.
//  2. Exchange. One serial pass on the calling goroutine, in machine order,
//     routes and meters the round. Per sender, it reports each invalid
//     destination as a violation in outbox order, sizes each payload once,
//     appends the message to its destination's inbox and adds to that
//     destination's receive total; then it adds the sender's message and
//     word totals and checks the send cap. After all senders it checks
//     every receive cap, swaps the fresh inboxes in, samples memory and
//     advances the round counter.
//
// # Determinism
//
// Every metric and every delivery order the simulator reports is
// bit-identical at any parallelism level, including Config.Parallelism 1.
// The argument: phase 1 writes only slot i of cluster-owned arrays from
// invocation i (the StepFunc concurrency contract), so its outputs are
// independent of scheduling; phase 2 is serial and runs in machine order,
// so each inbox holds its messages in ascending sender id (outbox order per
// sender), and violations, counters and peaks are recorded in that order
// too. A violation is counted (its message kept among the first 16), never
// raised: the round still
// delivers every message to a valid destination, so a run that breaks a cap
// goes on and its Stats say where (see the determinism tests in
// merge_test.go and executor_test.go).
//
// Config.Parallelism sets the executor's worker count. At one worker it is
// the plain loop on the calling goroutine; above one it is a pool that
// claims contiguous index chunks off a shared cursor, so a machine with a
// skewed share of the round's work costs its one chunk rather than a
// statically assigned slice of the range.
//
// The round machinery itself is allocation-free at steady state: the
// cluster owns its routing buffers (per-machine outboxes, double-buffered
// inboxes, word counters) and reuses them round over round, and
// MessageBatch provides a length-prefixed binary codec so algorithms route
// one packed buffer per (src, dst) machine pair instead of one small
// allocation per logical message. The cluster owns those buffers too: a
// callback takes a batch from the cluster's free list through its machine
// (Machine.Batch, sized by a hint), in power-of-two capacity classes, and
// Release hands it back to the class of its capacity, so the list holds
// about what one round used at once rather than the largest batch any round
// wrote. Cluster.IdleBufferWords reports what it holds. See codec.go and the
// allocation-budget tests.
package mpc
