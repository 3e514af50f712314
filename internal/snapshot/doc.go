// Package snapshot implements the crash-safe checkpoint/restore codec of
// the repository: a versioned, length-prefixed binary format into which
// every algorithm serializes its full distributed state — cluster metrics,
// per-vertex columns, sketch words, coordinator caches — so that a killed
// simulator process can be restored bit-identically and continue a stream
// without replaying it.
//
// # Format
//
// A snapshot is a flat []uint64 word stream serialized little-endian:
//
//	word 0   magic ("MPCSNAP1")
//	word 1   format version (Version)
//	word 2   payload length in words
//	...      payload: mpc.MessageBatch frames, one per section
//	last     CRC-32C (Castagnoli) of all preceding bytes, widened to a word
//
// The payload reuses the mpc.MessageBatch frame encoding (the simulator's
// batched message codec): each section is one length-prefixed frame whose
// first content word is the section tag chosen by the subsystem that wrote
// it. The container layer therefore rejects structurally corrupt input the
// same way the round codec would, and the CRC plus the version word make
// truncated, bit-flipped, or version-skewed snapshots fail loudly with a
// diagnostic error instead of being applied.
//
// # Delta containers
//
// A delta container is the incremental sibling of the full snapshot: same
// word stream, same version word, same trailing CRC, but DeltaMagic
// ("MPCDELT1") in word 0 and a mandatory first section (tagChain) carrying
// the chain identity:
//
//	word 0   DeltaMagic ("MPCDELT1")
//	word 1   format version (Version)
//	word 2   payload length in words
//	...      section tagChain: ChainLink{Base, Prev, Seq}
//	...      delta sections (journals, per state)
//	last     CRC-32C of all preceding bytes
//
// ChainLink pins where in a chain the delta belongs: Base is the CRC word
// of the full base snapshot, Prev the CRC word of the immediately
// preceding container (the base for Seq 1), and Seq the 1-based position.
// Chain (chain.go) is the one writer and reader of delta containers: full
// base at <path>, deltas at <path>.delta-NNN, periodic compaction into a
// fresh base (written atomically first, stale deltas removed after, so a
// crash between the two leaves only orphans). Chain.Restore validates each
// delta's magic, version, CRC, and ChainLink against the chain it has
// replayed so far before any state is touched: a Base mismatch is an
// orphaned delta (a leftover from before a compaction — swept and counted,
// not applied), a Seq or Prev mismatch is an out-of-order delta (a hard
// error).
//
// A Chain keeps its containers in a Store, a three-method interface —
// atomic Put, Open, Remove. FileStore is the durable one (temp file, fsync,
// rename, directory sync; OpenChain uses it); MemStore holds containers in
// memory for chains that must outlive the state they checkpoint but not the
// process, which is what the harness's crash and fault decorators need.
// There is one chain implementation over both. It accepts any
// Checkpointer+Restorer (State); the lifecycle around it — who applies, when
// to checkpoint, how to resize — is internal/session's.
//
// What a delta holds. A delta is logical, not physical: a state that changes
// only by applying update batches ships the batches it applied since the last
// acknowledged checkpoint, not the bytes they dirtied (k updates are 4k
// words; the state they dirty is two sketch stacks per update). Journal
// (journal.go) is that record — append a batch, bound, encode, validated
// decode — and the one delta mechanism of the repository: core's
// DynamicConnectivity and session's Mirror each embed one. A state opts in
// by implementing DeltaState: CheckpointDelta writes its journal plus
// whatever a replay cannot rederive (for connectivity: the label cache, the
// cached component count, the cluster Stats — they depend on the queries run
// in between — and a fingerprint to compare the replay against),
// RestoreDelta replays the journal through the state's own apply path on top
// of the restored base and reports how much it replayed (Chain.Replayed sums
// it: restore time grows with it), and AckCheckpoint starts the journal
// over — called only after the container is durably stored, so a failed or
// crashed write folds its batches into the next delta instead of losing
// them.
//
// Why replay is exact. Shared randomness is rebuilt from the configuration
// seed, never serialized, so the sketches are a fixed linear function of the
// update stream; ApplyBatch is deterministic at every parallelism (the
// golden traces and the p1/p8 twin tests pin that); ids it mints come from a
// counter the base carries; and the journal keeps batch boundaries — the
// chunks the state actually received — because inserts-before-deletes and
// the per-batch replacement search make a batch, not an update, the unit of
// the computation. A journal is outside input all the same: ReplayJournal
// bounds every count against its section and validates every update (op,
// vertex range, self-loop, batch size) before the state sees it, and the
// state compares its fingerprint afterwards; a tampered or diverging journal
// is an error, and the instance is discarded.
//
// The bound, and declining. A restore pays roughly one apply per journaled
// update, so a journal holds at most N updates (N chosen by its owner: one
// per vertex for connectivity, the mirror's edge count for the mirror); past
// that it is dropped. It is also dropped when the state changed by anything
// but a recorded batch (a bulk load, an apply that returned an error). A
// state with a dropped journal declines the next delta — CheckpointDelta
// reports false — and Chain.Checkpoint has one refusal path for it: whenever
// a state cannot write deltas or declines this one, the checkpoint is a full
// base, after which journaling resumes. That is also what bounds a journal in
// a process that never checkpoints.
//
// Tags. A section layout that changes gets a new tag and the old one stays
// retired, so a file in the old layout is rejected by tag, never migrated —
// the same policy as for versions, below. The physical delta format this
// one replaced (core's 0x13–0x15, the mirror's flat journal 0x73) is gone
// that way, and so are the per-machine full layouts (core's 0x10–0x12,
// the greedy matching's 0x30–0x31, the maximal matcher's 0x40–0x41) and
// core's delta echo that named the writer's VerticesPerMachine (0x16).
//
// # Re-sharding
//
// The same container doubles as the migration format for elastic resizing:
// Load restores a full snapshot onto instances built at any machine count
// (Reshard is another name for it). A full container holds the logical state
// — component ids, match partners, adjacency, fragment keys, tree-edge
// records, sketch words, label caches, cluster stats — in vertex order (edge
// records in edge-id order) and nothing of its placement: no section per
// machine, no machine id, vertex range or writer's machine count. Which
// machine holds what is a deterministic rule of the loading instance
// (contiguous vertex ranges, hashed edge owners), so there is nothing to
// regroup: each state has one loader, its Restore (core/reshard.go describes
// the connectivity stack's), which decodes the columns, validates them,
// checks its own fleet's memory caps and installs them under its own
// placement. A container is therefore a function of the state alone: loaded
// at any shape, the instance re-saves it byte for byte. (The sparsifier of
// matching.AKLYDynamic keeps per-machine sections: its fleet is a constant.)
// Three rules keep it safe:
//
//   - The loading instance's per-machine memory budget is re-validated
//     against the incoming state before anything is applied. A shrink
//     whose image would overflow a machine's local memory is rejected
//     with a diagnostic naming the overloaded machine, and the instance
//     is left untouched — the model's memory cap is never silently
//     violated. So are a configuration mismatch and a column that breaks an
//     invariant of a live instance.
//   - Only full snapshots can be re-sharded; a delta replays onto a base of
//     its own fleet shape and RestoreDelta demands that shape. Re-sharding
//     a delta chain goes through a staging instance at the source shape:
//     restore the chain, checkpoint it fully in memory, Load that.
//   - After a resize, the stored history describes the old shape.
//     session.Session invokes Rebase so the next Checkpoint writes a fresh
//     full base (and sweeps stale old-shape deltas) rather than appending a
//     delta that could never be applied to the migrated state.
//
// Because the logical state is preserved exactly, a re-sharded instance
// answers every query bit-identically to an instance that ran at the
// target shape all along — the property the harness fault-twin and soak
// tests assert for every registered algorithm.
//
// # Version policy
//
// Version is bumped on any incompatible change to the container or to any
// subsystem's section layout. Snapshots are short-lived operational
// artifacts (a crash/restore cycle, a paused soak run), not an archive
// format: a version-skewed snapshot is rejected, never migrated. Within one
// version, every subsystem additionally validates its own section contents
// against the restoring instance's configuration (vertex count, seed,
// sketch stride) and fails with a descriptive error on mismatch.
//
// # Usage
//
// Writers implement Checkpointer against the Encoder (Begin a section, then
// append words); readers implement Restorer against the Decoder, whose
// accessors are sticky: the first structural error latches and every later
// read returns a zero value, so restore code reads linearly and checks
// Err/Finish once. Unless the state promises more (core's, the greedy
// matching's and the maximal matcher's loaders reject before they install),
// a Restore that returns an error leaves the target instance in an undefined
// state — discard it and build a fresh one; the
// container-level checks (magic, version, CRC) run before any state is
// touched, so corrupt files are rejected up front.
package snapshot
