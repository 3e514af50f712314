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
// A container passes through memory once each way. The decoder takes the
// stream's size from the reader — Len on a bytes.Buffer, a bytes.Reader or
// an open MemStore container, Stat minus the current offset on a regular
// file — reads the three header words, checks magic, version and declared
// length against that size, and only then allocates the payload's word
// slice, which it fills from one reused 64 KB chunk, folding the CRC in
// per chunk. A reader that reports no size (a pipe) is read whole first and
// then goes through the same loop. The encoder writes the header, the
// payload and the CRC word through the same 64 KB chunk, the CRC word with
// the last one, so a container of at most one chunk (a delta, a trace
// segment) is a single Write; a writer with a Grow(int) method (a
// bytes.Buffer) is grown once to the container's size first.
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
//	...      the state's delta sections (its journals)
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
// process.
// There is one chain implementation over both. It checkpoints one
// Checkpointer+Restorer (State) per container, as Save and Load do; a state
// made of parts composes their sections itself (session's image writes the
// meta echo, the mirror in a full container, and the algorithm state). The
// lifecycle around it — who applies, when to checkpoint, how to resize — is
// internal/session's.
//
// What a delta holds. A delta is logical, not physical: a state that changes
// only by applying update batches ships the batches it applied since the last
// acknowledged checkpoint, not the bytes they dirtied (k updates are 4k
// words; the state they dirty is two sketch stacks per update). Journal
// (journal.go) is that record — append a batch, bound, encode, validated
// decode — and the one delta mechanism of the repository: core's
// DynamicConnectivity embeds one. A state opts in by implementing
// DeltaState: CheckpointDelta writes its journal plus whatever a replay
// cannot rederive (for connectivity: which labels are cached and whether the
// component count is, and the cluster Stats — they depend on the queries run
// in between — and a fingerprint to compare the replay against);
// RestoreDelta replays the journal through the state's own apply path on top
// of the restored base, hands each replayed batch to its callback when it
// has one, and reports how much it replayed (Chain.Replayed sums it: restore
// time grows with it); and AckCheckpoint starts the journal over — called
// only after the container is durably stored, so a failed or crashed write
// folds its batches into the next delta instead of losing them. The callback
// is how a companion that took the same updates rebuilds without a journal
// of its own: Chain passes none, and session's image passes its Mirror's
// graph apply, so each update is written once per delta.
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
// per vertex for connectivity); past that it is dropped. It is also dropped when the state changed by anything
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
// that way, and so is the mirror's own journal (0x74: a delta's one journal
// is the state's), and so are the per-machine full layouts (core's 0x10–0x12,
// the greedy matching's 0x30–0x31, the maximal matcher's 0x40–0x41),
// core's delta echo that named the writer's VerticesPerMachine (0x16),
// core's forest section and delta that wrote what they now derive — the
// component column, fragment keys and cached labels (0x17, 0x19) — and
// core's sketch runs of every vertex's sketch, in three-word cells (0x18) or
// two-word ones (0x1C), now the edges its list vertices hold and its
// promoted vertices' sketches (0x1D).
//
// # Re-sharding
//
// The same container doubles as the migration format for elastic resizing:
// Load restores a full snapshot onto instances built at any machine count
// (Reshard is another name for it). A full container holds the logical state
// — match partners, adjacency, tree-edge records, sketch state, which labels
// are cached, cluster stats — in vertex order (edge records in edge-id order),
// nothing a loader can derive from it (core's component ids are the trees of
// its forest) and nothing of its placement: no section per
// machine, no machine id, vertex range or writer's machine count. Which
// machine holds what is a deterministic rule of the loading instance
// (contiguous vertex ranges, hashed edge owners), so there is nothing to
// regroup: each state has one loader, its Restore, which loads the image it
// declares (see Columns) under its own placement. A container is therefore a
// function of the state alone: loaded at any shape, the instance re-saves it
// byte for byte. (The sparsifier of matching.AKLYDynamic keeps one group per
// machine: its fleet is a constant.)
// Three rules keep it safe:
//
//   - The loading instance's per-machine memory budget is re-validated
//     against the incoming state before anything is applied. A shrink
//     whose image would overflow a machine's local memory is rejected
//     with a diagnostic naming the overloaded machine, and the instance
//     is left untouched — the model's memory cap is never silently
//     violated. So are a configuration mismatch and a section that breaks an
//     invariant of a live instance (core's tree edges closing a cycle).
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
// # Columns
//
// No section of any container is hand-written. A state declares its full
// image (Image): its sections in order, each a list of parts, and one codec
// encodes, decodes, validates and cap-checks every part from that
// declaration. The parts are
//
//   - Echo: a configuration value written from the instance and compared on
//     load ("snapshot of N=64 restored into N=48"), never installed;
//   - Scalar: a coordinator value, staged by a load in Var.Val (where the
//     state's checks read it) and installed once the whole image passed;
//   - Stats: the cluster's execution metrics, installed verbatim, so a
//     loaded instance's Stats are the checkpoint's;
//   - Bitmap: a set of vertices, n bits with no prefix;
//   - Column: Width words per vertex, placed over an mpc.Partition: written
//     in vertex order as one length-prefixed run (a match column), decoded as an alias of the decoder's buffer, length-checked
//     once and committed with one copy per machine;
//   - Table: count-prefixed rows of Width words in key order (core's tree
//     edges, its list vertices' edges and its promoted sketches, one
//     vertex's adjacency, the mirror's edge set), placed by the state's own
//     rule.
//
// A Layout says what every row keeps: each leading word a Field, a value in
// [Lo, Hi) (in [0, n) for a vertex, in [-1, n) for a match partner) and,
// with Above, strictly above the word before it; and the first Key words
// strictly increasing from row to row, in the order Order names; and, when
// Rest is set, the words after the Fields passing it (sketch.CheckCells:
// every sketch word a field element). A count is bounded against its
// section before anything is sized from it, and a rejection names the part
// and the row: "core: snapshot tree edges row 1: key [1 2] listed twice or
// out of edge-id order".
//
// Image.Load runs in one order: decode and validate every part of every
// section; the state's cross-row checks (Image.Check — core's: the tree
// edges form a forest whose records an Euler tour holds); the memory caps;
// the state's install (Image.Install); the commits (scalars, columns, the
// Stats); then the Image.Then states, the parts of a composite that live on
// fleets of their own. The caps are the model's s-words rule, checked from
// the same Words the live meter sums: on every machine of the loading fleet,
// the Words of each store slot (mpc.Machine.StateWords), with the value
// Image.Staged says the install leaves in a slot standing in for it (core's
// edge shards and label-cache meter, the exact MSF's weight readout, the
// maximal matcher's shards and size readout). Every rejection before the
// install leaves the instance untouched.
//
// Every other section is declared the same way, so writer and reader cannot
// drift apart. A whole section is a small Image run by Encode and Load: the
// delta chain header (three scalars), session's meta echo (scalars; the
// session checks their bounds after the load) and its mirror (a Table whose
// install builds the graph), and the trace's segment meta (echoes of the
// footer index entry and a scalar) and footer (scalars and the index, a
// Table of four words per segment). Core's delta section mixes parts with its
// journal: Put writes the echo, the journal follows, then the tail — the
// replay fingerprint as echoes, compared after the replay, a scalar, the
// warm-set Bitmap and Stats; Get reads parts without committing them, and
// Read, for parts read outside an Image, reads and commits them. Only the
// per-update rows keep a loop of their own (EncodeUpdates, DecodeUpdates,
// Journal): they sit on the trace replay path.
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
// A state implements Checkpointer and Restorer by declaring its sections as
// parts: a full state's Checkpoint and Restore are its image's Encode and
// Load, a delta's are Put and Get or Read around its journal. The Encoder's
// and Decoder's word accessors (U64, Int, I64, String, Words, Count) are the
// codec's own and the update rows'; CI's "One codec" step fails when Go
// outside this package calls them. They are sticky: the first structural
// error latches and every later read returns a zero value, so a part reads
// linearly and the codec checks Err once. A loader of one fleet rejects before it installs; a
// composite that loads several fleets one after another may leave the
// earlier ones loaded — discard an instance whose Restore failed. The
// container-level checks (magic, version, CRC) run before any state is
// touched, so corrupt files are rejected up front.
package snapshot
