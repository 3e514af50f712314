// Package server turns the batched-MPC connectivity simulator into a
// long-running HTTP service: one process owns many independent graph
// instances and serves concurrent mutation and query traffic against all of
// them, with bounded queues in front of the update path, zero-round warm
// reads out of the coordinator label cache, Prometheus metrics, and
// checkpoint-on-shutdown / restore-on-startup via internal/snapshot.
//
// # Instances and concurrency
//
// Each instance is an independent session.Session over a
// core.DynamicConnectivity on its own MPC cluster, identified by an integer
// id in [0, Instances). The session owns the lifecycle — apply, checkpoint,
// restore, resize — and takes no locks: after construction exactly one
// applier goroutine per instance touches it or its state, which is not safe
// for concurrent use. The applier drains one FIFO queue of ops. An update
// batch is one kind of op; a checkpoint, a resize and the final shutdown
// checkpoint are the other kind, so an instance is one ordered stream of
// operations. A query batch or a component lookup is a read op: the handler
// sends it on a channel of its own, and the applier serves every waiting
// read before it takes the next queued op. A read therefore sees the state
// between two ops, never inside one, and waits for at most the op in
// progress; it takes no queue slot, does not pass admission and never gets
// a 429. The applier records a failed batch before its next op and answers
// every later op, reads included, with the failure (500); a read that
// meets an exited applier gets 503. Handlers see only the fleet's shape
// (its core.Config, which admission's MaxBatch and the machine count read),
// published by the applier. Counters that a state keeps itself (cache hits
// and misses, replacement searches) are summed by the session over every
// state it ran (session.Session.Counters), so a resize's fresh state does
// not take them back to zero; the applier copies that sum, and the bytes the
// live cluster holds idle in its free list of message batches, into the
// instance's metrics after every op, so a scrape never reads the session.
//
// # Endpoints
//
//	GET  /healthz                     liveness (200 "ok")
//	GET  /instances                   instance inventory with queue/config info
//	POST /instances/{id}/updates      enqueue one update batch (async)
//	POST /instances/{id}/query        answer a batch of connectivity queries
//	GET  /instances/{id}/components?vertices=a,b,c   component labels
//	POST /instances/{id}/resize?machines=M   re-shard onto M machines: 400 no
//	                                  such fleet, 409 over its memory budget, 200
//	GET  /instances/{id}/healthz      readiness (503 during a checkpoint or
//	                                  resize op, or after a failure)
//	GET  /metrics                     Prometheus text-format metrics
//
// Updates are JSON batches {"updates": [{"op": "insert"|"delete", "u": 0,
// "v": 1, "weight": 3}, ...]}; a batch is validated against the instance's
// admission mirror (session.Mirror.Admit over graph.Graph.Check: vertex
// range, no self-loops, each edge touched at most once, inserts of absent edges,
// deletes of present ones — a refused batch leaves the mirror untouched)
// and then applied asynchronously, in admission order, by the applier. The
// mirror is the session's companion state, not part of the cluster state,
// because it runs ahead of the applier by whatever the queue holds. A successful
// enqueue returns 202 Accepted — read-your-write is NOT guaranteed until
// the queue drains; the queue_depth field of the response and the
// mpcserve_queue_depth gauge expose the lag. Queries are JSON pair batches
// {"pairs": [[u,v], ...]} answered via the batched QueryBatch path
// (ConnectedAll): zero rounds when the label cache holds every endpoint, one
// O(1/φ)-round collective otherwise. Updates keep the cache exact rather
// than drop it, so a vertex once queried stays warm across batches unless a
// deletion splits its component for good.
//
// # Request bodies
//
// A query or update body is read whole, once, into a pooled buffer and
// parsed in one pass by a byte scanner, straight into core pairs or a
// graph.Batch; the answer is appended to a pooled buffer, byte for byte what
// json.Encoder writes, and sent with one Write. The scanner accepts exactly
//
//	{"pairs":[[u,v],…]}
//	{"updates":[{"op":"insert"|"delete","u":…,"v":…,"weight":…},…]}
//
// with JSON whitespace anywhere, an update's members in any order (each at
// most once, weight optional), keys spelled exactly, op without escapes and
// integers of at most 18 digits without a leading zero. Like
// json.Decoder.Decode it stops at the end of the first value. Any other
// body — mixed-case keys, unknown fields, escapes, every malformed body —
// goes on the same bytes to encoding/json, which decides it as the server
// always has; that fallback is also the reference FuzzWireDecode holds the
// scanner to. Either way a pair is exactly two integers and an update names
// op, u and v: a short, long or null pair and an update missing one of
// them is 422 naming the element's index, never read as vertex 0. A body
// that is not JSON of the right shape (a string or fractional vertex, a
// truncated body) is 400.
//
// # Backpressure
//
// The update queue is bounded (Config.QueueDepth). When it is full the
// server refuses the batch with 429 Too Many Requests and a Retry-After
// header instead of buffering without bound; the client owns the retry.
// Invalid batches are 422, batches exceeding the instance's MaxBatch are
// 413, and updates sent during shutdown are 503. A query or update body
// longer than 8 MiB is 413 with the limit in the diagnostic; it is never
// cut short and parsed.
//
// # Checkpointing
//
// Checkpoint, resize and shutdown are ops on the instance's queue. The
// caller of one holds admission (updates wait, readiness reports 503) from
// enqueueing the op until it completes; FIFO order then runs the op after
// every batch admitted before it, with nothing admitted behind it. When
// Config.CheckpointDir is set, Close stops each instance with a final
// checkpoint op, then closes its queue (new updates get 503) and waits for
// its applier to exit. The checkpoint goes through the session's
// snapshot.Chain on the file store (instance-NNN.snap plus .delta-NNN files;
// temp file, fsync, rename), so a crash during shutdown never truncates a
// previous good checkpoint. With Config.CheckpointEvery the same op also
// runs periodically. A failed write is returned to its caller (Close, or a
// resize's 500) and counted in mpcserve_checkpoint_errors_total; the
// instance keeps serving and its next checkpoint writes a full base. Once
// an instance is drained, every op is refused and nothing more is written.
// Every container opens with the session's meta echo. A full base follows
// it with the mirror's edge set and the cluster state (the tree edges and
// sketch state); a delta with the cluster state's journal of applied
// batches, plus which labels are cached, and stats. FIFO order under held
// admission is what lets one journal serve both: when a delta is cut the
// mirror has admitted exactly what the state applied, so a restore replays
// the journal into the state and the mirror alike —
// mpcserve_restore_replayed_updates_total says how many updates. An apply
// error is terminal: the applier discards the instance's queued batches and
// answers every later op with the error. New opens every instance with
// session.Open, which restores any instance whose base exists — after
// sweeping the temp files an interrupted write left, config-echo validation
// and at the fleet shape the checkpoint was cut at — and starts the others
// empty; the restored label cache keeps warm queries
// warm: answers after a graceful restart are bit-identical to a process
// that never restarted. Checkpoints written by a build from before
// internal/session carry a different meta section tag and are rejected with
// a diagnostic at startup — rejected, never migrated.
//
// # Metrics
//
// GET /metrics prints the families table in metrics.go, one row per metric
// family, in order; every sample carries instance="N". A row's HELP line is
// its documentation — read it off a scrape.
package server
