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
// restore, resize — and takes no locks; the instance wraps it in the
// server's own. It enforces the core query engine's single-writer/
// many-reader contract (see internal/core/query.go) with a per-instance
// RWMutex: exactly one applier goroutine drains the instance's update queue
// and calls Session.Apply under the write lock, while any number of request
// handlers answer query batches under the read lock. Warm queries touch only the label cache and run
// fully in parallel; cache misses serialize their one collective among
// themselves but never overlap an update.
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
//	GET  /instances/{id}/healthz      readiness (503 while quiesced or failed)
//	GET  /metrics                     Prometheus text-format metrics
//
// Updates are JSON batches {"updates": [{"op": "insert"|"delete", "u": 0,
// "v": 1, "weight": 3}, ...]}; a batch is validated against the instance's
// admission mirror (session.Mirror.Admit over graph.Check: vertex range, no
// self-loops, each edge touched at most once, inserts of absent edges,
// deletes of present ones — a refused batch leaves the mirror untouched)
// and then applied asynchronously, in admission order, by the applier. The
// mirror is the session's companion state, not part of the cluster state,
// because it runs ahead of the applier by whatever the queue holds. A successful
// enqueue returns 202 Accepted — read-your-write is NOT guaranteed until
// the queue drains; the queue_depth field of the response and the
// mpcserve_queue_depth gauge expose the lag. Queries are JSON pair batches
// {"pairs": [[u,v], ...]} answered via the batched QueryBatch path
// (ConnectedAll): zero rounds when the label cache is warm, one O(1/φ)-round
// collective otherwise.
//
// # Backpressure
//
// The update queue is bounded (Config.QueueDepth). When it is full the
// server refuses the batch with 429 Too Many Requests and a Retry-After
// header instead of buffering without bound; the client owns the retry.
// Invalid batches are 422, batches exceeding the instance's MaxBatch are
// 413, and updates sent during shutdown are 503.
//
// # Checkpointing
//
// Close drains every queue (new updates get 503), then — when
// Config.CheckpointDir is set — checkpoints every instance through its
// session's snapshot.Chain on the file store (instance-NNN.snap plus
// .delta-NNN files; temp file, fsync, rename), so a crash during shutdown
// never truncates a previous good checkpoint. With Config.CheckpointEvery
// the same checkpoint also runs periodically on a quiesced instance
// (admission held, queue drained). Every container opens with the session's
// meta echo, followed by the mirror (its edge set in a full base, the
// journal of admitted updates in a delta) and the cluster state (every shard
// and sketch arena in a full base; in a delta the journal of applied batches,
// which a restore replays — mpcserve_restore_replayed_updates_total says how
// many — plus the label cache and stats). New
// restores any instance whose base exists, after config-echo validation and
// at the fleet shape the checkpoint was cut at, and the restored label cache
// keeps warm queries warm: answers after a graceful restart are
// bit-identical to a process that never restarted. Without a CheckpointDir
// the mirror journals nothing. Checkpoints written by a build from before
// internal/session carry a different meta section tag and are rejected with
// a diagnostic at startup — rejected, never migrated.
//
// # Metrics
//
// GET /metrics prints the families table in metrics.go, one row per metric
// family, in order; every sample carries instance="N". A row's HELP line is
// its documentation — read it off a scrape.
package server
