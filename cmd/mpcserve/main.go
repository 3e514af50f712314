// Command mpcserve runs the long-lived graph service: a fleet of
// independent dynamic-connectivity instances behind an HTTP API, with
// bounded update queues (429 backpressure), zero-round warm queries out of
// the coordinator label cache, Prometheus metrics at /metrics, and graceful
// checkpoint-on-shutdown / restore-on-startup (see internal/server).
//
// Usage:
//
//	mpcserve -addr :8080 -instances 8 -n 256 -phi 0.6
//	mpcserve -instances 8 -checkpoint-dir /var/lib/mpcserve
//
// On SIGINT/SIGTERM the server stops accepting updates, drains every
// instance's queue, checkpoints each instance atomically into
// -checkpoint-dir (when set), and exits; a subsequent start with the same
// flags restores every instance bit-identically, warm caches included.
// Checkpoints form a chain: the first is a full base, later ones (including
// -checkpoint-every periodic background checkpoints) are cheap deltas that
// carry only the update batches applied since the previous checkpoint —
// a restart replays them on top of the base, and counts them in
// mpcserve_restore_replayed_updates_total — compacted into a fresh base
// every -max-delta-chain deltas, or earlier when a delta would hold more than
// one update per vertex.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	instances := flag.Int("instances", 8, "number of independent graph instances")
	n := flag.Int("n", 256, "vertices per instance")
	phi := flag.Float64("phi", 0.6, "local-memory exponent")
	seed := flag.Uint64("seed", 1, "base seed (instance i uses a derived seed)")
	parallelism := flag.Int("parallelism", runtime.NumCPU(),
		"execution-engine workers per cluster (0 or 1 = sequential, <0 = NumCPU)")
	queue := flag.Int("queue", 16, "bounded update-queue depth per instance (full queue = 429)")
	checkpointDir := flag.String("checkpoint-dir", "",
		"checkpoint every instance here on graceful shutdown and restore on startup (empty = stateless)")
	checkpointEvery := flag.Duration("checkpoint-every", 0,
		"also checkpoint every instance at this period while serving (0 = only on shutdown; requires -checkpoint-dir)")
	maxDeltaChain := flag.Int("max-delta-chain", 8,
		"delta checkpoints allowed per full base before compaction (0 = full checkpoints only)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "HTTP shutdown grace period")
	flag.Parse()

	srv, err := server.New(server.Config{
		Instances:       *instances,
		N:               *n,
		Phi:             *phi,
		Seed:            *seed,
		Parallelism:     *parallelism,
		QueueDepth:      *queue,
		CheckpointDir:   *checkpointDir,
		CheckpointEvery: *checkpointEvery,
		MaxDeltaChain:   *maxDeltaChain,
	})
	if err != nil {
		// server.Config.validate covers the flag checks (-instances >= 1,
		// -n >= 2, -phi in (0,1], -queue >= 1, -checkpoint-every only with
		// -checkpoint-dir) with descriptive messages.
		fmt.Fprintln(os.Stderr, "mpcserve:", err)
		os.Exit(2)
	}

	hs := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	fmt.Printf("mpcserve: serving %d instances of %d vertices on %s\n", *instances, *n, *addr)
	select {
	case err := <-errc:
		// Listener failed before any signal: report and still close the
		// fleet so a partial checkpoint never happens silently.
		fmt.Fprintln(os.Stderr, "mpcserve:", err)
		_ = srv.Close()
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Println("mpcserve: draining and checkpointing...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mpcserve: shutdown:", err)
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mpcserve: checkpoint:", err)
		os.Exit(1)
	}
	if *checkpointDir != "" {
		fmt.Printf("mpcserve: checkpointed %d instances to %s\n", *instances, *checkpointDir)
	}
}
