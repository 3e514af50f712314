package server

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// handleMetrics renders the fleet's metrics in Prometheus text exposition
// format. Every value is an atomic read, so scrapes never contend with the
// update or query paths.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b bytes.Buffer
	counter := func(name, help string, of func(in *instance) uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, in := range s.insts {
			fmt.Fprintf(&b, "%s{instance=\"%d\"} %d\n", name, in.id, of(in))
		}
	}
	gauge := func(name, help string, of func(in *instance) float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, in := range s.insts {
			fmt.Fprintf(&b, "%s{instance=\"%d\"} %s\n", name, in.id, formatFloat(of(in)))
		}
	}

	counter("mpcserve_rounds_total", "Cumulative MPC rounds executed by the instance (observed on the update path).",
		func(in *instance) uint64 { return uint64(in.rounds.Load()) })
	counter("mpcserve_query_cache_hits_total", "Query batches answered entirely from the warm label cache (zero rounds).",
		func(in *instance) uint64 { hits, _ := in.dc.Load().QueryCacheStats(); return hits })
	counter("mpcserve_query_cache_misses_total", "Query batches that ran a cache-fill collective.",
		func(in *instance) uint64 { _, misses := in.dc.Load().QueryCacheStats(); return misses })
	counter("mpcserve_replacement_search_exhausted_total", "Replacement searches that spent every sketch copy with an active supernode left (the partition may be too fine).",
		func(in *instance) uint64 { return in.dc.Load().SearchStats().Exhausted })
	counter("mpcserve_replacement_search_window_refills_total", "Windows of sketch copies a replacement search fetched beyond its first (rare at the default copy count).",
		func(in *instance) uint64 { return in.dc.Load().SearchStats().Refills })
	counter("mpcserve_replacement_sketches_summed_total", "Vertex sketches summed by replacement searches (passive fragments are skipped).",
		func(in *instance) uint64 { return in.dc.Load().SearchStats().SketchesSummed })
	counter("mpcserve_update_batches_applied_total", "Update batches applied by the instance's applier.",
		func(in *instance) uint64 { return in.batchesApplied.Load() })
	counter("mpcserve_updates_applied_total", "Individual edge updates applied.",
		func(in *instance) uint64 { return in.updatesApplied.Load() })
	counter("mpcserve_update_batches_rejected_total", "Update batches refused with 429 because the queue was full.",
		func(in *instance) uint64 { return in.batchesRejected.Load() })
	counter("mpcserve_query_batches_total", "Query batches answered (connectivity and component lookups).",
		func(in *instance) uint64 { return in.queryBatches.Load() })
	counter("mpcserve_restore_cycles_total", "Checkpoint/restore cycles this instance has survived.",
		func(in *instance) uint64 { return in.restoreCycles.Load() })
	counter("mpcserve_restore_replayed_updates_total", "Journaled updates replayed on top of the base by restores from a delta chain.",
		func(in *instance) uint64 { return in.replayedUpdates.Load() })
	counter("mpcserve_reshard_total", "Elastic resizes completed (state migrated onto a new machine count).",
		func(in *instance) uint64 { return in.reshardCount.Load() })
	const reshardSec = "mpcserve_reshard_seconds"
	fmt.Fprintf(&b, "# HELP %s Wall-clock seconds spent quiesced in elastic resizes (checkpoint + re-shard + chain re-base).\n# TYPE %s counter\n", reshardSec, reshardSec)
	for _, in := range s.insts {
		fmt.Fprintf(&b, "%s{instance=\"%d\"} %s\n", reshardSec, in.id,
			formatFloat(time.Duration(in.reshardNanos.Load()).Seconds()))
	}
	// Checkpoint counters carry a kind label ("full" or "delta") so the cost
	// split of the delta strategy is visible directly from a scrape.
	kinded := func(name, help string, of func(in *instance, kind string) uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, in := range s.insts {
			for _, kind := range []string{"full", "delta"} {
				fmt.Fprintf(&b, "%s{instance=\"%d\",kind=%q} %d\n", name, in.id, kind, of(in, kind))
			}
		}
	}
	kinded("mpcserve_checkpoint_total", "Checkpoints written, by container kind.",
		func(in *instance, kind string) uint64 {
			if kind == "delta" {
				return in.ckptDeltaCount.Load()
			}
			return in.ckptFullCount.Load()
		})
	kinded("mpcserve_checkpoint_bytes_total", "Checkpoint container bytes written, by kind.",
		func(in *instance, kind string) uint64 {
			if kind == "delta" {
				return in.ckptDeltaBytes.Load()
			}
			return in.ckptFullBytes.Load()
		})
	const ckptSec = "mpcserve_checkpoint_seconds_total"
	fmt.Fprintf(&b, "# HELP %s Wall-clock seconds spent writing checkpoints, by kind.\n# TYPE %s counter\n", ckptSec, ckptSec)
	for _, in := range s.insts {
		fmt.Fprintf(&b, "%s{instance=\"%d\",kind=\"full\"} %s\n", ckptSec, in.id,
			formatFloat(time.Duration(in.ckptFullNanos.Load()).Seconds()))
		fmt.Fprintf(&b, "%s{instance=\"%d\",kind=\"delta\"} %s\n", ckptSec, in.id,
			formatFloat(time.Duration(in.ckptDeltaNanos.Load()).Seconds()))
	}
	gauge("mpcserve_queue_depth", "Update batches waiting in the bounded queue.",
		func(in *instance) float64 { return float64(len(in.queue)) })
	gauge("mpcserve_cluster_machines", "Machines in the instance's MPC fleet (changes on resize).",
		func(in *instance) float64 { return float64(in.machines()) })
	gauge("mpcserve_instance_ready", "1 while the instance admits updates, 0 while quiesced or failed.",
		func(in *instance) float64 {
			if in.failed() != nil || in.quiesced.Load() {
				return 0
			}
			return 1
		})
	gauge("mpcserve_instance_healthy", "1 while the instance serves traffic, 0 after an applier failure.",
		func(in *instance) float64 {
			if in.failed() != nil {
				return 0
			}
			return 1
		})

	const hist = "mpcserve_batch_apply_seconds"
	fmt.Fprintf(&b, "# HELP %s Wall-clock latency of one applied update batch.\n# TYPE %s histogram\n", hist, hist)
	for _, in := range s.insts {
		var cum uint64
		for i, ub := range latencyBuckets {
			cum += in.applyBuckets[i].Load()
			fmt.Fprintf(&b, "%s_bucket{instance=\"%d\",le=\"%s\"} %d\n", hist, in.id, formatFloat(ub), cum)
		}
		cum += in.applyBuckets[len(latencyBuckets)].Load()
		fmt.Fprintf(&b, "%s_bucket{instance=\"%d\",le=\"+Inf\"} %d\n", hist, in.id, cum)
		fmt.Fprintf(&b, "%s_sum{instance=\"%d\"} %s\n", hist, in.id,
			formatFloat(time.Duration(in.applyNanos.Load()).Seconds()))
		fmt.Fprintf(&b, "%s_count{instance=\"%d\"} %d\n", hist, in.id, in.applyCount.Load())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(b.Bytes())
}

// formatFloat renders a float the way Prometheus expects (no exponent for
// the magnitudes used here, no trailing zeros).
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
