package server

import (
	"bytes"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/session"
	"repro/internal/snapshot"
)

// metrics is every series an instance keeps for /metrics: atomic.Uint64s
// only, so scrapes never take the instance locks (and TestMetricsEndpoint
// can bump each word). A new series is a field here (if it is not read off
// other instance state) and a row of families.
type metrics struct {
	rounds          atomic.Uint64
	batchesApplied  atomic.Uint64
	updatesApplied  atomic.Uint64
	batchesRejected atomic.Uint64
	queryBatches    atomic.Uint64
	restoreCycles   atomic.Uint64
	// replayedUpdates counts the journaled updates the delta containers of
	// the restore at startup replayed: what that restore's time grew with.
	replayedUpdates atomic.Uint64
	reshards        atomic.Uint64
	reshardNanos    atomic.Uint64
	// ckpt is indexed like ckptKinds.
	ckpt  [len(ckptKinds)]struct{ count, bytes, nanos atomic.Uint64 }
	apply histogram
}

// ckptKinds are the container kinds the checkpoint rows split by, in scrape
// order; kindLabels spells them as the rows' kind label.
var (
	ckptKinds  = [...]string{snapshot.KindFull, snapshot.KindDelta}
	kindLabels = [...]string{`,kind="` + ckptKinds[0] + `"`, `,kind="` + ckptKinds[1] + `"`}
)

// observeCheckpoint records one written container under its kind; the zero
// Cut (no chain, nothing written) records nothing.
func (m *metrics) observeCheckpoint(cut session.Cut) {
	for k, kind := range ckptKinds {
		if cut.Kind == kind {
			m.ckpt[k].count.Add(1)
			m.ckpt[k].bytes.Add(uint64(cut.Bytes))
			m.ckpt[k].nanos.Add(uint64(cut.Took))
		}
	}
}

// latencyBuckets are the upper bounds, in seconds, of a latency histogram
// (one overflow bucket is added for +Inf); leLabels spells them as labels.
var (
	latencyBuckets = [...]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}
	leLabels       = func() (ls [len(latencyBuckets) + 1]string) {
		for i, ub := range latencyBuckets {
			ls[i] = `,le="` + strconv.FormatFloat(ub, 'g', -1, 64) + `"`
		}
		ls[len(latencyBuckets)] = `,le="+Inf"`
		return ls
	}()
)

// histogram is a latency distribution over latencyBuckets.
type histogram struct {
	buckets      [len(latencyBuckets) + 1]atomic.Uint64
	nanos, count atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	h.nanos.Add(uint64(d))
	h.count.Add(1)
	h.buckets[sort.SearchFloat64s(latencyBuckets[:], d.Seconds())].Add(1)
}

// family is one row of the scrape: a metric family and where its value is
// read off an instance. Every sample carries instance="N".
type family struct {
	name, typ, help string
	// kinded rows have one sample per checkpoint kind; of gets its index.
	kinded bool
	// seconds rows hold nanoseconds and print them as seconds.
	seconds bool
	of      func(in *instance, kind int) uint64
	hist    func(in *instance) *histogram // histogram rows only
}

// families is the /metrics page, in scrape order; each row's HELP is its
// documentation.
var families = [...]family{
	{name: "mpcserve_rounds_total", typ: "counter", help: "Cumulative MPC rounds executed by the instance (observed on the update path).",
		of: func(in *instance, _ int) uint64 { return in.rounds.Load() }},
	{name: "mpcserve_query_cache_hits_total", typ: "counter", help: "Query batches answered entirely from the warm label cache (zero rounds).",
		of: func(in *instance, _ int) uint64 { hits, _ := in.dc.Load().QueryCacheStats(); return hits }},
	{name: "mpcserve_query_cache_misses_total", typ: "counter", help: "Query batches that ran a cache-fill collective.",
		of: func(in *instance, _ int) uint64 { _, misses := in.dc.Load().QueryCacheStats(); return misses }},
	{name: "mpcserve_replacement_search_exhausted_total", typ: "counter", help: "Replacement searches that spent every sketch copy with an active supernode left (the partition may be too fine).",
		of: func(in *instance, _ int) uint64 { return in.dc.Load().SearchStats().Exhausted }},
	{name: "mpcserve_replacement_search_window_refills_total", typ: "counter", help: "Windows of sketch copies a replacement search fetched beyond its first (rare at the default copy count).",
		of: func(in *instance, _ int) uint64 { return in.dc.Load().SearchStats().Refills }},
	{name: "mpcserve_replacement_sketches_summed_total", typ: "counter", help: "Vertex sketches summed by replacement searches (passive fragments are skipped).",
		of: func(in *instance, _ int) uint64 { return in.dc.Load().SearchStats().SketchesSummed }},
	{name: "mpcserve_update_batches_applied_total", typ: "counter", help: "Update batches applied by the instance's applier.",
		of: func(in *instance, _ int) uint64 { return in.batchesApplied.Load() }},
	{name: "mpcserve_updates_applied_total", typ: "counter", help: "Individual edge updates applied.",
		of: func(in *instance, _ int) uint64 { return in.updatesApplied.Load() }},
	{name: "mpcserve_update_batches_rejected_total", typ: "counter", help: "Update batches refused with 429 because the queue was full.",
		of: func(in *instance, _ int) uint64 { return in.batchesRejected.Load() }},
	{name: "mpcserve_query_batches_total", typ: "counter", help: "Query batches answered (connectivity and component lookups).",
		of: func(in *instance, _ int) uint64 { return in.queryBatches.Load() }},
	{name: "mpcserve_restore_cycles_total", typ: "counter", help: "Checkpoint/restore cycles this instance has survived.",
		of: func(in *instance, _ int) uint64 { return in.restoreCycles.Load() }},
	{name: "mpcserve_restore_replayed_updates_total", typ: "counter", help: "Journaled updates replayed on top of the base by restores from a delta chain.",
		of: func(in *instance, _ int) uint64 { return in.replayedUpdates.Load() }},
	{name: "mpcserve_reshard_total", typ: "counter", help: "Elastic resizes completed (state migrated onto a new machine count).",
		of: func(in *instance, _ int) uint64 { return in.reshards.Load() }},
	{name: "mpcserve_reshard_seconds", typ: "counter", help: "Wall-clock seconds spent quiesced in elastic resizes (checkpoint + re-shard + chain re-base).",
		seconds: true, of: func(in *instance, _ int) uint64 { return in.reshardNanos.Load() }},
	{name: "mpcserve_checkpoint_total", typ: "counter", help: "Checkpoints written, by container kind.",
		kinded: true, of: func(in *instance, k int) uint64 { return in.ckpt[k].count.Load() }},
	{name: "mpcserve_checkpoint_bytes_total", typ: "counter", help: "Checkpoint container bytes written, by kind.",
		kinded: true, of: func(in *instance, k int) uint64 { return in.ckpt[k].bytes.Load() }},
	{name: "mpcserve_checkpoint_seconds_total", typ: "counter", help: "Wall-clock seconds spent writing checkpoints, by kind.",
		kinded: true, seconds: true, of: func(in *instance, k int) uint64 { return in.ckpt[k].nanos.Load() }},
	{name: "mpcserve_queue_depth", typ: "gauge", help: "Update batches waiting in the bounded queue.",
		of: func(in *instance, _ int) uint64 { return uint64(len(in.queue)) }},
	{name: "mpcserve_cluster_machines", typ: "gauge", help: "Machines in the instance's MPC fleet (changes on resize).",
		of: func(in *instance, _ int) uint64 { return uint64(in.machines()) }},
	{name: "mpcserve_instance_ready", typ: "gauge", help: "1 while the instance admits updates, 0 while quiesced or failed.",
		of: func(in *instance, _ int) uint64 { return one(in.failed() == nil && !in.quiesced.Load()) }},
	{name: "mpcserve_instance_healthy", typ: "gauge", help: "1 while the instance serves traffic, 0 after an applier failure.",
		of: func(in *instance, _ int) uint64 { return one(in.failed() == nil) }},
	{name: "mpcserve_batch_apply_seconds", typ: "histogram", help: "Wall-clock latency of one applied update batch.",
		hist: func(in *instance) *histogram { return &in.apply }},
}

func one(ok bool) uint64 {
	if ok {
		return 1
	}
	return 0
}

// handleMetrics renders families in Prometheus text exposition format. Every
// value is an atomic read, so scrapes never contend with the update or query
// paths.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b bytes.Buffer
	for i := range families {
		f := &families[i]
		for _, part := range [...]string{"# HELP ", f.name, " ", f.help, "\n# TYPE ", f.name, " ", f.typ, "\n"} {
			b.WriteString(part)
		}
		for _, in := range s.insts {
			switch {
			case f.hist != nil:
				h, cum := f.hist(in), uint64(0)
				for j := range h.buckets {
					cum += h.buckets[j].Load()
					sample(&b, f.name+"_bucket", in.id, leLabels[j], cum, false)
				}
				sample(&b, f.name+"_sum", in.id, "", h.nanos.Load(), true)
				sample(&b, f.name+"_count", in.id, "", h.count.Load(), false)
			case f.kinded:
				for k := range ckptKinds {
					sample(&b, f.name, in.id, kindLabels[k], f.of(in, k), f.seconds)
				}
			default:
				sample(&b, f.name, in.id, "", f.of(in, 0), f.seconds)
			}
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(b.Bytes())
}

// sample appends the line name{instance="id"labels} v. v prints as an
// integer — never in exponent form — or, for a seconds row, as nanoseconds
// converted to seconds, in the shortest form that reads back exactly.
func sample(b *bytes.Buffer, name string, id int, labels string, v uint64, seconds bool) {
	b.WriteString(name)
	b.WriteString(`{instance="`)
	b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(id), 10))
	b.WriteString(`"`)
	b.WriteString(labels)
	b.WriteString("} ")
	if seconds {
		b.Write(strconv.AppendFloat(b.AvailableBuffer(), time.Duration(v).Seconds(), 'g', -1, 64))
	} else {
		b.Write(strconv.AppendUint(b.AvailableBuffer(), v, 10))
	}
	b.WriteByte('\n')
}
