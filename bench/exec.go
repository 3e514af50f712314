package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// report is everything one run prints: the first line of standard output.
type report struct {
	Workload     string           `json:"workload"`
	Seed         uint64           `json:"seed"`
	Seconds      int              `json:"seconds"`
	Scale        string           `json:"scale"`
	Traced       bool             `json:"traced"`
	EndToEnd     map[string]value `json:"end_to_end"`
	PerLayer     map[string]value `json:"per_layer,omitempty"`
	Host         map[string]value `json:"host"` // the host.* per-layer metrics, which every run takes
	OpsAttempted int              `json:"ops_attempted"`
	OpsFailed    int              `json:"ops_failed"`
	Error        string           `json:"error,omitempty"`
	Sizes        map[string]int   `json:"sizes"`
	Fingerprint  fingerprint      `json:"fingerprint"`
	WallS        float64          `json:"wall_s"`
}

type fingerprint struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Go           string `json:"go"`
	CheckpointFS string `json:"checkpoint_fs"`
	Commit       string `json:"commit"`
	Race         bool   `json:"race"`
}

func newFingerprint(dir string) fingerprint {
	fp := fingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CheckpointFS: fsType(dir), Commit: "unknown", Race: raceEnabled,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// fsType names the filesystem holding dir, from the longest matching mount
// point in /proc/mounts ("unknown" where there is no such file).
func fsType(dir string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, kind = mp, f[2]
		}
	}
	return kind
}

func rusage() (user, sys, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procStats is what a traced run reads of its own process around the steady
// phase.
type procStats struct {
	ms        runtime.MemStats
	user, sys float64
}

func readProc() procStats {
	var p procStats
	runtime.ReadMemStats(&p.ms)
	p.user, p.sys, _ = rusage()
	return p
}

// execute runs one workload once and reports it. The error is non-nil when
// an operation failed or an answer disagreed with the oracle.
func execute(sp spec, scale string, seed uint64, secs int, traced bool, workdir, traceFile string) (rep *report, err error) {
	began := time.Now()
	dir, err := os.MkdirTemp(workdir, sp.name+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	sc := buildScript(sp, seed, secs)
	host, err := newHostSpeed()
	if err != nil {
		return nil, err
	}
	defer host.close()
	r := &run{spec: sp, seed: seed, dir: dir, host: host}
	if traced {
		r.tr = newTracer()
	}
	var file *direct
	var web *httpFE
	if sp.http {
		web = newHTTP(r)
		r.fe = web
	} else {
		file = newDirect(r, sc.edgeList)
		r.fe = file
	}
	defer r.fe.close()

	rep = &report{
		Workload: sp.name, Seed: seed, Seconds: secs, Scale: scale, Traced: traced,
		Fingerprint: newFingerprint(dir),
		Sizes: map[string]int{
			"n": sp.n, "machines": r.homeMachines(), "max_batch": coreConfig(sp, seed).MaxBatch(),
			"prefill_batches": len(sc.prefill), "steady_batches": len(sc.steady), "batch_updates": sp.batch,
			"tail_cycles": sp.tailCycles, "setups": sp.setups, "edge_list_lines": sp.lines * secs,
		},
	}
	defer func() {
		if p := recover(); p != nil {
			f, ok := p.(fatal)
			if !ok {
				panic(p)
			}
			err = f.err
		}
		rep.OpsAttempted, rep.OpsFailed = r.attempted, r.failed
		if err == nil && r.failed > 0 {
			err = fmt.Errorf("%d of %d operations failed, first: %w", r.failed, r.attempted, r.firstErr)
		}
		if err != nil {
			rep.Error = err.Error()
		}
		rep.WallS = time.Since(began).Seconds()
	}()

	// Setup, repeated; only the last instance lives on. Each is bracketed by
	// bursts of host-speed probes and reported in reference time.
	for k := 0; k < sp.setups; k++ {
		if k > 0 {
			runtime.GC()
			r.must(r.fe.discard())
		}
		first := host.burst()
		d := r.timedOp("setup", func() error { return r.fe.setup(sc) }).Seconds()
		host.burst()
		r.sm.setup = append(r.sm.setup, d)
		r.sm.setupRef = append(r.sm.setupRef, d*host.factor(first, host.at()))
	}

	// Steady.
	var p0, p1 procStats
	c0, err := r.fe.counters()
	r.must(err)
	r.baseHits, r.baseMisses = c0.cacheHits, c0.cacheMisses
	firstSteady := r.opID + 1
	polls := 0
	if web != nil {
		polls = web.polls
	}
	if traced {
		p0 = readProc()
	}
	firstProbe := host.at()
	for i, st := range sc.steady {
		host.tick()
		r.applyStep(st, true)
		for j := range st.queries {
			r.sm.queryAt = append(r.sm.queryAt, host.at())
			r.sm.query = append(r.sm.query, r.ask(&st.queries[j]).Seconds())
		}
		ckpt, restart, resize := sp.lifecycleAfter(i)
		probes := st.probes
		if restart {
			r.opRestart(&probes[0])
			probes = probes[1:]
		} else if ckpt {
			r.opCheckpoint()
		}
		if resize {
			r.opResize(&probes[0])
			probes = probes[1:]
		}
	}
	if traced {
		p1 = readProc()
	}
	lastSteady := r.opID
	host.probe()
	steadyProbes := host.points[firstProbe:]
	if web != nil {
		polls = web.polls - polls
	}
	r.noteCache()
	c1, err := r.fe.counters()
	r.must(err)
	r.verifyLabels()
	steadyHits, steadyMisses := r.cacheHits, r.cacheMisses

	// Tail: identical restart/resize cycles. Only a traced run reports the
	// lifecycle medians, so only it pays for all the cycles; an untraced run
	// makes one, to check that what it measured restarts and resizes.
	cycles := sp.tailCycles
	if !traced {
		cycles = 1
	}
	probe := &sc.steady[len(sc.steady)-1].probes[len(sc.steady[len(sc.steady)-1].probes)-1]
	for c := 0; c < cycles; c++ {
		t := sc.tail[2*c : 2*c+2]
		r.opResize(probe)
		r.applyStep(t[0], false)
		r.applyStep(t[1], false)
		r.opRestart(&t[1].probes[0])
		probe = &t[1].probes[1]
	}

	// End-to-end metrics: times in reference time, see hostspeed.go.
	_, _, rss := rusage()
	updates := 0
	for _, u := range r.sm.batchUpdates {
		updates += u
	}
	e2e := map[string]value{}
	put := func(m map[string]value, defs []metricDef, name string, v float64, n int) {
		for _, d := range defs {
			if d.Name == name {
				m[name] = value{Value: v, Unit: d.Unit, Samples: n}
				return
			}
		}
		panic("bench: metric " + name + " is not in the contract")
	}
	e := func(name string, v float64, n int) { put(e2e, endToEnd, name, v, n) }
	batchRef := host.reference(r.sm.batch, r.sm.batchAt)
	queryRef := host.reference(r.sm.query, r.sm.queryAt)
	e("setup_s", median(r.sm.setupRef), len(r.sm.setupRef))
	e("updates_per_s", segmentThroughput(batchRef, r.sm.batchUpdates, 16), len(batchRef))
	e("batch_p50_ms", 1e3*median(batchRef), len(batchRef))
	e("query_p50_ms", 1e3*median(queryRef), len(queryRef))
	e("rounds_per_batch", (c1.rounds-c0.rounds)/float64(len(sc.steady)), len(sc.steady))
	e("peak_rss_mb", rss, 1)
	rep.EndToEnd = e2e
	rep.Host = map[string]value{}
	h := func(name string, v float64, n int) { put(rep.Host, perLayer, name, v, n) }
	h("host.probe_ms", 1e3*median(steadyProbes), len(steadyProbes))
	q1, q3 := quartiles(steadyProbes)
	h("host.probe_spread_pct", 100*(q3-q1)/median(steadyProbes), len(steadyProbes))
	h("host.setup_wall_s", median(r.sm.setup), len(r.sm.setup))
	h("host.batch_wall_p50_ms", 1e3*median(r.sm.batch), len(r.sm.batch))
	h("host.query_wall_p50_ms", 1e3*median(r.sm.query), len(r.sm.query))
	if !traced {
		return rep, nil
	}

	// Per-layer metrics, from the spans and the program's own counters.
	pl := map[string]value{}
	for _, d := range perLayer {
		pl[d.Name] = value{Unit: d.Unit}
	}
	l := func(name string, v float64, n int) { put(pl, perLayer, name, v, n) }
	l("batch_p95_ms", 1e3*percentile(batchRef, 0.95), len(batchRef))
	l("checkpoint_full_s", median(r.sm.full), len(r.sm.full))
	l("checkpoint_delta_ms", 1e3*median(r.sm.delta), len(r.sm.delta))
	l("recover_s", median(r.sm.recover), len(r.sm.recover))
	l("resize_s", median(r.sm.resize), len(r.sm.resize))
	steady := r.tr.collect(firstSteady, lastSteady)
	all := r.tr.collect(0, r.opID)
	nb := float64(len(sc.steady))
	ms := func(name string, xs []float64, p float64) { l(name, 1e3*percentile(xs, p), len(xs)) }
	us := func(name string, xs []float64, p float64) { l(name, 1e6*percentile(xs, p), len(xs)) }
	batchSum := sum(steady.total["batch"])
	rootSum := 0.0
	for _, name := range []string{"batch", "query", "checkpoint", "recover", "resize"} {
		rootSum += steady.roots[name]
	}

	if file != nil && file.edgeList != nil {
		conv := all.total["trace.convert"]
		l("trace.convert_s", median(conv), len(conv))
		l("trace.convert_lines_per_s", float64(file.convert.Lines)/median(conv), len(conv))
		l("trace.convert_allocs_per_line", float64(file.convertMallocs)/float64(file.convert.Lines), 1)
		ms("trace.open_ms", all.total["trace.open"], 0.5)
		l("trace.bytes_per_update", float64(file.traceLen)/float64(file.convert.Updates), 1)
		dec := steady.self["trace.decode"]
		l("trace.decode_us_per_batch", 1e6*sum(dec)/nb, len(dec))
		l("trace.decode_mb_per_s", float64(file.traceLen)/1e6/sum(all.self["trace.decode"]), len(all.self["trace.decode"]))
		us("workload.validate_p50_us", steady.self["workload.validate"], 0.5)
		l("steady.ingest_share", sum(steady.total["workload.validate"])/batchSum, len(steady.total["workload.validate"]))
	}
	if web != nil {
		m0, m1 := c0.scrape, c1.scrape
		ms("server.new_ms", all.total["server.new"][:sp.setups], 0.5)
		ms("server.post_ack_p50_ms", steady.total["server.post"], 0.5)
		ms("server.apply_wait_p50_ms", steady.total["server.wait_applied"], 0.5)
		busy := m1[metricApplySum] - m0[metricApplySum]
		l("server.apply_busy_s", busy, len(sc.steady))
		l("server.apply_share", busy/batchSum, len(sc.steady))
		ms("server.query_p50_ms", steady.total["server.query"], 0.5)
		ms("server.query_p99_ms", steady.total["server.query"], 0.99)
		l("server.cache_hits", steadyHits, 1)
		l("server.cache_misses", steadyMisses, 1)
		final, err := web.scrape()
		r.must(err)
		l("server.rejected_429", web.rejected+final[metricRejected], 1)
		l("server.polls_per_batch", float64(polls)/nb, len(sc.steady))
		ms("server.restore_new_ms", all.total["server.new"][sp.setups:], 0.5)
		ms("server.resize_ms", all.total["server.resize"], 0.5)
		l("server.ckpt_full_bytes", web.fullBytes, 1)
		l("server.ckpt_delta_bytes", web.deltaBytes, web.deltas)
		l("mpc.machines", m1[metricMachines], 1)
		ref, err := core.NewDynamicConnectivity(coreConfig(sp, seed))
		r.must(err)
		l("sketch.words_per_vertex", float64(ref.SpaceWords()), 1)
	}
	if file != nil {
		s0, s1 := c0.stats, c1.stats
		ms("core.apply_p50_ms", steady.total["core.apply"], 0.5)
		ms("core.apply_p99_ms", steady.total["core.apply"], 0.99)
		us("core.query_p50_us", steady.total["core.query"], 0.5)
		us("core.query_p99_us", steady.total["core.query"], 0.99)
		l("core.cache_hits", steadyHits, 1)
		l("core.cache_misses", steadyMisses, 1)
		us("core.first_answer_us", r.sm.firstAnswer, 0.5)
		l("mpc.machines", float64(r.homeMachines()), 1)
		l("mpc.messages_per_batch", float64(s1.Messages-s0.Messages)/nb, len(sc.steady))
		l("mpc.words_per_batch", float64(s1.WordsSent-s0.WordsSent)/nb, len(sc.steady))
		end := file.dc.Cluster().Stats()
		l("mpc.max_recv_words", float64(end.MaxRecvWords), 1)
		l("mpc.max_send_words", float64(end.MaxSendWords), 1)
		l("mpc.peak_machine_words", float64(end.PeakMachineWords), 1)
		l("mpc.peak_total_words", float64(end.PeakTotalWords), 1)
		l("mpc.violations", float64(len(end.Violations)), 1)
		l("sketch.words_per_vertex", float64(file.dc.SpaceWords()), 1)
		full := all.total["snapshot.checkpoint_full"]
		l("snapshot.full_bytes", float64(file.bytesFull), 1)
		l("snapshot.full_mb_per_s", float64(file.bytesFull)/1e6/median(full), len(full))
		l("snapshot.delta_bytes", float64(file.bytesDelta), file.deltas)
		ms("snapshot.restore_p50_ms", all.total["snapshot.restore"], 0.5)
		l("snapshot.restore_chain_len", sum(file.chainLens), len(file.chainLens))
		l("snapshot.compactions", float64(file.compactions), 1)
		ms("snapshot.save_mem_ms", all.total["snapshot.save_mem"], 0.5)
		ms("snapshot.reshard_p50_ms", all.total["snapshot.reshard"], 0.5)
		snap := 0.0
		for _, name := range []string{"snapshot.checkpoint_full", "snapshot.checkpoint_delta", "snapshot.restore", "snapshot.save_mem", "snapshot.reshard"} {
			snap += sum(steady.total[name])
		}
		l("steady.snapshot_share", snap/rootSum, 1)
	}
	ms("core.new_ms", all.total["core.new"], 0.5)
	l("steady.query_share", steady.roots["query"]/rootSum, len(steady.total["query"]))
	l("core.apply_allocs_per_batch", float64(p1.ms.Mallocs-p0.ms.Mallocs)/nb, len(sc.steady))
	l("core.apply_bytes_per_batch", float64(p1.ms.TotalAlloc-p0.ms.TotalAlloc)/nb, len(sc.steady))
	l("proc.cpu_user_s", p1.user-p0.user, 1)
	l("proc.cpu_sys_s", p1.sys-p0.sys, 1)
	l("proc.gc_cycles", float64(p1.ms.NumGC-p0.ms.NumGC), 1)
	l("proc.gc_pause_ms", float64(p1.ms.PauseTotalNs-p0.ms.PauseTotalNs)/1e6, 1)
	l("proc.mallocs_per_update", float64(p1.ms.Mallocs-p0.ms.Mallocs)/float64(updates), updates)
	l("proc.alloc_mb_total", float64(p1.ms.TotalAlloc-p0.ms.TotalAlloc)/1e6, 1)
	for name, v := range rep.Host {
		pl[name] = v
	}
	l("proc.trace_overhead_pct", 100*recordCostNs()*float64(steady.count)/1e9/rootSum, steady.count)
	rep.PerLayer = pl
	if traceFile != "" {
		if err := r.tr.writeFile(traceFile); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// segmentThroughput cuts the steady phase into equal-count segments and
// returns the median over segments of updates applied per second of batch
// span, which one slow stretch cannot drag the way a whole-run mean can.
func segmentThroughput(spans []float64, updates []int, segments int) float64 {
	if len(spans) < segments {
		segments = len(spans)
	}
	var rates []float64
	for s := 0; s < segments; s++ {
		lo, hi := s*len(spans)/segments, (s+1)*len(spans)/segments
		t, u := 0.0, 0
		for i := lo; i < hi; i++ {
			t += spans[i]
			u += updates[i]
		}
		rates = append(rates, float64(u)/t)
	}
	return median(rates)
}
