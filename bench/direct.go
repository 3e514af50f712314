package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/workload"
)

// direct drives core.DynamicConnectivity in-process with a snapshot.Chain on
// disk for durability, the way the harness crash/fault decorators and
// cmd/mpcstream do. With an edge list it is the file front-end: setup
// converts the list to a binary trace, and every batch is pulled through
// trace.Reader and workload.Mirrored before it is applied.
type direct struct {
	r         *run
	cfg       core.Config // current cluster shape
	dir       string
	maxDeltas int
	dc        *core.DynamicConnectivity
	chain     *snapshot.Chain

	// File front-end only.
	edgeList []byte
	file     *os.File
	src      *workload.Mirrored
	convert  trace.ConvertStats
	traceLen int64

	convertMallocs uint64 // traced runs only

	rounds         int // cluster rounds when the last checkpoint was cut
	restoredRounds int // and what the last restored instance came up with
	compactions    int
	deltas         int
	chainLens      []float64
	fullSeconds    float64 // time spent in full checkpoints so far
	bytesFull      int64   // size of the last full container
	bytesDelta     int64   // bytes of all delta containers
}

func newDirect(r *run, edgeList []byte) *direct {
	sp := r.spec
	return &direct{
		r:         r,
		cfg:       coreConfig(sp, r.seed),
		dir:       r.dir,
		maxDeltas: sp.maxDeltaChain,
		edgeList:  edgeList,
	}
}

func (d *direct) snapPath() string { return filepath.Join(d.dir, "session.snap") }

// timedSource is the benchmark's wrapper around trace.Reader: the time spent
// in it is the decode child of the batch span.
type timedSource struct {
	r   *run
	src *trace.Reader
}

func (t timedSource) Next() (b graph.Batch, err error) {
	t.r.span("trace.decode", t.r.opID, func() error {
		b, err = t.src.Next()
		return nil
	})
	return b, err
}

func (t timedSource) Shape() workload.Shape { return t.src.Shape() }

// setup is everything from nothing to "ready for the first steady batch".
func (d *direct) setup(sc *script) error {
	if d.edgeList != nil {
		if err := d.convertAndOpen(); err != nil {
			return err
		}
	}
	_, err := d.r.span("core.new", 0, func() (err error) {
		d.dc, err = core.NewDynamicConnectivity(d.cfg)
		return err
	})
	if err != nil {
		return err
	}
	d.chain = snapshot.OpenChain(d.snapPath(), d.maxDeltas)
	if sc.initial != nil {
		_, err := d.r.span("core.bootstrap", 0, func() error {
			_, err := d.dc.Bootstrap(sc.initial)
			return err
		})
		return err
	}
	for _, st := range sc.prefill {
		if _, err := d.applyBatch(st); err != nil {
			return err
		}
	}
	return nil
}

func (d *direct) convertAndOpen() error {
	path := filepath.Join(d.dir, "input.trace")
	var ms0, ms1 runtime.MemStats
	if d.r.tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	_, err := d.r.span("trace.convert", 0, func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w, err := trace.NewWriter(f, trace.WriterOptions{N: d.cfg.N})
		if err != nil {
			return err
		}
		if d.convert, err = trace.ConvertEdgeList(bytes.NewReader(d.edgeList), w, trace.ConvertOptions{BatchSize: d.r.spec.batch}); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	if d.r.tr != nil {
		runtime.ReadMemStats(&ms1)
		d.convertMallocs = ms1.Mallocs - ms0.Mallocs
	}
	if d.file != nil {
		d.file.Close()
	}
	_, err = d.r.span("trace.open", 0, func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		d.file = f
		rd, err := trace.NewReader(f)
		if err != nil {
			return err
		}
		d.src = workload.NewMirrored(timedSource{r: d.r, src: rd})
		return nil
	})
	if err != nil {
		return fmt.Errorf("open trace: %w", err)
	}
	st, err := d.file.Stat()
	if err != nil {
		return err
	}
	d.traceLen = st.Size()
	return nil
}

func (d *direct) discard() error {
	d.dc, d.chain, d.src = nil, nil, nil
	return nil
}

// applyBatch returns the batch it applied: the script's own for the session
// front-end, the one the trace yielded for the file front-end.
func (d *direct) applyBatch(st *step) (graph.Batch, error) {
	b := st.batch
	if d.src != nil {
		_, err := d.r.span("workload.validate", d.r.opID, func() (err error) {
			b, err = d.src.Next()
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	_, err := d.r.span("core.apply", d.r.opID, func() error { return d.dc.ApplyBatch(b) })
	return b, err
}

func (d *direct) queryBatch(q *query) (answer, error) {
	var a answer
	d.r.span("core.query", d.r.opID, func() error {
		a.connected = d.dc.ConnectedAll(q.pairs)
		return nil
	})
	a.comps = -1 // ConnectedAll alone is the session's query; the count is not asked for
	return a, nil
}

func (d *direct) checkpoint() (string, error) {
	wasLen := d.chain.Len()
	start := time.Now()
	kind, n, err := d.chain.Checkpoint(d.dc)
	end := time.Now()
	d.r.tr.record("snapshot.checkpoint_"+kind, d.r.opID, start, end)
	if err != nil {
		return kind, err
	}
	if kind == snapshot.KindFull {
		d.fullSeconds += end.Sub(start).Seconds()
		d.bytesFull = n
		if wasLen >= d.maxDeltas {
			d.compactions++
		}
	} else {
		d.bytesDelta += n
		d.deltas++
	}
	d.rounds = d.dc.Cluster().Stats().Rounds
	d.r.sampleCheckpoint(kind, end.Sub(start))
	return kind, nil
}

func (d *direct) kill() { d.dc, d.chain = nil, nil }

func (d *direct) recover() error {
	_, err := d.r.span("core.new", d.r.opID, func() (err error) {
		d.dc, err = core.NewDynamicConnectivity(d.cfg)
		return err
	})
	if err != nil {
		return err
	}
	_, err = d.r.span("snapshot.restore", d.r.opID, func() error {
		d.chain = snapshot.OpenChain(d.snapPath(), d.maxDeltas)
		ok, err := d.chain.Restore(d.dc)
		if err == nil && !ok {
			err = fmt.Errorf("no base snapshot at %s", d.snapPath())
		}
		return err
	})
	if err != nil {
		return err
	}
	d.chainLens = append(d.chainLens, float64(d.chain.Len()))
	d.restoredRounds = d.dc.Cluster().Stats().Rounds
	return nil
}

// verifyRestored checks the counters a restore must carry over.
func (d *direct) verifyRestored() error {
	if d.restoredRounds != d.rounds {
		return fmt.Errorf("restored instance reports %d cluster rounds, the checkpointed one had %d", d.restoredRounds, d.rounds)
	}
	return nil
}

// resize follows server.instance.resize step for step: checkpoint the live
// state in memory, restore it onto a fresh fleet at the target shape through
// the re-sharding path, then re-base the chain with a full checkpoint there.
func (d *direct) resize(machines int) error {
	tcfg, err := core.ResizeConfig(d.cfg, machines)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if _, err := d.r.span("snapshot.save_mem", d.r.opID, func() error { return snapshot.Save(&buf, d.dc) }); err != nil {
		return err
	}
	var fresh *core.DynamicConnectivity
	_, err = d.r.span("core.new", d.r.opID, func() (err error) {
		fresh, err = core.NewDynamicConnectivity(tcfg)
		return err
	})
	if err != nil {
		return err
	}
	_, err = d.r.span("snapshot.reshard", d.r.opID, func() error {
		return snapshot.Reshard(bytes.NewReader(buf.Bytes()), fresh)
	})
	if err != nil {
		return err
	}
	d.dc, d.cfg = fresh, tcfg
	d.chain.Rebase()
	kind, err := d.checkpoint()
	if err == nil && kind != snapshot.KindFull {
		err = fmt.Errorf("checkpoint after Rebase was %q, want full", kind)
	}
	return err
}

func (d *direct) fullCheckpointSeconds() (float64, error) { return d.fullSeconds, nil }

func (d *direct) machines() int { return d.cfg.MachineCount() }

func (d *direct) labels() ([]int, error) { return d.dc.SnapshotComponents(), nil }

func (d *direct) counters() (counters, error) {
	st := d.dc.Cluster().Stats()
	hits, misses := d.dc.QueryCacheStats()
	return counters{
		rounds: float64(st.Rounds), cacheHits: float64(hits), cacheMisses: float64(misses), stats: &st,
	}, nil
}

func (d *direct) close() {
	if d.file != nil {
		d.file.Close()
	}
}

// counters is what a front-end can read of the program's own counts.
type counters struct {
	rounds, cacheHits, cacheMisses float64
	stats                          *mpc.Stats         // direct front-ends only
	scrape                         map[string]float64 // HTTP front-end only: the /metrics page
}
