package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/snapshot"
)

const (
	metricApplied  = `mpcserve_update_batches_applied_total{instance="0"}`
	metricHealthy  = `mpcserve_instance_healthy{instance="0"}`
	metricRounds   = `mpcserve_rounds_total{instance="0"}`
	metricHits     = `mpcserve_query_cache_hits_total{instance="0"}`
	metricMisses   = `mpcserve_query_cache_misses_total{instance="0"}`
	metricRejected = `mpcserve_update_batches_rejected_total{instance="0"}`
	metricRestores = `mpcserve_restore_cycles_total{instance="0"}`
	metricMachines = `mpcserve_cluster_machines{instance="0"}`
	metricApplySum = `mpcserve_batch_apply_seconds_sum{instance="0"}`
	metricCkptN    = `mpcserve_checkpoint_total{instance="0",kind=%q}`
	metricCkptB    = `mpcserve_checkpoint_bytes_total{instance="0",kind=%q}`
	metricCkptSec  = `mpcserve_checkpoint_seconds_total{instance="0",kind="full"}`
)

// httpFE drives internal/server over real HTTP: one httptest listener, one
// keep-alive connection, one request in flight. Applied-ness of an update
// batch is observed from outside, by polling /metrics.
type httpFE struct {
	r    *run
	cfg  server.Config
	srv  *server.Server
	ts   *httptest.Server
	cl   *http.Client
	buf  bytes.Buffer
	mach int

	applied  int // update batches this server incarnation has applied
	restores int // restore cycles the checkpoint chain has been through
	setups   int

	polls      int
	fullBytes  float64 // size of the last full container
	fullTotal  float64 // the server's full-checkpoint byte counter when last read
	deltaBytes float64 // bytes of all delta containers
	deltas     int
	rejected   float64
}

func newHTTP(r *run) *httpFE {
	sp := r.spec
	return &httpFE{
		r: r,
		cfg: server.Config{
			Instances: 1, N: sp.n, Phi: sp.phi, Seed: r.seed, Parallelism: 1,
			MaxDeltaChain: sp.maxDeltaChain,
		},
		cl: &http.Client{Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
	}
}

// start is server.New plus the listener in front of it.
func (h *httpFE) start() error {
	_, err := h.r.span("server.new", h.r.opID, func() (err error) {
		h.srv, err = server.New(h.cfg)
		return err
	})
	if err != nil {
		return err
	}
	h.ts = httptest.NewServer(h.srv)
	h.applied = 0
	return nil
}

func (h *httpFE) setup(sc *script) error {
	// Only the last set-up's server lives on and needs a chain; the earlier
	// ones run without a checkpoint directory so that discarding them does
	// not write 82 MB nobody reads.
	h.setups++
	h.cfg.CheckpointDir = ""
	if h.setups == h.r.spec.setups {
		h.cfg.CheckpointDir = h.r.dir + "/serve"
	}
	h.restores = 0
	if err := h.start(); err != nil {
		return err
	}
	m, err := h.scrape()
	if err != nil {
		return err
	}
	h.mach = int(m[metricMachines])
	for _, st := range sc.prefill {
		if _, err := h.applyBatch(st); err != nil {
			return err
		}
	}
	return nil
}

// discard shuts an extra set-up's server down.
func (h *httpFE) discard() error {
	h.cl.CloseIdleConnections()
	h.ts.Close()
	h.ts = nil
	return h.srv.Close()
}

// do sends one request on the keep-alive connection and returns the status
// and the whole body (valid until the next call).
func (h *httpFE) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.ts.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	h.buf.Reset()
	_, err = h.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, h.buf.Bytes(), err
}

func (h *httpFE) applyBatch(st *step) (graph.Batch, error) {
	start := time.Now()
	_, err := h.r.span("server.post", h.r.opID, func() error {
		code, body, err := h.do("POST", "/instances/0/updates", st.body)
		if err == nil && code != http.StatusAccepted {
			err = fmt.Errorf("POST updates: status %d: %s", code, bytes.TrimSpace(body))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	h.applied++
	_, err = h.r.span("server.wait_applied", h.r.opID, func() error { return h.waitApplied(start) })
	return st.batch, err
}

// waitApplied polls /metrics until the applied-batch counter reaches the
// batch just posted, sleeping max(200µs, elapsed/8) between polls so the
// detection error stays a bounded fraction of the latency it measures.
func (h *httpFE) waitApplied(start time.Time) error {
	for {
		code, page, err := h.do("GET", "/metrics", nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("GET /metrics: status %d", code)
		}
		h.polls++
		if v, ok := metricLine(page, metricApplied); ok && int(v) >= h.applied {
			return nil
		}
		if v, ok := metricLine(page, metricHealthy); ok && v == 0 {
			return fmt.Errorf("instance 0 turned unhealthy while applying batch %d", h.applied)
		}
		elapsed := time.Since(start)
		if elapsed > time.Minute {
			return fmt.Errorf("batch %d not applied after %v", h.applied, elapsed)
		}
		wait := elapsed / 8
		if wait < 200*time.Microsecond {
			wait = 200 * time.Microsecond
		}
		time.Sleep(wait)
	}
}

// metricLine finds one sample of a Prometheus text page.
func metricLine(page []byte, key string) (float64, bool) {
	i := bytes.Index(page, []byte("\n"+key+" "))
	if i < 0 {
		return 0, false
	}
	rest := page[i+len(key)+2:]
	if j := bytes.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	v, err := strconv.ParseFloat(string(rest), 64)
	return v, err == nil
}

// parseMetrics reads every sample of a Prometheus text page, keyed by name
// and label set exactly as printed.
func parseMetrics(page []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(page), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out
}

// scrape reads /metrics over HTTP while the server is up, and through the
// handler itself once Close has shut the listener's server down.
func (h *httpFE) scrape() (map[string]float64, error) {
	if h.ts == nil {
		rec := httptest.NewRecorder()
		h.srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return parseMetrics(rec.Body.Bytes()), nil
	}
	code, page, err := h.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	return parseMetrics(page), nil
}

func (h *httpFE) queryBatch(q *query) (answer, error) {
	var a answer
	_, err := h.r.span("server.query", h.r.opID, func() error {
		code, body, err := h.do("POST", "/instances/0/query", q.body)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("POST query: status %d: %s", code, bytes.TrimSpace(body))
		}
		a.body = body
		return err
	})
	return a, err
}

// checkpoint is srv.Close(): the graceful stop that drains the queue and
// writes the next container of the chain. The server is down afterwards.
func (h *httpFE) checkpoint() (string, error) {
	before, err := h.scrape()
	if err != nil {
		return "", err
	}
	h.rejected += before[metricRejected]
	h.cl.CloseIdleConnections()
	h.ts.Close()
	h.ts = nil
	start := time.Now()
	err = h.srv.Close()
	end := time.Now()
	if err != nil {
		return "", err
	}
	after, _ := h.scrape()
	kind := snapshot.KindDelta
	if after[fmt.Sprintf(metricCkptN, "full")] > before[fmt.Sprintf(metricCkptN, "full")] {
		kind = snapshot.KindFull
		h.fullBytes = after[fmt.Sprintf(metricCkptB, "full")] - before[fmt.Sprintf(metricCkptB, "full")]
	} else {
		h.deltaBytes += after[fmt.Sprintf(metricCkptB, "delta")] - before[fmt.Sprintf(metricCkptB, "delta")]
		h.deltas++
	}
	h.r.tr.record("server.close_"+kind, h.r.opID, start, end)
	h.r.sampleCheckpoint(kind, end.Sub(start))
	return kind, nil
}

func (h *httpFE) kill() {}

func (h *httpFE) recover() error {
	h.restores++
	return h.start()
}

// verifyRestored checks the counters a restart must carry over.
func (h *httpFE) verifyRestored() error {
	m, err := h.scrape()
	if err != nil {
		return err
	}
	if got := int(m[metricRestores]); got != h.restores {
		return fmt.Errorf("restarted server reports %d restore cycles, want %d", got, h.restores)
	}
	if got := int(m[metricMachines]); got != h.mach {
		return fmt.Errorf("restarted server runs %d machines, the checkpointed one ran %d", got, h.mach)
	}
	return nil
}

func (h *httpFE) resize(machines int) error {
	_, err := h.r.span("server.resize", h.r.opID, func() error {
		code, body, err := h.do("POST", "/instances/0/resize?machines="+strconv.Itoa(machines), nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("POST resize: status %d: %s", code, bytes.TrimSpace(body))
		}
		var rr server.ResizeResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			return err
		}
		if rr.Machines != machines {
			return fmt.Errorf("resize to %d machines landed on %d", machines, rr.Machines)
		}
		return nil
	})
	if err == nil {
		h.mach = machines
	}
	return err
}

// fullCheckpointSeconds is the server's own account, which restarts with it.
func (h *httpFE) fullCheckpointSeconds() (float64, error) {
	m, err := h.scrape()
	if err != nil {
		return 0, err
	}
	if b := m[fmt.Sprintf(metricCkptB, "full")]; b != h.fullTotal {
		if b > h.fullTotal {
			h.fullBytes = b - h.fullTotal
		}
		h.fullTotal = b
	}
	return m[metricCkptSec], nil
}

func (h *httpFE) machines() int { return h.mach }

// labels reads every vertex's component through the public endpoint, 512
// vertices a request.
func (h *httpFE) labels() ([]int, error) {
	n := h.cfg.N
	out := make([]int, 0, n)
	var path strings.Builder
	for lo := 0; lo < n; lo += 512 {
		path.Reset()
		path.WriteString("/instances/0/components?vertices=")
		for v := lo; v < lo+512 && v < n; v++ {
			if v > lo {
				path.WriteByte(',')
			}
			path.WriteString(strconv.Itoa(v))
		}
		code, body, err := h.do("GET", path.String(), nil)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("GET components: status %d: %s", code, bytes.TrimSpace(body))
		}
		var cr server.ComponentsResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			return nil, err
		}
		out = append(out, cr.Labels...)
	}
	return out, nil
}

func (h *httpFE) counters() (counters, error) {
	m, err := h.scrape()
	if err != nil {
		return counters{}, err
	}
	return counters{rounds: m[metricRounds], cacheHits: m[metricHits], cacheMisses: m[metricMisses], scrape: m}, nil
}

// close stops the listener. The last server is left undrained: a graceful
// Close would write one more container nobody reads, and the process is
// about to exit.
func (h *httpFE) close() {
	h.cl.CloseIdleConnections()
	if h.ts != nil {
		h.ts.Close()
		h.ts = nil
	}
}
