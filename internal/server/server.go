package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/session"
	"repro/internal/snapshot"
)

// maxBodyBytes bounds request bodies: a batch never legitimately needs more
// (MaxBatch updates at a few dozen JSON bytes each).
const maxBodyBytes = 8 << 20

// Config parameterizes a Server.
type Config struct {
	// Instances is the number of independent graph instances served.
	Instances int
	// N, Phi, Seed, Parallelism configure each instance's core cluster;
	// instance i is seeded with Seed + i*0x9e3779b9 so instances are
	// independent but the fleet is reproducible from one seed.
	N           int
	Phi         float64
	Seed        uint64
	Parallelism int
	// QueueDepth bounds each instance's update queue (default 16); a full
	// queue refuses updates with 429 instead of buffering without bound.
	QueueDepth int
	// CheckpointDir, when set, is where Close checkpoints every instance
	// (instance-NNN.snap plus delta files) and where New looks for
	// checkpoint chains to restore.
	CheckpointDir string
	// CheckpointEvery, when positive, starts a background loop that
	// checkpoints every instance at that period; it requires CheckpointDir.
	// Periodic checkpoints quiesce each instance briefly but do not stop
	// the server; they are deltas whenever a base already exists.
	CheckpointEvery time.Duration
	// MaxDeltaChain bounds how many delta checkpoints may extend a full
	// base before the next checkpoint compacts the chain into a fresh base.
	// Zero or negative disables deltas: every checkpoint is a full
	// snapshot. (The mpcserve CLI defaults it to 8.)
	MaxDeltaChain int
}

// validate reports a descriptive usage error for an unusable config.
func (c Config) validate() error {
	if c.Instances < 1 {
		return fmt.Errorf("server: Instances = %d (want >= 1)", c.Instances)
	}
	if c.N < 2 {
		return fmt.Errorf("server: N = %d (want >= 2)", c.N)
	}
	if c.Phi <= 0 || c.Phi > 1 {
		return fmt.Errorf("server: Phi = %v (want (0, 1])", c.Phi)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("server: QueueDepth = %d (want >= 1)", c.QueueDepth)
	}
	if c.CheckpointEvery > 0 && c.CheckpointDir == "" {
		return fmt.Errorf("server: CheckpointEvery = %v needs a CheckpointDir", c.CheckpointEvery)
	}
	return nil
}

// Server owns a fleet of graph instances and serves the HTTP API described
// in the package documentation. It implements http.Handler.
type Server struct {
	cfg    Config
	insts  []*instance
	mux    *http.ServeMux
	closed atomic.Bool

	// Background checkpoint loop (run only when CheckpointEvery > 0).
	ckptStop chan struct{}
	ckptDone chan struct{}
}

// New builds the fleet. When cfg.CheckpointDir holds a checkpoint chain for
// an instance — a full base snapshot plus any delta files — that instance is
// restored from it (config-echo and chain-identity validated), so a
// gracefully stopped server resumes bit-identically; instances without a
// base start empty. Stale temp files from a checkpoint interrupted mid-write
// are swept before loading.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Instances; i++ {
		icfg := core.Config{
			N:           cfg.N,
			Phi:         cfg.Phi,
			Seed:        cfg.Seed + uint64(i)*0x9e3779b9,
			Parallelism: cfg.Parallelism,
		}
		var chain *snapshot.Chain
		if cfg.CheckpointDir != "" {
			path := instancePath(cfg.CheckpointDir, i)
			if _, err := snapshot.SweepStaleTemps(path); err != nil {
				s.stopInstances()
				return nil, fmt.Errorf("server: sweeping stale temps for instance %d: %w", i, err)
			}
			chain = snapshot.OpenChain(path, cfg.MaxDeltaChain)
		}
		in, err := newInstance(i, icfg, cfg.QueueDepth, chain)
		if err != nil {
			s.stopInstances()
			return nil, err
		}
		s.insts = append(s.insts, in)
	}
	s.routes()
	if cfg.CheckpointEvery > 0 {
		s.ckptStop = make(chan struct{})
		s.ckptDone = make(chan struct{})
		go s.checkpointLoop()
	}
	return s, nil
}

// checkpointLoop checkpoints the whole fleet at the configured period until
// Close stops it. Per-instance errors mark that instance failed (its health
// flips in /instances and /metrics) but do not stop the loop or the server —
// the other instances keep checkpointing.
func (s *Server) checkpointLoop() {
	defer close(s.ckptDone)
	t := time.NewTicker(s.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-s.ckptStop:
			return
		case <-t.C:
			for _, in := range s.insts {
				in.checkpointQuiesced()
			}
		}
	}
}

// stopInstances drains whatever instances were already started (used on
// construction failure so no applier goroutine leaks).
func (s *Server) stopInstances() {
	for _, in := range s.insts {
		in.drain()
	}
}

// Close gracefully shuts the fleet down: the background checkpoint loop (if
// any) stops, admission stops (updates get 503), every queue drains, and —
// when CheckpointDir is set — every instance is checkpointed through its
// chain (a delta when a base exists and the chain has room, a full base
// otherwise). One instance failing to checkpoint does not abort the rest:
// every instance gets its checkpoint attempt, and Close returns all
// failures joined. Idempotent.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.ckptStop != nil {
		close(s.ckptStop)
		<-s.ckptDone
	}
	var wg sync.WaitGroup
	for _, in := range s.insts {
		wg.Add(1)
		go func(in *instance) {
			defer wg.Done()
			in.drain()
		}(in)
	}
	wg.Wait()
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	errs := make([]error, len(s.insts))
	for i, in := range s.insts {
		errs[i] = in.checkpointQuiesced()
	}
	return errors.Join(errs...)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /instances", s.handleList)
	s.mux.HandleFunc("POST /instances/{id}/updates", s.handleUpdates)
	s.mux.HandleFunc("POST /instances/{id}/query", s.handleQuery)
	s.mux.HandleFunc("GET /instances/{id}/components", s.handleComponents)
	s.mux.HandleFunc("POST /instances/{id}/resize", s.handleResize)
	s.mux.HandleFunc("GET /instances/{id}/healthz", s.handleInstanceHealth)
}

// --- wire types ----------------------------------------------------------

// WireUpdate is one edge update of an UpdateRequest.
type WireUpdate struct {
	Op     string `json:"op"` // "insert" or "delete"
	U      int    `json:"u"`
	V      int    `json:"v"`
	Weight int64  `json:"weight,omitempty"`
}

// UpdateRequest is the body of POST /instances/{id}/updates.
type UpdateRequest struct {
	Updates []WireUpdate `json:"updates"`
}

// UpdateResponse acknowledges an enqueued batch. QueueDepth is the number
// of batches (including this one) not yet applied — the read-your-write lag.
type UpdateResponse struct {
	Queued     int `json:"queued"`
	QueueDepth int `json:"queue_depth"`
}

// QueryRequest is the body of POST /instances/{id}/query.
type QueryRequest struct {
	Pairs [][2]int `json:"pairs"`
}

// QueryResponse carries the batched connectivity answers, aligned with the
// request pairs, plus the current component count.
type QueryResponse struct {
	Connected  []bool `json:"connected"`
	Components int    `json:"components"`
}

// ComponentsResponse is the body of GET /instances/{id}/components.
type ComponentsResponse struct {
	Labels []int `json:"labels"`
}

// InstanceInfo is one entry of GET /instances.
type InstanceInfo struct {
	ID         int     `json:"id"`
	N          int     `json:"n"`
	Phi        float64 `json:"phi"`
	Machines   int     `json:"machines"`
	MaxBatch   int     `json:"max_batch"`
	QueueDepth int     `json:"queue_depth"`
	QueueCap   int     `json:"queue_cap"`
	Healthy    bool    `json:"healthy"`
}

// ResizeResponse acknowledges a completed POST /instances/{id}/resize.
type ResizeResponse struct {
	Machines           int `json:"machines"`
	VerticesPerMachine int `json:"vertices_per_machine"`
}

// --- handlers ------------------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.closed.Load() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	out := make([]InstanceInfo, 0, len(s.insts))
	for _, in := range s.insts {
		dc := in.dc.Load()
		out = append(out, InstanceInfo{
			ID:         in.id,
			N:          in.cfg.N,
			Phi:        in.cfg.Phi,
			Machines:   dc.Config().MachineCount(),
			MaxBatch:   dc.MaxBatch(),
			QueueDepth: len(in.queue),
			QueueCap:   cap(in.queue),
			Healthy:    in.failed() == nil,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// instanceOf resolves the {id} path value, writing the error response
// itself when the id is missing, malformed, or out of range.
func (s *Server) instanceOf(w http.ResponseWriter, r *http.Request) (*instance, bool) {
	if s.closed.Load() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return nil, false
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 || id >= len(s.insts) {
		http.Error(w, fmt.Sprintf("unknown instance %q (have 0..%d)", r.PathValue("id"), len(s.insts)-1), http.StatusNotFound)
		return nil, false
	}
	return s.insts[id], true
}

func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	in, ok := s.instanceOf(w, r)
	if !ok {
		return
	}
	var req UpdateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(&req); err != nil {
		http.Error(w, "bad update request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Updates) == 0 {
		http.Error(w, "empty update batch", http.StatusBadRequest)
		return
	}
	if max := in.dc.Load().MaxBatch(); len(req.Updates) > max {
		http.Error(w, fmt.Sprintf("batch of %d exceeds the instance's MaxBatch %d", len(req.Updates), max),
			http.StatusRequestEntityTooLarge)
		return
	}
	// The edges are taken as sent: vertex range and self-loops are the
	// admission mirror's to refuse (graph.Check), like every other defect.
	b := make(graph.Batch, len(req.Updates))
	for i, u := range req.Updates {
		switch u.Op {
		case "insert":
			b[i].Op = graph.Insert
		case "delete":
			b[i].Op = graph.Delete
		default:
			http.Error(w, fmt.Sprintf("update %d: unknown op %q (want insert or delete)", i, u.Op), http.StatusUnprocessableEntity)
			return
		}
		b[i].Edge, b[i].Weight = graph.Edge{U: u.U, V: u.V}.Canonical(), u.Weight
	}
	err := in.offer(b)
	var bad *badBatchError
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, UpdateResponse{Queued: len(b), QueueDepth: len(in.queue)})
	case errors.Is(err, errQueueFull):
		// The hint scales with the observed drain rate: a queue this deep
		// takes about EWMA x depth to make room, so clients back off harder
		// on slow instances instead of hammering a fixed one-second cadence.
		w.Header().Set("Retry-After", strconv.Itoa(in.retryAfterSeconds()))
		http.Error(w, "update queue full, retry later", http.StatusTooManyRequests)
	case errors.Is(err, errDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.As(err, &bad):
		http.Error(w, "invalid batch: "+bad.Error(), http.StatusUnprocessableEntity)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	in, ok := s.instanceOf(w, r)
	if !ok {
		return
	}
	if err := in.failed(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(&req); err != nil {
		http.Error(w, "bad query request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Pairs) == 0 {
		http.Error(w, "empty query batch", http.StatusBadRequest)
		return
	}
	pairs := make([]core.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		if p[0] < 0 || p[1] < 0 || p[0] >= in.cfg.N || p[1] >= in.cfg.N {
			http.Error(w, fmt.Sprintf("pair %d: vertex outside [0,%d)", i, in.cfg.N), http.StatusUnprocessableEntity)
			return
		}
		pairs[i] = core.Pair{U: p[0], V: p[1]}
	}
	in.mu.RLock()
	dc := in.dc.Load()
	ans := dc.ConnectedAll(pairs)
	comps := dc.NumComponents()
	in.mu.RUnlock()
	in.queryBatches.Add(1)
	writeJSON(w, http.StatusOK, QueryResponse{Connected: ans, Components: comps})
}

func (s *Server) handleComponents(w http.ResponseWriter, r *http.Request) {
	in, ok := s.instanceOf(w, r)
	if !ok {
		return
	}
	if err := in.failed(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	raw := r.URL.Query().Get("vertices")
	if raw == "" {
		http.Error(w, "missing ?vertices=a,b,c", http.StatusBadRequest)
		return
	}
	parts := strings.Split(raw, ",")
	vertices := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 || v >= in.cfg.N {
			http.Error(w, fmt.Sprintf("bad vertex %q (want 0..%d)", p, in.cfg.N-1), http.StatusUnprocessableEntity)
			return
		}
		vertices = append(vertices, v)
	}
	in.mu.RLock()
	labels := in.dc.Load().ComponentsOf(vertices)
	in.mu.RUnlock()
	in.queryBatches.Add(1)
	writeJSON(w, http.StatusOK, ComponentsResponse{Labels: labels})
}

// handleResize serves POST /instances/{id}/resize?machines=M: the elastic
// resize described on instance.resize. 400 when no cluster shape realizes
// the requested count, 409 when the migrated state does not fit the target
// fleet's per-machine memory budget (the instance keeps serving at its old
// shape), 200 with the new shape on success.
func (s *Server) handleResize(w http.ResponseWriter, r *http.Request) {
	in, ok := s.instanceOf(w, r)
	if !ok {
		return
	}
	machines, err := strconv.Atoi(r.URL.Query().Get("machines"))
	if err != nil {
		http.Error(w, "missing or malformed ?machines=M (want an integer)", http.StatusBadRequest)
		return
	}
	if err := in.resize(machines); err != nil {
		status := http.StatusInternalServerError
		var re *session.ResizeError
		if errors.As(err, &re) {
			switch re.Phase {
			case session.ResizeShape:
				status = http.StatusBadRequest
			case session.ResizeMigrate:
				status = http.StatusConflict
			}
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, http.StatusOK, ResizeResponse{
		Machines:           in.machines(),
		VerticesPerMachine: in.dc.Load().Config().VerticesPerMachine,
	})
}

// handleInstanceHealth serves GET /instances/{id}/healthz: per-instance
// liveness and readiness. 503 after an applier failure (dead) and while the
// instance is quiesced for a checkpoint or resize (alive but not ready);
// 200 otherwise.
func (s *Server) handleInstanceHealth(w http.ResponseWriter, r *http.Request) {
	in, ok := s.instanceOf(w, r)
	if !ok {
		return
	}
	if err := in.failed(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if in.quiesced.Load() {
		http.Error(w, "quiesced (checkpoint or resize in progress)", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
