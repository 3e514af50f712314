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
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/snapshot"
)

// maxBodyBytes bounds request bodies: a batch never legitimately needs more
// (MaxBatch updates at a few dozen JSON bytes each). A longer body is 413.
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
	// A periodic checkpoint is an op on the instance's queue: it runs after
	// every batch admitted before it, holds admission only while it runs,
	// and is a delta whenever a base already exists.
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
// base start empty (session.Open). Stale temp files from a checkpoint
// interrupted mid-write are swept before loading (snapshot.Chain.Restore).
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
			chain = snapshot.OpenChain(instancePath(cfg.CheckpointDir, i), cfg.MaxDeltaChain)
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
// Close stops it. A checkpoint is an op on each instance's queue; a failed
// write is counted (mpcserve_checkpoint_errors_total) and the instance keeps
// serving, and the next tick writes a full base. Neither stops the loop.
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
				in.do(in.checkpoint)
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
// any) stops, then each instance stops in turn — when CheckpointDir is set
// its last op, after every admitted batch, is a checkpoint through its chain
// (a delta when a base exists and the chain has room, a full base
// otherwise) — and admission closes (updates get 503). One instance failing
// to checkpoint does not abort the rest: every instance gets its checkpoint
// attempt, and Close returns all failures joined. Idempotent.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.ckptStop != nil {
		close(s.ckptStop)
		<-s.ckptDone
	}
	errs := make([]error, len(s.insts))
	for i, in := range s.insts {
		if s.cfg.CheckpointDir == "" {
			in.drain()
		} else {
			errs[i] = in.stop(in.checkpoint)
		}
	}
	return errors.Join(errs...)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /instances", s.handleList)
	s.mux.HandleFunc("POST /instances/{id}/updates", s.perInstance(handleUpdates))
	s.mux.HandleFunc("POST /instances/{id}/query", s.perInstance(handleQuery))
	s.mux.HandleFunc("GET /instances/{id}/components", s.perInstance(handleComponents))
	s.mux.HandleFunc("POST /instances/{id}/resize", s.perInstance(handleResize))
	s.mux.HandleFunc("GET /instances/{id}/healthz", s.perInstance(handleInstanceHealth))
}

// perInstance adapts h to a route under /instances/{id}: it resolves the id
// and writes the error response itself when the server is closing (503) or
// the id is missing, malformed, or out of range (404).
func (s *Server) perInstance(h func(http.ResponseWriter, *http.Request, *instance)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.closed.Load() {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil || id < 0 || id >= len(s.insts) {
			http.Error(w, fmt.Sprintf("unknown instance %q (have 0..%d)", r.PathValue("id"), len(s.insts)-1), http.StatusNotFound)
			return
		}
		h(w, r, s.insts[id])
	}
}

// --- wire types ----------------------------------------------------------

// The request and response types are the wire shapes as a client encodes
// and decodes them. The server itself parses the two request bodies and
// writes the two responses in codec.go, byte for byte the same JSON.

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
		shape := in.shape.Load()
		out = append(out, InstanceInfo{
			ID:         in.id,
			N:          in.cfg.N,
			Phi:        in.cfg.Phi,
			Machines:   shape.MachineCount(),
			MaxBatch:   shape.MaxBatch(),
			QueueDepth: len(in.queue),
			QueueCap:   cap(in.queue),
			Healthy:    in.failed() == nil,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func handleUpdates(w http.ResponseWriter, r *http.Request, in *instance) {
	wb := wireBufs.Get().(*wireBuf)
	defer putWireBuf(wb)
	if rf := wb.readBody(w, r, "update"); rf != nil {
		rf.write(w)
		return
	}
	b, rf := decodeUpdates(wb.body.Bytes(), in.shape.Load().MaxBatch())
	if rf != nil {
		rf.write(w)
		return
	}
	err := in.offer(b)
	var bad *badBatchError
	switch {
	case err == nil:
		wb.out = appendUpdateResponse(wb.out[:0], len(b), len(in.queue))
		writeBody(w, http.StatusAccepted, wb.out)
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

func handleQuery(w http.ResponseWriter, r *http.Request, in *instance) {
	wb := wireBufs.Get().(*wireBuf)
	defer putWireBuf(wb)
	if rf := wb.readBody(w, r, "query"); rf != nil {
		rf.write(w)
		return
	}
	pairs, rf := decodeQuery(wb.pairs, wb.body.Bytes(), in.cfg.N)
	wb.pairs = pairs
	if rf != nil {
		rf.write(w)
		return
	}
	wb.in = in
	if err := in.call(in.reads, wb.query, wb.done); err != nil {
		readError(w, err)
		return
	}
	in.queryBatches.Add(1)
	wb.out = appendQueryResponse(wb.out[:0], wb.ans, wb.comps)
	writeBody(w, http.StatusOK, wb.out)
}

// answer is a query's read op, run by the applier: the answers to wb.pairs
// and the component count, off wb.in's live state.
func (wb *wireBuf) answer() error {
	dc := wb.in.live()
	wb.ans = dc.ConnectedAllInto(wb.ans, wb.pairs)
	wb.comps = dc.NumComponents()
	return nil
}

// readError answers a read the applier did not run: 503 once the instance
// is draining, 500 after a failure.
func readError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, errDraining) {
		status = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), status)
}

func handleComponents(w http.ResponseWriter, r *http.Request, in *instance) {
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
	var labels []int
	if err := in.call(in.reads, func() error {
		labels = in.live().ComponentsOf(vertices)
		return nil
	}, make(chan error, 1)); err != nil {
		readError(w, err)
		return
	}
	in.queryBatches.Add(1)
	writeJSON(w, http.StatusOK, ComponentsResponse{Labels: labels})
}

// handleResize serves POST /instances/{id}/resize?machines=M: the elastic
// resize described on instance.resize. 400 when no cluster shape realizes
// the requested count, 409 when the migrated state does not fit the target
// fleet's per-machine memory budget (the instance keeps serving at its old
// shape), 200 with the new shape on success.
func handleResize(w http.ResponseWriter, r *http.Request, in *instance) {
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
	shape := in.shape.Load()
	writeJSON(w, http.StatusOK, ResizeResponse{
		Machines:           shape.MachineCount(),
		VerticesPerMachine: shape.VerticesPerMachine,
	})
}

// handleInstanceHealth serves GET /instances/{id}/healthz: per-instance
// liveness and readiness. 503 after an applier failure (dead) and while a
// checkpoint or resize op holds the instance's admission (alive but not
// ready); 200 otherwise.
func handleInstanceHealth(w http.ResponseWriter, r *http.Request, in *instance) {
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
