package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one recorded call into a layer of the program. Parent is the index
// of the enclosing span in the trace (-1 for a root); ID is the batch, query
// or lifecycle-cycle index the call belongs to, shared by every span of that
// operation.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: the untraced run that produces the end-to-end numbers pays one
// nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices; one driver goroutine, so a stack suffices
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(name string, id int, at time.Time) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartNs: at.Sub(t.t0).Nanoseconds()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int, at time.Time) {
	if t == nil {
		return
	}
	t.spans[i].EndNs = at.Sub(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// record adds an already-finished call as a child of the open span, for
// calls whose span name is known only from their result.
func (t *tracer) record(name string, id int, start, end time.Time) {
	if t == nil {
		return
	}
	t.end(t.begin(name, id, start), end)
}

// spanStats groups a range of spans by name.
type spanStats struct {
	total map[string][]float64 // durations, seconds
	self  map[string][]float64 // durations minus what direct children cover
	roots map[string]float64   // summed duration of the spans that have no parent
	count int
}

// collect gathers the spans whose operation id lies in [lo, hi].
func (t *tracer) collect(lo, hi int) spanStats {
	st := spanStats{total: map[string][]float64{}, self: map[string][]float64{}, roots: map[string]float64{}}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i, s := range t.spans {
		if s.ID < lo || s.ID > hi {
			continue
		}
		d := s.EndNs - s.StartNs
		st.total[s.Name] = append(st.total[s.Name], float64(d)/1e9)
		st.self[s.Name] = append(st.self[s.Name], float64(d-child[i])/1e9)
		if s.Parent < 0 {
			st.roots[s.Name] += float64(d) / 1e9
		}
		st.count++
	}
	return st
}

// writeFile flushes the spans as one JSON array.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recordCostNs measures what recording one span costs on top of the two clock
// reads an untraced run makes too, so that a traced run can report its own
// overhead without a second process.
func recordCostNs() float64 {
	const n = 1 << 15
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		now := time.Now()
		t.end(t.begin("x", i, now), now)
	}
	return float64(time.Since(start).Nanoseconds()) / n
}
