package workload

import (
	"fmt"
	"io"

	"repro/internal/graph"
)

// Shape is a source's configuration echo: what a consumer can know about a
// stream before pulling it. Counts may be unknown (negative) for unbounded
// or not-yet-indexed sources; N is always known, because no consumer can
// size a cluster, mirror, or oracle without it.
type Shape struct {
	// N is the vertex-space size: every update's endpoints are in [0, N).
	N int
	// Batches is the total number of batches the source will emit, or -1
	// when unknown up front.
	Batches int
	// Updates is the total number of updates across all batches, or -1 when
	// unknown up front.
	Updates int
	// Weighted marks streams whose updates carry weights >= 1.
	Weighted bool
}

// BatchSource is the streaming ingestion interface every consumer pulls
// from: Next returns the next batch of updates and io.EOF when the stream
// is exhausted (a source may also emit empty batches mid-stream, e.g. a
// stalled generator iteration — consumers skip them). Sources are pull-based
// and single-pass, so a multi-gigabyte trace replays in O(batch) memory;
// anything that needs the whole stream at once must materialize it
// explicitly (see Drain).
type BatchSource interface {
	Next() (graph.Batch, error)
	Shape() Shape
}

// MirrorSource is a BatchSource that also maintains a reference graph
// reflecting every batch emitted so far — what the differential harness
// needs to oracle-check a stream. Generators provide it natively; any plain
// BatchSource gains one via NewMirrored.
type MirrorSource interface {
	BatchSource
	Mirror() *graph.Graph
}

// GeneratorSource adapts a Generator to the BatchSource interface: it
// drives gen for a fixed number of batches of at most size updates each,
// then reports io.EOF. Empty batches (a stalled generator) are passed
// through so batch indices stay aligned with the generator's own iteration
// count.
type GeneratorSource struct {
	gen       Generator
	size      int
	remaining int
}

// NewGeneratorSource returns the shim. Batches must be non-negative and
// size positive.
func NewGeneratorSource(gen Generator, batches, size int) *GeneratorSource {
	if batches < 0 || size <= 0 {
		panic(fmt.Sprintf("workload: NewGeneratorSource(batches=%d, size=%d)", batches, size))
	}
	return &GeneratorSource{gen: gen, size: size, remaining: batches}
}

// Next implements BatchSource.
func (s *GeneratorSource) Next() (graph.Batch, error) {
	if s.remaining == 0 {
		return nil, io.EOF
	}
	s.remaining--
	return s.gen.Next(s.size), nil
}

// Shape implements BatchSource. Updates is unknown until the generator has
// run.
func (s *GeneratorSource) Shape() Shape {
	return Shape{N: s.gen.Mirror().N(), Batches: s.remaining, Updates: -1}
}

// Mirror implements MirrorSource.
func (s *GeneratorSource) Mirror() *graph.Graph { return s.gen.Mirror() }

// SliceSource replays an already-materialized stream (e.g. one a test built
// in memory) as a BatchSource.
type SliceSource struct {
	n       int
	batches []graph.Batch
	next    int
}

// NewSliceSource returns a source over n vertices emitting the given
// batches in order.
func NewSliceSource(n int, batches []graph.Batch) *SliceSource {
	return &SliceSource{n: n, batches: batches}
}

// Next implements BatchSource.
func (s *SliceSource) Next() (graph.Batch, error) {
	if s.next >= len(s.batches) {
		return nil, io.EOF
	}
	b := s.batches[s.next]
	s.next++
	return b, nil
}

// Shape implements BatchSource.
func (s *SliceSource) Shape() Shape {
	updates := 0
	weighted := false
	for _, b := range s.batches {
		updates += len(b)
		for _, u := range b {
			if u.Weight != 0 {
				weighted = true
			}
		}
	}
	return Shape{N: s.n, Batches: len(s.batches), Updates: updates, Weighted: weighted}
}

// FuncSource adapts a pull function plus a fixed shape into a BatchSource
// (e.g. a streamio.Reader, which does not know its own vertex count).
type FuncSource struct {
	shape Shape
	next  func() (graph.Batch, error)
}

// NewFuncSource returns the adapter.
func NewFuncSource(shape Shape, next func() (graph.Batch, error)) *FuncSource {
	return &FuncSource{shape: shape, next: next}
}

// Next implements BatchSource.
func (s *FuncSource) Next() (graph.Batch, error) { return s.next() }

// Shape implements BatchSource.
func (s *FuncSource) Shape() Shape { return s.shape }

// Mirrored upgrades any BatchSource to a MirrorSource by re-validating
// every batch against its own reference graph: a corrupted or mismatched
// stream surfaces as a descriptive error from Next instead of feeding an
// algorithm an invalid update. It replaces the old materialized Replay
// type; the same recording can back several Mirrored replays.
type Mirrored struct {
	src BatchSource
	g   *graph.Graph
	// batch counts the batches already emitted, for error messages.
	batch int
}

// NewMirrored returns a validating replay of src over a fresh mirror sized
// by the source's shape.
func NewMirrored(src BatchSource) *Mirrored {
	return &Mirrored{src: src, g: graph.New(src.Shape().N)}
}

// Next implements BatchSource, validating the batch against the mirror with
// graph.Check before applying it: a refused batch leaves the mirror exactly
// as it was.
func (m *Mirrored) Next() (graph.Batch, error) {
	b, err := m.src.Next()
	if err != nil {
		return nil, err
	}
	if err := m.g.Check(b); err != nil {
		return nil, fmt.Errorf("workload: replayed batch %d: invalid batch: %w", m.batch, err)
	}
	if err := m.g.Apply(b); err != nil {
		// Unreachable after Check; fail loudly rather than desync.
		return nil, fmt.Errorf("workload: replayed batch %d: mirror diverged: %w", m.batch, err)
	}
	m.batch++
	return b, nil
}

// Shape implements BatchSource.
func (m *Mirrored) Shape() Shape { return m.src.Shape() }

// Mirror implements MirrorSource.
func (m *Mirrored) Mirror() *graph.Graph { return m.g }

// Drain materializes a source, dropping empty batches. It is the explicit
// opt-out of streaming for consumers that genuinely need the whole stream
// at once (tests, golden-trace comparisons); everything else should pull.
func Drain(src BatchSource) ([]graph.Batch, error) {
	var out []graph.Batch
	for {
		b, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) > 0 {
			out = append(out, b)
		}
	}
}
