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

// BatchSource is the pull interface of input from outside the program (a
// text stream, a binary trace, a converted edge list): Next returns the next
// batch of updates and io.EOF when the stream is exhausted (an empty batch
// mid-stream carries nothing, and consumers skip it). Seeded generators are
// not sources: their consumers pull them directly (Generator.Next). Sources
// are single-pass, so a multi-gigabyte trace replays in O(batch) memory;
// anything that needs the whole stream at once must materialize it
// explicitly (see Drain).
type BatchSource interface {
	Next() (graph.Batch, error)
	Shape() Shape
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

// Mirrored re-validates every batch of a BatchSource against its own
// reference graph: a corrupted or mismatched stream surfaces as a
// descriptive error from Next instead of feeding an algorithm an invalid
// update, and the mirror is what an oracle checks the stream against.
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

// Next implements BatchSource, admitting the batch into the mirror
// (graph.Graph.Admit): a refused batch leaves the mirror exactly as it was.
func (m *Mirrored) Next() (graph.Batch, error) {
	b, err := m.src.Next()
	if err != nil {
		return nil, err
	}
	if err := m.g.Admit(b); err != nil {
		return nil, fmt.Errorf("workload: replayed batch %d: invalid batch: %w", m.batch, err)
	}
	m.batch++
	return b, nil
}

// Shape implements BatchSource.
func (m *Mirrored) Shape() Shape { return m.src.Shape() }

// Mirror returns the reference graph of every batch emitted so far.
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
