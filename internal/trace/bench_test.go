package trace

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/hash"
)

// benchEdgeList is a ~64k-line timestamped edge list shared by the
// ingestion benchmarks: a deterministic clustered walk with enough churn
// that the window machinery does real work.
var benchEdgeList = func() string {
	var sb strings.Builder
	const n, lines = 512, 64 * 1024
	u, t := 0, int64(0)
	for i := 0; i < lines; i++ {
		v := (u + 1 + (i*7)%63) % n
		fmt.Fprintf(&sb, "%d %d %d\n", u, v, t)
		u = (u + i%5 + 1) % n
		if i%3 == 0 {
			t++
		}
	}
	return sb.String()
}()

// nullSink drops every converted batch.
type nullSink struct{}

func (nullSink) WriteBatch(graph.Batch) error { return nil }

// BenchmarkConvertEdgeList measures the text-to-batch conversion path —
// parse, window bookkeeping, batch cutting — end to end over the shared
// list, with the sink cost excluded.
func BenchmarkConvertEdgeList(b *testing.B) {
	b.SetBytes(int64(len(benchEdgeList)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ConvertEdgeList(strings.NewReader(benchEdgeList), nullSink{}, ConvertOptions{Window: 2000}); err != nil {
			b.Fatal(err)
		}
	}
}

// noWindowEdgeList is a ~64k-line timestamped edge list at the shape the
// end-to-end ingest benchmark converts: n = 4096, endpoints drawn at random,
// no window, so nearly every line inserts a new live edge.
var noWindowEdgeList = func() string {
	var sb strings.Builder
	const n, lines = 4096, 64 * 1024
	prg := hash.NewPRG(1)
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&sb, "%d %d %d\n", prg.NextN(n), prg.NextN(n), i/3)
	}
	return sb.String()
}()

// BenchmarkConvertEdgeListNoWindow measures the conversion path without a
// window, at BatchSize 256: parse, the live-edge set and batch cutting.
func BenchmarkConvertEdgeListNoWindow(b *testing.B) {
	b.SetBytes(int64(len(noWindowEdgeList)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ConvertEdgeList(strings.NewReader(noWindowEdgeList), nullSink{}, ConvertOptions{BatchSize: 256}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceDecode measures the binary replay path: open the container
// (footer + index), then decode every segment back into batches.
func BenchmarkTraceDecode(b *testing.B) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ConvertEdgeList(strings.NewReader(benchEdgeList), w, ConvertOptions{Window: 2000}); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}
