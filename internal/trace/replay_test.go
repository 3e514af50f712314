// These tests live in package trace_test because they drive the harness,
// which itself imports trace (to register the collab32 scenario) — an
// internal test file would close an import cycle.
package trace_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/hash"
	"repro/internal/mpc"
	"repro/internal/streamio"
	"repro/internal/trace"
	"repro/internal/workload"
)

// genEdgeList builds a deterministic timestamped edge list with the rough
// shape of a real crawl: clustered endpoints, non-decreasing timestamps,
// occasional duplicate and self-loop lines.
func genEdgeList(n, lines int, seed uint64) string {
	prg := hash.NewPRG(seed)
	var sb strings.Builder
	sb.WriteString("# synthetic timestamped edge list for the replay tests\n")
	t := int64(0)
	for i := 0; i < lines; i++ {
		u := prg.NextN(uint64(n))
		v := prg.NextN(uint64(n))
		switch prg.NextN(12) {
		case 0:
			v = u // self-loop line
		case 1:
			u, v = 0, 1 // frequently-repeated pair: duplicate lines
		}
		fmt.Fprintf(&sb, "%d %d %d\n", u, v, t)
		t += int64(prg.NextN(3))
	}
	return sb.String()
}

// fanoutSink writes each batch to both formats, mirroring the CLI's
// -convert fan-out.
type fanoutSink struct {
	bin  *trace.Writer
	text *streamio.Writer
}

func (s *fanoutSink) WriteBatch(b graph.Batch) error {
	if err := s.bin.WriteBatch(b); err != nil {
		return err
	}
	return s.text.WriteBatch(b)
}

// convertBoth converts one generated edge list into a binary trace and a
// text stream in a single pass.
func convertBoth(t *testing.T, segBatches int) (trace.ConvertStats, []byte, []byte) {
	t.Helper()
	var binBuf, textBuf bytes.Buffer
	bw, err := trace.NewWriter(&binBuf, trace.WriterOptions{SegmentBatches: segBatches})
	if err != nil {
		t.Fatal(err)
	}
	sink := &fanoutSink{bin: bw, text: streamio.NewWriter(&textBuf)}
	stats, err := trace.ConvertEdgeList(strings.NewReader(genEdgeList(24, 400, 11)), sink,
		trace.ConvertOptions{Window: 30, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.text.Flush(); err != nil {
		t.Fatal(err)
	}
	if stats.Expired == 0 || stats.Duplicates == 0 || stats.SelfLoops == 0 {
		t.Fatalf("generated list not representative: %+v", stats)
	}
	return stats, binBuf.Bytes(), textBuf.Bytes()
}

func textSource(t *testing.T, n int, text []byte) *workload.Mirrored {
	t.Helper()
	shape := workload.Shape{N: n, Batches: -1, Updates: -1}
	return workload.NewMirrored(workload.NewFuncSource(shape, streamio.NewReader(bytes.NewReader(text)).Next))
}

func traceSource(t *testing.T, bin []byte) *workload.Mirrored {
	t.Helper()
	tr, err := trace.NewReader(bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	return workload.NewMirrored(tr)
}

// TestTextAndTraceStreamsIdentical pins the strongest form of the two
// formats' equivalence: one conversion pass fanned out to both sinks yields
// bit-identical batch sequences on replay.
func TestTextAndTraceStreamsIdentical(t *testing.T) {
	stats, bin, text := convertBoth(t, 8)
	fromText, err := workload.Drain(textSource(t, stats.N, text))
	if err != nil {
		t.Fatal(err)
	}
	fromTrace, err := workload.Drain(traceSource(t, bin))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromText, fromTrace) {
		t.Fatalf("formats decoded different streams: %d vs %d batches", len(fromText), len(fromTrace))
	}
	if len(fromTrace) != stats.Batches {
		t.Errorf("decoded %d batches, converter reported %d", len(fromTrace), stats.Batches)
	}
}

// TestTraceReplayBitIdenticalAcrossFormats is the acceptance check of the
// ingestion refactor: the converted binary trace, replayed through dynamic
// connectivity, produces bit-identical Stats and component labels to the
// equivalent text stream, at parallelism 1 and 8.
func TestTraceReplayBitIdenticalAcrossFormats(t *testing.T) {
	stats, bin, text := convertBoth(t, 8)
	replay := func(src *workload.Mirrored, parallelism int) (mpc.Stats, []int) {
		dc, err := core.NewDynamicConnectivity(core.Config{N: stats.N, Phi: 0.6, Seed: 1, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		for {
			b, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for len(b) > 0 {
				k := dc.MaxBatch()
				if k > len(b) {
					k = len(b)
				}
				if err := dc.ApplyBatch(b[:k]); err != nil {
					t.Fatal(err)
				}
				b = b[k:]
			}
		}
		if err := harness.VerifyConnectivity(dc, src.Mirror()); err != nil {
			t.Fatalf("replay diverged from oracle: %v", err)
		}
		return dc.Cluster().Stats(), dc.SnapshotComponents()
	}
	type run struct {
		name  string
		stats mpc.Stats
		comp  []int
	}
	var runs []run
	for _, p := range []int{1, 8} {
		ts, tc := replay(textSource(t, stats.N, text), p)
		runs = append(runs, run{fmt.Sprintf("text/p%d", p), ts, tc})
		bs, bc := replay(traceSource(t, bin), p)
		runs = append(runs, run{fmt.Sprintf("trace/p%d", p), bs, bc})
	}
	for _, r := range runs[1:] {
		if !reflect.DeepEqual(r.stats, runs[0].stats) {
			t.Errorf("%s Stats differ from %s:\n  %+v\n  %+v", r.name, runs[0].name, r.stats, runs[0].stats)
		}
		if !reflect.DeepEqual(r.comp, runs[0].comp) {
			t.Errorf("%s component labels differ from %s", r.name, runs[0].name)
		}
	}
}
