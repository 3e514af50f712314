package trace

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// sinkRecorder captures converted batches for inspection.
type sinkRecorder struct{ batches []graph.Batch }

func (s *sinkRecorder) WriteBatch(b graph.Batch) error {
	s.batches = append(s.batches, b)
	return nil
}

func (s *sinkRecorder) updates() []graph.Update {
	var out []graph.Update
	for _, b := range s.batches {
		out = append(out, b...)
	}
	return out
}

func convert(t *testing.T, input string, opt ConvertOptions) (ConvertStats, *sinkRecorder) {
	t.Helper()
	var rec sinkRecorder
	stats, err := ConvertEdgeList(strings.NewReader(input), &rec, opt)
	if err != nil {
		t.Fatal(err)
	}
	return stats, &rec
}

// TestConvertLineOrderClock converts a 2-field list: line order is the
// clock, comments and blanks are skipped, duplicates of live edges and
// self-loops are dropped and counted.
func TestConvertLineOrderClock(t *testing.T) {
	input := `# a comment
% another comment style

0 1
1 2
0 1
2 2
3 0
`
	stats, rec := convert(t, input, ConvertOptions{})
	if stats.Lines != 8 || stats.Edges != 5 {
		t.Errorf("Lines=%d Edges=%d, want 8 and 5", stats.Lines, stats.Edges)
	}
	if stats.Duplicates != 1 || stats.SelfLoops != 1 {
		t.Errorf("Duplicates=%d SelfLoops=%d, want 1 and 1", stats.Duplicates, stats.SelfLoops)
	}
	if stats.N != 4 || stats.Weighted || stats.Expired != 0 {
		t.Errorf("N=%d Weighted=%v Expired=%d, want 4 false 0", stats.N, stats.Weighted, stats.Expired)
	}
	want := []graph.Update{graph.Ins(0, 1), graph.Ins(1, 2), graph.Ins(0, 3)}
	if got := rec.updates(); !reflect.DeepEqual(got, want) {
		t.Errorf("updates = %v, want %v", got, want)
	}
	if stats.Updates != len(want) || stats.Batches != len(rec.batches) {
		t.Errorf("stats count %d updates %d batches, sink saw %d/%d", stats.Updates, stats.Batches, len(want), len(rec.batches))
	}
}

// TestConvertWindowExpiry checks the sliding window: an edge expires once
// time advances past insert+Window, the deletion precedes the insert that
// advanced time, expiry is FIFO, and an expired edge may be re-inserted
// without counting as a duplicate.
func TestConvertWindowExpiry(t *testing.T) {
	input := `0 1 0
1 2 1
0 1 5
2 3 6
`
	stats, rec := convert(t, input, ConvertOptions{Window: 4})
	// t=5 expires {0,1}(t=0) and {1,2}(t=1), in that order, before the
	// re-insert of {0,1}; t=6 expires nothing ({0,1} re-entered at t=5).
	want := []graph.Update{
		graph.Ins(0, 1), graph.Ins(1, 2),
		graph.Del(0, 1), graph.Del(1, 2), graph.Ins(0, 1),
		graph.Ins(2, 3),
	}
	if got := rec.updates(); !reflect.DeepEqual(got, want) {
		t.Errorf("updates = %v, want %v", got, want)
	}
	if stats.Expired != 2 || stats.Duplicates != 0 {
		t.Errorf("Expired=%d Duplicates=%d, want 2 and 0", stats.Expired, stats.Duplicates)
	}
}

// TestConvertWeighted checks the 4-field format: weights ride the inserts
// and are re-emitted on the matching expiry deletions.
func TestConvertWeighted(t *testing.T) {
	input := `0 1 7 0
1 2 3 1
2 3 5 9
`
	stats, rec := convert(t, input, ConvertOptions{Window: 5})
	want := []graph.Update{
		graph.InsW(0, 1, 7), graph.InsW(1, 2, 3),
		graph.DelW(0, 1, 7), graph.DelW(1, 2, 3),
		graph.InsW(2, 3, 5),
	}
	if got := rec.updates(); !reflect.DeepEqual(got, want) {
		t.Errorf("updates = %v, want %v", got, want)
	}
	if !stats.Weighted {
		t.Error("weighted input not flagged")
	}
}

// TestConvertBatchInvariant forces expiry and re-insert of the same edge in
// close succession: the converter must cut batches so no batch touches an
// edge twice, every batch respects BatchSize, and the whole sequence applies
// cleanly to a reference graph.
func TestConvertBatchInvariant(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		// Re-insert the same few edges repeatedly under a tight window.
		fmt.Fprintf(&sb, "0 1 %d\n1 2 %d\n", 2*i, 2*i+1)
	}
	stats, rec := convert(t, sb.String(), ConvertOptions{Window: 2, BatchSize: 8})
	g := graph.New(stats.N)
	for i, b := range rec.batches {
		if len(b) == 0 || len(b) > 8 {
			t.Fatalf("batch %d has %d updates, want 1..8", i, len(b))
		}
		seen := map[graph.Edge]bool{}
		for _, u := range b {
			if seen[u.Edge] {
				t.Fatalf("batch %d touches %v twice", i, u.Edge)
			}
			seen[u.Edge] = true
		}
		if err := g.Apply(b); err != nil {
			t.Fatalf("batch %d invalid: %v", i, err)
		}
	}
	if stats.Expired == 0 {
		t.Error("tight window produced no expirations")
	}
}

// TestConvertErrors covers every rejection path, asserting the error names
// the offending line where one exists.
func TestConvertErrors(t *testing.T) {
	cases := []struct {
		name, input, wantSub string
		opt                  ConvertOptions
	}{
		{"decreasing timestamp", "0 1 5\n1 2 3\n", "line 2", ConvertOptions{}},
		{"field count drift", "0 1\n1 2 9\n", "line 2", ConvertOptions{}},
		{"too many fields", "0 1 2 3 4\n", "line 1", ConvertOptions{}},
		{"bad vertex", "x 1\n", "line 1", ConvertOptions{}},
		{"negative vertex", "-1 2\n", "line 1", ConvertOptions{}},
		{"oversized vertex", "0 600000000000000000\n", "format limit", ConvertOptions{}},
		{"bad timestamp", "0 1 x\n", "line 1", ConvertOptions{}},
		{"zero weight", "0 1 0 4\n", "weight", ConvertOptions{}},
		{"bad weight", "0 1 x 4\n", "weight", ConvertOptions{}},
		{"empty input", "", "no usable edges", ConvertOptions{}},
		{"only comments", "# nothing\n\n% here\n", "no usable edges", ConvertOptions{}},
		{"only skipped edges", "3 3\n4 4\n", "no usable edges", ConvertOptions{}},
		{"line too long", "0 1\n" + strings.Repeat("9", maxLineBytes) + " 1\n", "longer than 16777216 bytes", ConvertOptions{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rec sinkRecorder
			_, err := ConvertEdgeList(strings.NewReader(tc.input), &rec, tc.opt)
			if err == nil {
				t.Fatalf("input %q converted without error", tc.input)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestCollab32Scenario checks the embedded real sub-trace end to end: it is
// registered as a scenario, the conversion includes windowed deletions, the
// generator is deterministic, and a smaller vertex space induces a valid
// sub-trace.
func TestCollab32Scenario(t *testing.T) {
	sc, err := workload.Get("collab32")
	if err != nil {
		t.Fatalf("collab32 not registered: %v", err)
	}
	run := func(n int) []graph.Update {
		gen := sc.New(n, 0)
		ref := graph.New(n)
		var out []graph.Update
		for i := 0; i < 60; i++ {
			b := gen.Next(16)
			seen := map[graph.Edge]bool{}
			for _, u := range b {
				if u.Edge.U < 0 || u.Edge.V >= n {
					t.Fatalf("n=%d: update %v outside the vertex space", n, u)
				}
				if seen[u.Edge] {
					t.Fatalf("n=%d: batch %d touches %v twice", n, i, u.Edge)
				}
				seen[u.Edge] = true
			}
			if err := ref.Apply(b); err != nil {
				t.Fatalf("n=%d: batch %d invalid: %v", n, i, err)
			}
			out = append(out, b...)
		}
		return out
	}
	full := run(32)
	dels := 0
	for _, u := range full {
		if u.Op == graph.Delete {
			dels++
		}
	}
	if len(full) == 0 || dels == 0 {
		t.Fatalf("full trace replayed %d updates with %d deletions; want churn", len(full), dels)
	}
	if again := run(32); !reflect.DeepEqual(full, again) {
		t.Error("collab32 replay is not deterministic")
	}
	if sub := run(16); len(sub) == 0 || len(sub) >= len(full) {
		t.Errorf("induced sub-trace replayed %d updates, want a strict nonempty subset of %d", len(sub), len(full))
	}
}
