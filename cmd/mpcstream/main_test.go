package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/streamio"
)

// defaults mirrors the flag defaults (with a fixed parallelism, so tests do
// not depend on the host's CPU count).
func defaults() options {
	return options{
		algo: "connectivity", n: 256, phi: 0.6, batches: 20, seed: 1, alpha: 4, eps: 0.25,
		maxWeight: 64, maxDeltaChain: 8, parallelism: 1,
	}
}

// TestValidateFlags walks the mode matrix: every "requires", "mutually
// exclusive" and "only applies to" branch rejects with its own message, and
// the coherent combinations of each mode pass.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(o *options)
		want string // substring of the error; "" = valid
	}{
		{"defaults", func(o *options) {}, ""},
		{"scenario with every decoration", func(o *options) {
			o.scenario = "churn"
			o.crashEvery, o.faultEvery, o.deltaEvery = 5, 6, 2
		}, ""},
		{"stream replay with resume onto a resized fleet", func(o *options) {
			o.streamFile, o.resumeFile, o.resumeMachines, o.checkpointFile = "s", "c", 9, "c"
		}, ""},
		{"trace replay cut short with checkpoint", func(o *options) {
			o.traceFile, o.traceBatches, o.checkpointFile = "t", 40, "c"
		}, ""},
		{"convert to both outputs with a window", func(o *options) {
			o.convertFile, o.traceFile, o.streamFile, o.window = "e", "t", "s", 40
		}, ""},

		{"n too small", func(o *options) { o.n = 1 }, "-n must be at least 2"},
		{"zero batches", func(o *options) { o.batches = 0 }, "-batches must be at least 1"},
		{"zero phi", func(o *options) { o.phi = 0 }, "-phi must be in (0, 1]"},
		{"phi above one", func(o *options) { o.phi = 1.5 }, "-phi must be in (0, 1]"},
		{"zero alpha", func(o *options) { o.alpha = 0 }, "-alpha must be positive"},
		{"zero eps", func(o *options) { o.eps = 0 }, "-eps must be positive"},
		{"zero maxweight", func(o *options) { o.maxWeight = 0 }, "-maxweight must be at least 1"},
		{"zero batches on a replay", func(o *options) { o.streamFile, o.batches = "s", 0 }, "-batches must be at least 1"},
		{"zero phi on a trace replay", func(o *options) { o.traceFile, o.phi = "t", 0 }, "-phi must be in (0, 1]"},
		{"negative crash-every", func(o *options) { o.crashEvery = -1 }, "-crash-every must be non-negative"},
		{"negative window", func(o *options) { o.window = -1 }, "-window must be non-negative"},
		{"negative trace-batches", func(o *options) { o.traceBatches = -1 }, "-trace-batches must be non-negative"},
		{"negative fault-every", func(o *options) { o.faultEvery = -1 }, "-fault-every must be non-negative"},
		{"negative resume-machines", func(o *options) { o.resumeMachines = -1 }, "-resume-machines must be non-negative"},
		{"negative delta-every", func(o *options) { o.deltaEvery = -1 }, "-delta-every must be non-negative"},
		{"negative max-delta-chain", func(o *options) { o.maxDeltaChain = -1 }, "-max-delta-chain must be non-negative"},

		{"convert without an output", func(o *options) { o.convertFile = "e" }, "-convert needs at least one output"},
		{"convert with scenario", func(o *options) { o.convertFile, o.traceFile, o.scenario = "e", "t", "churn" }, "-convert only combines with"},
		{"convert with resume", func(o *options) { o.convertFile, o.traceFile, o.resumeFile = "e", "t", "c" }, "-convert only combines with"},
		{"convert with checkpoint", func(o *options) { o.convertFile, o.traceFile, o.checkpointFile = "e", "t", "c" }, "-convert only combines with"},
		{"convert with crash-every", func(o *options) { o.convertFile, o.traceFile, o.crashEvery = "e", "t", 4 }, "-convert only combines with"},
		{"convert with fault-every", func(o *options) { o.convertFile, o.traceFile, o.faultEvery = "e", "t", 4 }, "-convert only combines with"},
		{"convert with delta-every", func(o *options) { o.convertFile, o.traceFile, o.deltaEvery = "e", "t", 4 }, "-convert only combines with"},
		{"convert with trace-batches", func(o *options) { o.convertFile, o.traceFile, o.traceBatches = "e", "t", 4 }, "-convert only combines with"},
		{"window without convert", func(o *options) { o.window = 40 }, "-window only applies to -convert"},

		{"stream and trace", func(o *options) { o.streamFile, o.traceFile = "s", "t" }, "mutually exclusive"},
		{"stream and scenario", func(o *options) { o.streamFile, o.scenario = "s", "churn" }, "mutually exclusive"},
		{"trace and scenario", func(o *options) { o.traceFile, o.scenario = "t", "churn" }, "mutually exclusive"},
		{"trace-batches without trace", func(o *options) { o.streamFile, o.traceBatches = "s", 4 }, "-trace-batches requires -trace"},
		{"crash-every without scenario", func(o *options) { o.crashEvery = 4 }, "-crash-every requires -scenario"},
		{"fault-every without scenario", func(o *options) { o.faultEvery = 4 }, "-fault-every requires -scenario"},
		{"delta-every without scenario", func(o *options) { o.deltaEvery = 4 }, "-delta-every requires -scenario"},
		{"resume-machines without resume", func(o *options) { o.streamFile, o.resumeMachines = "s", 9 }, "-resume-machines requires -resume"},
		{"resume without an input", func(o *options) { o.resumeFile = "c" }, "-resume requires -stream or -trace"},
		{"checkpoint with scenario", func(o *options) { o.scenario, o.checkpointFile = "churn", "c" }, "-checkpoint requires -stream or -trace"},
		{"checkpoint without a file input", func(o *options) { o.checkpointFile = "c" }, "-checkpoint requires -stream or -trace"},
	} {
		o := defaults()
		tc.set(&o)
		err := validateFlags(o)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// mustRun runs one mpcstream invocation and returns what it printed.
func mustRun(t *testing.T, o options) string {
	t.Helper()
	if err := validateFlags(o); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatalf("%v\noutput so far:\n%s", err, out.String())
	}
	return out.String()
}

// TestEveryAlgorithmRunsWithoutAnInput: with no input file, every registered
// algorithm streams the churn scenario it accepts under the differential
// harness and prints the resource lines a replay prints, summed over its
// clusters, with no violation; connectivity adds its replacement searches.
func TestEveryAlgorithmRunsWithoutAnInput(t *testing.T) {
	scenarioFor := map[string]string{
		"connectivity": "churn", "bipartite": "churn", "dynmatching": "churn", "nowickionak": "churn",
		"msf": "grow-weighted", "approxmsf": "churn-weighted", "matching": "grow",
	}
	for _, name := range harness.AlgorithmNames() {
		scenario, ok := scenarioFor[name]
		if !ok {
			t.Fatalf("no expected scenario for algorithm %q", name)
		}
		o := defaults()
		o.algo, o.n, o.batches = name, 32, 4
		out := mustRun(t, o)
		if !strings.HasPrefix(out, name+" over "+scenario+": ") || !strings.Contains(out, " checks passed") {
			t.Errorf("%s: not an oracle-checked run of %s:\n%s", name, scenario, out)
		}
		if !strings.Contains(out, "\nrounds: ") || !strings.Contains(out, "  violations: 0\n") {
			t.Errorf("%s: no rounds line, or not a violation-free one:\n%s", name, out)
		}
		if name != "connectivity" {
			continue
		}
		if !regexp.MustCompile(`\nreplacement searches: .* 0 exhausted\)`).MatchString(out) {
			t.Errorf("connectivity: no replacement-search line, or a search was exhausted:\n%s", out)
		}
	}
}

// summary extracts the end state from a replay's output: the vertex space
// and the oracle-verified answer (a component count for connectivity). The count of batches replayed is
// dropped — it depends on where the invocation started — and so are the
// Stats lines: a run cut by a checkpoint has also paid for the oracle check
// that preceded the cut.
func summary(t *testing.T, out string) string {
	t.Helper()
	m := regexp.MustCompile(`replayed \d+ batches (on \d+ vertices: .* \(oracle-verified\))`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no replay summary in:\n%s", out)
	}
	return m[1]
}

// convertCrawl writes a genedges-style crawl on 64 vertices ("u v t" lines,
// non-decreasing timestamps, some duplicates and self-loops for the
// converter to normalize away) into dir and converts it, with a window, to
// crawl.trc and crawl.stream there.
func convertCrawl(t *testing.T, dir string) {
	t.Helper()
	in := func(name string) string { return filepath.Join(dir, name) }
	rng := rand.New(rand.NewSource(9))
	var edges strings.Builder
	ts := 0
	for i := 0; i < 1500; i++ {
		ts += rng.Intn(3)
		u, v := rng.Intn(64), rng.Intn(64)
		fmt.Fprintf(&edges, "%d %d %d\n", u, v, ts)
	}
	if err := os.WriteFile(in("crawl.edges"), []byte(edges.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	conv := defaults()
	conv.convertFile, conv.window = in("crawl.edges"), 25
	conv.traceFile, conv.streamFile = in("crawl.trc"), in("crawl.stream")
	if out := mustRun(t, conv); !strings.Contains(out, "window expirations emitted") {
		t.Fatalf("unexpected convert output:\n%s", out)
	}
}

// TestReplayEndToEnd drives the ingestion pipeline the way the CI soak does
// — edge list → -convert → replay — through run itself: the text and binary
// outputs of one conversion replay to identical output, and a trace replay
// cut by -trace-batches + -checkpoint and continued by -resume (plain, and
// re-sharded by -resume-machines) ends where one uninterrupted replay does.
func TestReplayEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	convertCrawl(t, dir)

	trace := defaults()
	trace.traceFile = in("crawl.trc")
	whole := mustRun(t, trace)
	if !strings.Contains(whole, "replacement searches: ") || !strings.Contains(whole, " 0 exhausted)") {
		t.Errorf("summary does not report its replacement searches, or one was exhausted:\n%s", whole)
	}
	text := defaults()
	text.streamFile = in("crawl.stream")
	if got := mustRun(t, text); got != whole {
		t.Errorf("-stream and -trace of one conversion print different summaries:\n-stream:\n%s-trace:\n%s", got, whole)
	}
	par := trace
	par.parallelism = 8
	if got := mustRun(t, par); got != whole {
		t.Errorf("-parallelism 8 prints a different summary:\n%s\nvs\n%s", got, whole)
	}

	cutShort := trace
	cutShort.traceBatches, cutShort.checkpointFile = 8, in("mid.snap")
	if out := mustRun(t, cutShort); !strings.Contains(out, "full checkpoint written to") {
		t.Fatalf("no checkpoint reported:\n%s", out)
	}
	resumed := trace
	resumed.resumeFile = in("mid.snap")
	out := mustRun(t, resumed)
	if !strings.Contains(out, "continuing at trace batch 8 of") {
		t.Errorf("resume did not seek the trace:\n%s", out)
	}
	if got, want := summary(t, out), summary(t, whole); got != want {
		t.Errorf("resumed replay ends elsewhere than the uninterrupted one: %q vs %q", got, want)
	}

	resharded := resumed
	resharded.resumeMachines = 9
	out = mustRun(t, resharded)
	if !strings.Contains(out, "-> 9 machines") {
		t.Errorf("resume did not re-shard:\n%s", out)
	}
	if got, want := summary(t, out), summary(t, whole); got != want {
		t.Errorf("re-sharded resume ends elsewhere than the uninterrupted replay: %q vs %q", got, want)
	}
}

// TestResumeOntoAnotherFleetAnyAlgorithm: a trace replay of an algorithm
// other than connectivity, cut by -checkpoint and continued by -resume
// -resume-machines, ends with the oracle-verified answer of one
// uninterrupted replay.
func TestResumeOntoAnotherFleetAnyAlgorithm(t *testing.T) {
	dir := t.TempDir()
	convertCrawl(t, dir)
	for _, algo := range []string{"nowickionak", "bipartite"} {
		trace := defaults()
		trace.algo, trace.traceFile = algo, filepath.Join(dir, "crawl.trc")
		whole := mustRun(t, trace)
		if !strings.Contains(whole, "\nrounds: ") || !strings.Contains(whole, "  violations: 0\n") {
			t.Errorf("%s: the replay prints no violation-free rounds line:\n%s", algo, whole)
		}
		cut := trace
		cut.traceBatches, cut.checkpointFile = 8, filepath.Join(dir, algo+".snap")
		mustRun(t, cut)
		resumed := trace
		resumed.resumeFile, resumed.resumeMachines = cut.checkpointFile, 9
		out := mustRun(t, resumed)
		if !strings.Contains(out, "-> 9 machines") {
			t.Errorf("%s: resume did not re-shard:\n%s", algo, out)
		}
		if got, want := summary(t, out), summary(t, whole); got != want {
			t.Errorf("%s: re-sharded resume ends elsewhere than the uninterrupted replay: %q vs %q", algo, got, want)
		}
	}
}

// TestReplayRefusesInvalidBatch is mpcstream's end of the shared-validator
// contract: a text batch that touches one edge twice ("d 1 2" / "i 1 2" —
// valid line by line, but the algorithm applies inserts before deletes) is
// refused with graph.Check's diagnostic, not replayed into an oracle
// divergence, and nothing is checkpointed.
func TestReplayRefusesInvalidBatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.stream")
	if err := os.WriteFile(path, []byte("i 1 2\ni 2 3\n--\nd 1 2\ni 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g := graph.New(4)
	if err := g.Apply(graph.Batch{graph.Ins(1, 2), graph.Ins(2, 3)}); err != nil {
		t.Fatal(err)
	}
	want := g.Check(graph.Batch{graph.Del(1, 2), graph.Ins(1, 2)})
	if want == nil {
		t.Fatal("test batch is not invalid")
	}
	o := defaults()
	o.streamFile, o.checkpointFile = path, filepath.Join(dir, "c.snap")
	var out bytes.Buffer
	err := run(o, &out)
	if err == nil {
		t.Fatalf("invalid batch replayed:\n%s", out.String())
	}
	if got := "replayed batch 1: invalid batch: " + want.Error(); err.Error() != got {
		t.Errorf("error %q, want %q", err, got)
	}
	if _, statErr := os.Stat(o.checkpointFile); !os.IsNotExist(statErr) {
		t.Error("a refused replay still wrote a checkpoint")
	}
}

// TestResumedRoundsPerBatch: a resumed replay spreads the restored,
// cumulative rounds over the session's cumulative batches, not over the
// batches this process replayed — with an empty stream (none) and with a
// one-batch tail.
func TestResumedRoundsPerBatch(t *testing.T) {
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	const golden = "../../internal/core/testdata/churn32.stream"
	first := defaults()
	first.streamFile, first.checkpointFile = golden, in("s.snap")
	out := mustRun(t, first)
	var batches int
	if _, err := fmt.Sscanf(regexp.MustCompile(`replayed \d+ batches`).FindString(out), "replayed %d batches", &batches); err != nil || batches == 0 {
		t.Fatalf("no replayed batch count in:\n%s", out)
	}

	// The tail inserts the first pair the stream leaves absent.
	f, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g := graph.New(32)
	for r := streamio.NewReader(f); ; {
		b, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	v := 1
	for g.Has(0, v) {
		v++
	}
	if err := os.WriteFile(in("empty.stream"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in("tail.stream"), []byte(fmt.Sprintf("i 0 %d 1\n", v)), 0o644); err != nil {
		t.Fatal(err)
	}

	rounds := regexp.MustCompile(`rounds: (\d+) \((.*)/batch\)`)
	for _, tc := range []struct {
		stream string
		tail   int
	}{{"empty.stream", 0}, {"tail.stream", 1}} {
		resumed := defaults()
		resumed.resumeFile, resumed.streamFile = in("s.snap"), in(tc.stream)
		out := mustRun(t, resumed)
		m := rounds.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%s: no rounds line in:\n%s", tc.stream, out)
		}
		var total int
		fmt.Sscan(m[1], &total)
		if want := fmt.Sprintf("%.1f", float64(total)/float64(batches+tc.tail)); m[2] != want {
			t.Errorf("%s: %s rounds over %d + %d batches printed as %s/batch, want %s", tc.stream, m[1], batches, tc.tail, m[2], want)
		}
	}
}
