package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// smokeRun executes one workload at smoke scale with tracing on.
func smokeRun(t *testing.T, sp spec, seed uint64, traceFile string) *report {
	t.Helper()
	rep, err := execute(sp, "smoke", seed, 2, true, t.TempDir(), traceFile)
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	if rep.OpsFailed != 0 || rep.OpsAttempted == 0 {
		t.Fatalf("%s: %d of %d operations failed", sp.name, rep.OpsFailed, rep.OpsAttempted)
	}
	return rep
}

// TestSmoke keeps every workload compiling, verifying its answers against
// the oracle, and emitting every metric of the contract and well-formed
// spans, at a size tier-1 can afford.
func TestSmoke(t *testing.T) {
	for _, sp := range specs("smoke") {
		t.Run(sp.name, func(t *testing.T) {
			traceFile := filepath.Join(t.TempDir(), "spans.json")
			rep := smokeRun(t, sp, 1, traceFile)
			for _, d := range endToEnd {
				v, ok := rep.EndToEnd[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("end-to-end metric %s missing or in the wrong unit: %+v", d.Name, v)
				}
				if !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive finite number", d.Name, v.Value)
				}
			}
			for _, d := range perLayer {
				v, ok := rep.PerLayer[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("per-layer metric %s missing or in the wrong unit: %+v", d.Name, v)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer metric %s = %v", d.Name, v.Value)
				}
			}
			if len(rep.PerLayer) != len(perLayer) || len(rep.EndToEnd) != len(endToEnd) {
				t.Errorf("report has %d + %d metrics, the contract %d + %d", len(rep.EndToEnd), len(rep.PerLayer), len(endToEnd), len(perLayer))
			}
			checkSpans(t, traceFile)
		})
	}
}

// checkSpans reads a trace file back and checks that spans nest: a child
// starts after and ends before its parent, and shares its operation id.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	roots := map[string]int{}
	for i, s := range spans {
		if s.EndNs < s.StartNs {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			roots[s.Name]++
			continue
		}
		if s.Parent >= i {
			t.Fatalf("span %d (%s) names a later span as its parent", i, s.Name)
		}
		p := spans[s.Parent]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Fatalf("span %d (%s) is not inside its parent %s", i, s.Name, p.Name)
		}
		if s.ID != p.ID {
			t.Fatalf("span %d (%s) has id %d, its parent %s has %d", i, s.Name, s.ID, p.Name, p.ID)
		}
	}
	for _, name := range []string{"setup", "batch", "query", "checkpoint", "recover", "resize"} {
		if roots[name] == 0 {
			t.Errorf("no %q root span in the trace", name)
		}
	}
}

// TestExactCountsRepeat runs one workload of each front-end twice on one
// seed: everything marked exact must come out bit-identical.
func TestExactCountsRepeat(t *testing.T) {
	for _, sp := range specs("smoke") {
		if sp.name == "serve-reads" {
			continue // same front-end as serve-window
		}
		a, b := smokeRun(t, sp, 3, ""), smokeRun(t, sp, 3, "")
		for _, d := range endToEnd {
			if d.Exact && a.EndToEnd[d.Name].Value != b.EndToEnd[d.Name].Value {
				t.Errorf("%s/%s: %v then %v", sp.name, d.Name, a.EndToEnd[d.Name].Value, b.EndToEnd[d.Name].Value)
			}
		}
		for _, d := range perLayer {
			if d.Exact && a.PerLayer[d.Name].Value != b.PerLayer[d.Name].Value {
				t.Errorf("%s/%s: %v then %v", sp.name, d.Name, a.PerLayer[d.Name].Value, b.PerLayer[d.Name].Value)
			}
		}
	}
}

// TestUntracedRunReportsEndToEndOnly pins the rule that end-to-end numbers
// come from runs that record no spans.
func TestUntracedRunReportsEndToEndOnly(t *testing.T) {
	rep, err := execute(specs("smoke")[3], "smoke", 1, 1, false, t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerLayer != nil || len(rep.EndToEnd) != len(endToEnd) {
		t.Errorf("untraced run reported %d end-to-end and %d per-layer metrics", len(rep.EndToEnd), len(rep.PerLayer))
	}
}

// TestContractFile fails when BENCHMARK.json and the metric tables drift.
func TestContractFile(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := contractJSON(); !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Errorf("BENCHMARK.json is not what `go run ./bench -print-contract` prints; regenerate it")
	}
}

func TestScaleGuard(t *testing.T) {
	if err := checkScale("full", true); err == nil {
		t.Error("a -race binary was allowed to run at full scale")
	}
	for _, c := range []struct {
		scale string
		race  bool
	}{{"smoke", true}, {"smoke", false}, {"full", false}} {
		if err := checkScale(c.scale, c.race); err != nil {
			t.Errorf("checkScale(%q, %v): %v", c.scale, c.race, err)
		}
	}
	if err := checkScale("toy", false); err == nil {
		t.Error("unknown scale accepted")
	}
}

// TestReferenceTime pins the scaling of a span by the probes around the one
// it started after: a host twice as slow halves the span.
func TestReferenceTime(t *testing.T) {
	h := &hostSpeed{points: []float64{probeRef, probeRef, 2 * probeRef, 2 * probeRef, 2 * probeRef, 2 * probeRef, 2 * probeRef}}
	got := h.reference([]float64{1, 1, 1}, []int{0, 4, 6})
	for i, want := range []float64{1, 0.5, 0.5} {
		if math.Abs(got[i]-want) > 1e-12 {
			t.Errorf("span %d in reference time = %v, want %v", i, got[i], want)
		}
	}
	if f := h.factor(0, 1); math.Abs(f-1) > 1e-12 {
		t.Errorf("factor over two reference probes = %v, want 1", f)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// the method the run-to-run spread rule is stated in.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 4, 7, 3, 9, 2, 8, 6, 5})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if p := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.95); p != 10 {
		t.Errorf("p95 of 1..10 = %v, want 10", p)
	}
}
