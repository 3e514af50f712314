package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchOut is literal `go test -bench -benchmem` output over two packages:
// pkg: headers, -N GOMAXPROCS suffixes, a custom metric, a sub-benchmark
// whose own name contains a dash, and a name both packages use.
const benchOut = `goos: linux
goarch: amd64
pkg: repro/internal/core
cpu: Some CPU @ 2.00GHz
BenchmarkConnectedLoop-2   	     100	   6178073 ns/op	         4.000 rounds/query	       1 B/op	       0 allocs/op
BenchmarkRestore-2         	     100	   4168839 ns/op	 261.49 MB/s	 6352441 B/op	     152 allocs/op
BenchmarkShared-2          	     100	      1000 ns/op	     200 B/op	      10 allocs/op
PASS
ok  	repro/internal/core	36.957s
pkg: repro/internal/mpc
BenchmarkStep/pool-skew/64-2 	     100	    167844 ns/op	    2608 B/op	     129 allocs/op
BenchmarkShared-2          	     100	      1000 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/mpc	0.009s
`

func parsed(t *testing.T, out string) map[string]Counts {
	t.Helper()
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestParseBench(t *testing.T) {
	want := map[string]Counts{
		"repro/internal/core.BenchmarkConnectedLoop":    {RoundsPerQuery: 4}, // 1 B/op at 0 allocs/op is noise, read as 0
		"repro/internal/core.BenchmarkRestore":          {AllocsPerOp: 152, BytesPerOp: 6352441},
		"repro/internal/core.BenchmarkShared":           {AllocsPerOp: 10, BytesPerOp: 200},
		"repro/internal/mpc.BenchmarkStep/pool-skew/64": {AllocsPerOp: 129, BytesPerOp: 2608},
		"repro/internal/mpc.BenchmarkShared":            {},
	}
	got := parsed(t, benchOut)
	if len(got) != len(want) {
		t.Errorf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s = %+v (present %v), want %+v", name, g, ok, w)
		}
	}
	// At -cpu 1 go test prints no suffix; the key must not change.
	bare := parsed(t, strings.ReplaceAll(benchOut, "-2 ", " "))
	for name := range want {
		if bare[name] != want[name] {
			t.Errorf("-cpu 1 output: %s = %+v, want %+v", name, bare[name], want[name])
		}
	}
}

func TestParseBenchRejects(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"same name twice in one package", benchOut + "pkg: repro/internal/mpc\nBenchmarkShared-4  100  1 ns/op  0 B/op  0 allocs/op\n", "duplicate benchmark repro/internal/mpc.BenchmarkShared"},
		{"failed package", benchOut + "FAIL\trepro/internal/trace\t0.1s\n", "go test failed"},
		{"failed benchmark", "pkg: repro\n--- FAIL: BenchmarkX\n", "go test failed"},
		{"no benchmarks", "ok  \trepro\t0.1s\n", "no benchmark lines"},
	} {
		if _, err := parseBench(strings.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCompare(t *testing.T) {
	const name = "repro/internal/core.BenchmarkRestore"
	pinned := Counts{AllocsPerOp: 100, BytesPerOp: 1000, RoundsPerQuery: 4}
	for _, tc := range []struct {
		desc string
		base Counts
		got  Counts
		want []string // one substring per expected departure, in order
	}{
		{"identical", pinned, pinned, nil},
		{"inside the band, both sides", pinned, Counts{AllocsPerOp: 105, BytesPerOp: 950, RoundsPerQuery: 4}, nil},
		{"allocs above the band", pinned, Counts{AllocsPerOp: 110, BytesPerOp: 1000, RoundsPerQuery: 4}, []string{"allocs/op regressed: pinned 100, got 110"}},
		{"allocs below the band", pinned, Counts{AllocsPerOp: 90, BytesPerOp: 1000, RoundsPerQuery: 4}, []string{"allocs/op improved: pinned 100, got 90: baseline stale, run -update"}},
		{"bytes above the band", pinned, Counts{AllocsPerOp: 100, BytesPerOp: 1051, RoundsPerQuery: 4}, []string{"B/op regressed: pinned 1000, got 1051"}},
		{"bytes below the band", pinned, Counts{AllocsPerOp: 100, BytesPerOp: 949, RoundsPerQuery: 4}, []string{"B/op improved: pinned 1000, got 949: baseline stale"}},
		{"rounds/query is exact, up", pinned, Counts{AllocsPerOp: 100, BytesPerOp: 1000, RoundsPerQuery: 4.01}, []string{"rounds/query regressed: pinned 4, got 4.01"}},
		{"rounds/query is exact, down", pinned, Counts{AllocsPerOp: 100, BytesPerOp: 1000, RoundsPerQuery: 3.99}, []string{"rounds/query improved: pinned 4, got 3.99: baseline stale"}},
		{"zero-alloc contract", Counts{}, Counts{AllocsPerOp: 1, BytesPerOp: 16}, []string{"B/op regressed: pinned 0, got 16", "allocs/op regressed: pinned 0, got 1 "}},
		{"zero-round contract", Counts{}, Counts{RoundsPerQuery: 0.5}, []string{"rounds/query regressed: pinned 0, got 0.5"}},
		{"allocations gone", pinned, Counts{RoundsPerQuery: 4}, []string{"B/op improved", "allocs/op improved: pinned 100, got 0"}},
	} {
		fails := compare(map[string]Counts{name: tc.base}, map[string]Counts{name: tc.got})
		if len(fails) != len(tc.want) {
			t.Errorf("%s: %d departures, want %d: %q", tc.desc, len(fails), len(tc.want), fails)
			continue
		}
		for i, w := range tc.want {
			if !strings.HasPrefix(fails[i], name+": ") || !strings.Contains(fails[i], w) {
				t.Errorf("%s: departure %d = %q, want %q", tc.desc, i, fails[i], w)
			}
		}
	}
}

func TestCompareKeySets(t *testing.T) {
	base := parsed(t, benchOut)
	missing := parsed(t, strings.Replace(benchOut, "BenchmarkRestore-2", "BenchmarkRenamed-2", 1))
	fails := compare(base, missing)
	if len(fails) != 2 ||
		!strings.Contains(fails[0], "core.BenchmarkRenamed: not in the baseline") ||
		!strings.Contains(fails[1], "core.BenchmarkRestore: pinned but not in the bench output") {
		t.Errorf("renamed benchmark: %q", fails)
	}
	for _, f := range fails {
		if !strings.Contains(f, "-update") {
			t.Errorf("departure does not say what to do: %q", f)
		}
	}
}

func TestRunUpdateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	var out bytes.Buffer
	if err := run(path, true, strings.NewReader(benchOut), &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Counts only: no time, no GOMAXPROCS, no derived speedup.
	var file struct {
		Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	for name, entry := range file.Benchmarks {
		for key := range entry {
			if key != "allocs_per_op" && key != "bytes_per_op" && key != "rounds_per_query" {
				t.Errorf("%s carries %q:\n%s", name, key, raw)
			}
		}
	}
	if !strings.Contains(string(raw), `"rounds_per_query": 4`) || !strings.Contains(string(raw), command) {
		t.Errorf("baseline lost rounds_per_query or the command:\n%s", raw)
	}
	// What was written checks clean against the output it came from, and
	// against a different host's timings, GOMAXPROCS and zero-alloc B/op.
	for _, in := range []string{benchOut, strings.NewReplacer("-2 ", "-16 ", " 4168839 ns/op", " 99 ns/op", " 1 B/op", " 655 B/op").Replace(benchOut)} {
		out.Reset()
		if err := run(path, false, strings.NewReader(in), &out); err != nil {
			t.Errorf("check after -update: %v", err)
		}
		if !strings.Contains(out.String(), "5 benchmarks match") {
			t.Errorf("check after -update printed %q", out.String())
		}
	}
	// A stale entry fails the run and is named.
	err = run(path, false, strings.NewReader(strings.Replace(benchOut, "152 allocs/op", "120 allocs/op", 1)), &out)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkRestore: allocs/op improved: pinned 152, got 120: baseline stale") {
		t.Errorf("stale baseline: err = %v", err)
	}
}
