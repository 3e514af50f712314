// Command benchdiff is the micro gate: a count ledger, the allocation-side
// twin of core.TestLedgerPinned. It reads `go test -bench -benchmem` output
// on stdin and pins three counts per benchmark, two-sided, against the
// checked-in baseline (BENCH_sketch.json at the repository root):
// rounds/query exactly, allocs/op and B/op within ±5%. These are what
// repeats on every host once the iteration count is fixed; wall-clock time
// does not, and is measured by `go run ./bench` instead.
//
// One command runs the gate, and the same command with -update refreshes
// the baseline after an intentional change. An update keeps every pinned
// entry whose reading is still inside its band: it rewrites only the
// departures, adds new benchmarks and drops deleted ones, so run-to-run
// noise never moves a pin:
//
//	go test -run '^$' -bench . -benchmem -benchtime=100x ./... | go run ./scripts/benchdiff.go
//
// A reading worse than the band is a regression; a reading better than the
// band fails too ("baseline stale"), so improvements ratchet instead of
// leaving room to regress back. A pinned 0 is a hard zero contract. The
// benchmark set must equal the baseline's key set in both directions: every
// `func Benchmark` outside bench/ is in the ledger and nothing else is.
// Results are keyed by package-qualified name (from the `pkg:` headers), and
// a name seen twice — -count > 1, several -cpu values — is rejected.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

const (
	command = "go test -run '^$' -bench . -benchmem -benchtime=100x ./... | go run ./scripts/benchdiff.go"

	// tolerance is the two-sided band on allocs/op and B/op. At a fixed
	// iteration count allocs/op repeat to within 0.1% (map iteration order)
	// and B/op to within 4% from lowest to highest reading (GC-timed pool
	// refills) across runs and across GOMAXPROCS 1/2/4/8 on every benchmark
	// in the ledger.
	tolerance = 0.05
)

// Counts is one benchmark's pinned profile.
type Counts struct {
	AllocsPerOp    float64 `json:"allocs_per_op"`
	BytesPerOp     float64 `json:"bytes_per_op"`
	RoundsPerQuery float64 `json:"rounds_per_query,omitempty"`
}

// Baseline is the on-disk schema of BENCH_sketch.json.
type Baseline struct {
	Note       string            `json:"note"`
	Benchmarks map[string]Counts `json:"benchmarks"`
}

var (
	// BenchmarkSketchUpdate-8   100   987.6 ns/op   0 B/op   0 allocs/op
	// (go test omits the -8 GOMAXPROCS suffix at -cpu 1.)
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)
	pkgLine   = regexp.MustCompile(`^pkg:\s+(\S+)$`)
)

// parseBench extracts the counts from `go test -bench` output, keyed
// "repro/internal/sketch.BenchmarkFoo". A FAIL line is an error: in a
// pipeline go test's own exit status is lost.
func parseBench(r io.Reader) (map[string]Counts, error) {
	out := map[string]Counts{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") {
			return nil, fmt.Errorf("go test failed: %s", line)
		}
		if m := pkgLine.FindStringSubmatch(line); m != nil {
			pkg = m[1]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		key := pkg + "." + m[1]
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("duplicate benchmark %s (one measurement each: -count=1, one -cpu value, no concatenated runs)", key)
		}
		var c Counts
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				c.BytesPerOp = v
			case "allocs/op":
				c.AllocsPerOp = v
			case "rounds/query":
				c.RoundsPerQuery = v
			}
		}
		// At zero allocations B/op is amortised pool and warm-up noise (0, 1
		// and 3 B/op observed for the same code): not a count, not pinned.
		if c.AllocsPerOp == 0 {
			c.BytesPerOp = 0
		}
		out[key] = c
	}
	if len(out) == 0 && sc.Err() == nil {
		return nil, errors.New("no benchmark lines on stdin; run: " + command)
	}
	return out, sc.Err()
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// pin checks one count against its pinned value, both ways.
func pin(fails []string, name, metric string, base, got, tol float64) []string {
	switch {
	case got > base*(1+tol):
		return append(fails, fmt.Sprintf("%s: %s regressed: pinned %s, got %s (band ±%g%%, a pinned 0 is a zero contract); fix it, or if intended rerun with -update and say why in CHANGES.md",
			name, metric, num(base), num(got), 100*tol))
	case got < base*(1-tol):
		return append(fails, fmt.Sprintf("%s: %s improved: pinned %s, got %s: baseline stale, run -update so the gain stays pinned",
			name, metric, num(base), num(got)))
	}
	return fails
}

// departures appends every way one benchmark's reading g departs from its
// pinned b.
func departures(fails []string, name string, b, g Counts) []string {
	fails = pin(fails, name, "rounds/query", b.RoundsPerQuery, g.RoundsPerQuery, 0)
	fails = pin(fails, name, "allocs/op", b.AllocsPerOp, g.AllocsPerOp, tolerance)
	return pin(fails, name, "B/op", b.BytesPerOp, g.BytesPerOp, tolerance)
}

// compare returns every way got departs from base, sorted by benchmark.
func compare(base, got map[string]Counts) []string {
	var fails []string
	for name, b := range base {
		g, ok := got[name]
		if !ok {
			fails = append(fails, name+": pinned but not in the bench output; run the whole command, or if the benchmark was deleted rerun with -update")
			continue
		}
		fails = departures(fails, name, b, g)
	}
	for name := range got {
		if _, ok := base[name]; !ok {
			fails = append(fails, name+": not in the baseline; every benchmark outside bench/ is pinned, rerun with -update")
		}
	}
	sort.Strings(fails)
	return fails
}

// updated is the baseline -update writes: every benchmark of got, keeping
// the pinned entry of one still inside its band, so a re-pin moves only the
// departures, adds the new benchmarks and drops the deleted ones. It returns
// how many entries it rewrote, added and dropped.
func updated(base, got map[string]Counts) (next map[string]Counts, moved, added, dropped int) {
	next = make(map[string]Counts, len(got))
	for name, g := range got {
		b, ok := base[name]
		switch {
		case !ok:
			added++
		case len(departures(nil, name, b, g)) > 0:
			moved++
		default:
			g = b
		}
		next[name] = g
	}
	for name := range base {
		if _, ok := got[name]; !ok {
			dropped++
		}
	}
	return next, moved, added, dropped
}

// readBaseline reads the pinned counts; a missing file pins nothing.
func readBaseline(path string) (map[string]Counts, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return map[string]Counts{}, nil
	}
	if err != nil {
		return nil, err
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return base.Benchmarks, nil
}

// run is the whole command: parse in, then update or check the baseline.
func run(baselinePath string, update bool, in io.Reader, out io.Writer) error {
	got, err := parseBench(in)
	if err != nil {
		return err
	}
	base, err := readBaseline(baselinePath)
	if err != nil {
		return err
	}
	if update {
		next, moved, added, dropped := updated(base, got)
		buf, err := json.MarshalIndent(Baseline{Note: "count ledger; check or refresh (-update) with: " + command, Benchmarks: next}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(baselinePath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "benchdiff: wrote %d benchmarks to %s (%d re-pinned, %d added, %d dropped)\n", len(next), baselinePath, moved, added, dropped)
		return nil
	}
	if fails := compare(base, got); len(fails) > 0 {
		return fmt.Errorf("%d departure(s) from %s:\n  %s", len(fails), baselinePath, strings.Join(fails, "\n  "))
	}
	fmt.Fprintf(out, "benchdiff: %d benchmarks match %s (rounds/query exact, allocs/op and B/op ±%g%%)\n", len(got), baselinePath, 100*tolerance)
	return nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_sketch.json", "baseline JSON file")
	update := flag.Bool("update", false, "rewrite the baseline from the bench output instead of checking it")
	flag.Parse()
	if err := run(*baselinePath, *update, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff: "+err.Error())
		os.Exit(1)
	}
}
