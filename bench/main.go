// Command bench is the repository's end-to-end benchmark: four workloads
// that drive the three real front-ends (internal/server over HTTP, a trace
// file replayed the way cmd/mpcstream does, and an in-process durable
// session) through the same lifecycle — setup, a steady script of update and
// query batches, and a tail of restart/resize cycles — from one driver
// goroutine, so that a run executes the same operations in the same order
// every time. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run ./bench --workload serve-window --seed 1 --seconds 8 --trace 0
//	go run ./bench -all
//	go run ./bench -repeat-check 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"
)

// defaultSeconds is run_seconds of BENCHMARK.json: the length of the steady
// phase the script is sized for on the 2-core reference box.
const defaultSeconds = 8

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: serve-window, serve-reads, ingest-grow or recover-churn")
		seed      = flag.Uint64("seed", 1, "input seed (2 is the held-out seed)")
		secs      = flag.Int("seconds", defaultSeconds, "length the steady script is sized for; the script, not the clock, ends the run")
		traced    = flag.Int("trace", 0, "1 records a span per call into a layer and reports the per-layer metrics")
		traceFile = flag.String("trace-file", "", "with -trace 1, write the spans to this file as JSON")
		scale     = flag.String("scale", "full", "full (n=4096) or smoke (n=256, seconds)")
		workdir   = flag.String("workdir", ".bench_build", "directory for checkpoint chains and trace files; a tmpfs takes fsync out of the numbers")
		all       = flag.Bool("all", false, "run the four workloads, each in a fresh process")
		repeat    = flag.Int("repeat-check", 0, "run every workload as two interleaved sets of K fresh processes and compare them")
		contract  = flag.Bool("print-contract", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(2, fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *contract {
		os.Stdout.Write(contractJSON())
		return
	}
	if err := checkScale(*scale, raceEnabled); err != nil {
		fail(2, err)
	}
	if *secs < 1 || *secs > 60 {
		fail(2, fmt.Errorf("-seconds %d outside [1, 60]", *secs))
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fail(1, err)
	}
	if *repeat > 0 || *all {
		k := *repeat
		if *all {
			k = 0
		}
		if err := runChildren(k, *seed, *secs, *scale, *workdir); err != nil {
			fail(1, err)
		}
		return
	}
	var sp *spec
	for _, s := range specs(*scale) {
		if s.name == *workload {
			sp = &s
		}
	}
	if sp == nil {
		fail(2, fmt.Errorf("unknown -workload %q (want one of %v)", *workload, workloadNames()))
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	rep, err := execute(*sp, *scale, *seed, *secs, *traced != 0, *workdir, *traceFile)
	if rep == nil {
		fail(1, err)
	}
	printTable(rep)
	printJSON(rep)
	if err != nil {
		// The program failed, not the benchmark: say so in the result line.
		printResult(rep, false)
		fail(1, err)
	}
	printResult(rep, true)
}

// checkScale refuses sizes that do not exist and timings that mean nothing.
func checkScale(scale string, race bool) error {
	if scale != "full" && scale != "smoke" {
		return fmt.Errorf("unknown -scale %q (want full or smoke)", scale)
	}
	if scale == "full" && race {
		return fmt.Errorf("this binary was built with -race: its timings mean nothing at full scale (use -scale smoke)")
	}
	return nil
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(code)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadWhy {
		names = append(names, w.Name)
	}
	return names
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(1, err)
	}
	fmt.Println(string(b))
}

// printResult prints the result line of the benchmark contract: the
// end-to-end metrics of an untraced run, the per-layer ones of a traced run.
func printResult(rep *report, correct bool) {
	metrics := rep.EndToEnd
	if rep.Traced && rep.PerLayer != nil {
		metrics = rep.PerLayer
	}
	out := map[string]map[string]any{}
	for name, v := range metrics {
		out[name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	attempted := rep.OpsAttempted
	if attempted < 1 {
		attempted = 1
	}
	printJSON(map[string]any{"correct": correct, "attempted": attempted, "failed": rep.OpsFailed, "metrics": out})
}

// printTable writes the human-readable form to standard error.
func printTable(rep *report) {
	w := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintf(w, "%s\tseed %d\t%d s script\t%.1f s wall\t%d ops, %d failed\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.WallS, rep.OpsAttempted, rep.OpsFailed)
	row := func(defs []metricDef, m map[string]value) {
		for _, d := range defs {
			if v, ok := m[d.Name]; ok {
				fmt.Fprintf(w, "  %s\t%.6g\t%s\tn=%d\n", d.Name, v.Value, v.Unit, v.Samples)
			}
		}
	}
	row(endToEnd, rep.EndToEnd)
	if rep.PerLayer == nil {
		row(perLayer, rep.Host)
	}
	row(perLayer, rep.PerLayer)
	w.Flush()
}

// contractJSON generates BENCHMARK.json from the metric tables.
func contractJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	c := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloadWhy {
		c.Workloads = append(c.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}
