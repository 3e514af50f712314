package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// child runs one workload in a fresh process of this same binary and parses
// its report (the first line of its standard output).
func child(workload string, seed uint64, secs int, scale, workdir string, traced bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(secs), "-scale", scale, "-workdir", workdir, "-trace", t)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", workload, err, stderr.Bytes())
	}
	line, _, _ := bytes.Cut(stdout.Bytes(), []byte("\n"))
	var rep report
	if err := json.Unmarshal(line, &rep); err != nil {
		return nil, fmt.Errorf("%s: unreadable report: %w", workload, err)
	}
	return &rep, nil
}

// runChildren is -all (k = 0: every workload once, reports on standard
// output) and -repeat-check K: every workload as two interleaved sets of K
// untraced processes plus one traced process per set, failing when the two
// sets' medians differ by more than a metric's bound or an exact count
// differs between any two runs.
func runChildren(k int, seed uint64, secs int, scale, workdir string) error {
	var bad []string
	for _, wl := range workloadNames() {
		if k == 0 {
			rep, err := child(wl, seed, secs, scale, workdir, false)
			if err != nil {
				return err
			}
			printTable(rep)
			printJSON(rep)
			continue
		}
		var sets [2][]*report
		for i := 0; i < 2*k; i++ {
			rep, err := child(wl, seed, secs, scale, workdir, false)
			if err != nil {
				return err
			}
			sets[i%2] = append(sets[i%2], rep)
			fmt.Fprintf(os.Stderr, "%s %c%d: %.1f s\n", wl, 'A'+i%2, i/2+1, rep.WallS)
		}
		var tracedRuns [2]*report
		for i := range tracedRuns {
			rep, err := child(wl, seed, secs, scale, workdir, true)
			if err != nil {
				return err
			}
			tracedRuns[i] = rep
		}
		bad = append(bad, compareSets(wl, sets, tracedRuns)...)
	}
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "FAIL", b)
		}
		return fmt.Errorf("%d workload/metric pairs disagree between two sets of runs of the same code", len(bad))
	}
	return nil
}

func compareSets(wl string, sets [2][]*report, traced [2]*report) (bad []string) {
	w := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintf(w, "%s\tmedian A\t[q1, q3]\tmedian B\t[q1, q3]\tdiff\tspread\tbound\n", wl)
	for _, d := range endToEnd {
		var xs [2][]float64
		for s, set := range sets {
			for _, rep := range set {
				xs[s] = append(xs[s], rep.EndToEnd[d.Name].Value)
			}
		}
		ma, mb := median(xs[0]), median(xs[1])
		a1, a3 := quartiles(xs[0])
		b1, b3 := quartiles(xs[1])
		diff := (mb - ma) / ma
		if diff < 0 {
			diff = -diff
		}
		every := append(append([]float64(nil), xs[0]...), xs[1]...)
		q1, q3 := quartiles(every)
		spread := (q3 - q1) / median(every)
		fmt.Fprintf(w, "  %s\t%.5g\t[%.5g, %.5g]\t%.5g\t[%.5g, %.5g]\t%.1f%%\t%.1f%%\t%.0f%%\n",
			d.Name, ma, a1, a3, mb, b1, b3, 100*diff, 100*spread, 100*d.Bound)
		if d.Exact {
			for _, x := range every {
				if x != every[0] {
					bad = append(bad, fmt.Sprintf("%s/%s: exact count differs between runs: %v", wl, d.Name, every))
					break
				}
			}
		} else if diff > d.Bound {
			bad = append(bad, fmt.Sprintf("%s/%s: medians %.5g and %.5g differ by %.1f%%, bound %.0f%%", wl, d.Name, ma, mb, 100*diff, 100*d.Bound))
		}
	}
	for _, d := range perLayer {
		a, b := traced[0].PerLayer[d.Name].Value, traced[1].PerLayer[d.Name].Value
		if d.Exact && a != b {
			bad = append(bad, fmt.Sprintf("%s/%s: exact count differs between traced runs: %v vs %v", wl, d.Name, a, b))
		}
	}
	fmt.Fprintf(w, "  proc.trace_overhead_pct\t%.3g\t\t%.3g\n",
		traced[0].PerLayer["proc.trace_overhead_pct"].Value, traced[1].PerLayer["proc.trace_overhead_pct"].Value)
	w.Flush()
	return bad
}
