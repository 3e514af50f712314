package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// The experiment functions self-verify against oracles and panic on
// divergence; these tests run each one at reduced scale so every table can
// be regenerated, and spot-check the table structure.

func TestTableString(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Header:  []string{"a", "bbbb"},
		Rows:    [][]string{{"1", "2"}},
		Remarks: []string{"note"},
	}
	s := tb.String()
	for _, want := range []string{"demo", "bbbb", "# note"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestE1Small(t *testing.T) {
	tb := E1ConnectivityRounds([]int{48}, []float64{0.6}, 4, 1)
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][5] != "0" {
		t.Errorf("violations: %v", tb.Rows[0])
	}
}

func TestE2Small(t *testing.T) {
	tb := E2ConnectivityMemory(48, 0.6, []int{20, 40}, 2)
	if len(tb.Rows) < 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestE3Small(t *testing.T) {
	tb := E3QueryVsAGM([]int{48}, 3)
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][2] != "0" {
		t.Errorf("ours query rounds = %s, want 0", tb.Rows[0][2])
	}
}

func TestE4Small(t *testing.T) {
	tb := E4ExactMSF([]int{32}, 4, 4)
	if !strings.HasPrefix(tb.Rows[0][3], "true") {
		t.Errorf("MSF not exact: %v", tb.Rows[0])
	}
	if most, err := strconv.Atoi(tb.Rows[0][2]); err != nil || most > 21 {
		t.Errorf("max rounds/batch %q, past one wave's 21: %v", tb.Rows[0][2], tb.Rows[0])
	}
}

func TestE5Small(t *testing.T) {
	tb := E5ApproxMSF(32, []float64{0.25}, 5, 5)
	if tb.Rows[0][4] != "true" {
		t.Errorf("approx MSF outside (1+eps): %v", tb.Rows[0])
	}
}

func TestE6Small(t *testing.T) {
	tb := E6Bipartiteness(32, 6, 6)
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestE7Small(t *testing.T) {
	tb := E7InsertMatching(32, []float64{2}, 7)
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestE8Small(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	tb := E8DynamicMatching(24, []float64{2}, 5, 8)
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestE9Small(t *testing.T) {
	tb := E9BatchScaling(48, []float64{0.5, 1}, 3, 9)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestE10Small(t *testing.T) {
	tb := E10EulerTourAblation(64, []int{4, 8}, 10)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestE11Small(t *testing.T) {
	tb := E11SketchCopiesAblation(32, []int{1, 18}, 4, []uint64{1, 2, 3})
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The well-provisioned configuration must not diverge.
	if tb.Rows[1][2] != "0" {
		t.Errorf("t=18 diverged: %v", tb.Rows[1])
	}
}

func TestE12Small(t *testing.T) {
	tb := E12CommunicationPerRound([]int{32, 64}, 4, 12)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestE14Small(t *testing.T) {
	tb := E14ScenarioSweep(48, 4, []string{"star", "grow-weighted"}, 14)
	if len(tb.Rows) < 5 {
		t.Fatalf("rows = %d: star should pair with the dynamic algorithms and grow-weighted with every insert-capable one", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if r[6] == "0" {
			t.Errorf("row ran no checks: %v", r)
		}
	}
}

func TestE15Small(t *testing.T) {
	tb := E15QueryThroughput([]int{48}, 4, 64, 15)
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][4] != "0.0000" {
		t.Errorf("warm rounds/query = %s, want 0: %v", tb.Rows[0][4], tb.Rows[0])
	}
}

func TestE13Small(t *testing.T) {
	tb := E13ParallelSpeedup(48, []int{1, 4}, 4, 13)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 2 workloads x 2 parallelisms", len(tb.Rows))
	}
	seen := map[string]bool{}
	for _, r := range tb.Rows {
		seen[r[0]] = true
		if r[6] != "true" {
			t.Errorf("stats not identical across engines: %v", r)
		}
	}
	if !seen["churn"] || !seen["powerlaw"] {
		t.Errorf("missing workload rows: %v", seen)
	}
}

func TestE16Small(t *testing.T) {
	tb := E16CrashRecovery([]int{48}, 8, 3, 16)
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][5] != "true" {
		t.Errorf("crash run not bit-identical: %v", tb.Rows[0])
	}
}

// TestE17Small runs the scale table at two small sizes: every row counts
// rounds and no violation, and its counts are the mixed batches' own — those
// of the same run with no oracle check after it, whose queries at 2^10 run
// rounds of their own.
func TestE17Small(t *testing.T) {
	sizes := []int{256, 1024}
	tb := E17ScaleSweep(sizes, 40, 17)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i, r := range tb.Rows {
		if r[3] == "0.00" || r[7] != "0" {
			t.Errorf("no rounds or a violation: %v", r)
		}
		dc, _, _ := e17Run(sizes[i], 40, 17)
		st := dc.Cluster().Stats()
		if rounds, words := f2(float64(st.Rounds)/40), f2(float64(st.WordsSent)/40); r[3] != rounds || r[4] != words {
			t.Errorf("n = %d: the row reads %s rounds and %s words a batch, the batches' own are %s and %s", sizes[i], r[3], r[4], rounds, words)
		}
	}
}
