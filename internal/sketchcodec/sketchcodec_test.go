package sketchcodec_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hash"
	"repro/internal/mpc"
	"repro/internal/sketch"
	"repro/internal/sketchcodec"
)

// contribution is one (label, sketch) pair a machine feeds to add.
type contribution struct {
	label int
	sk    sketch.Sketch
}

func newCluster(machines, parallelism int) *mpc.Cluster {
	return mpc.NewCluster(mpc.Config{Machines: machines, LocalMemory: 1 << 20, Parallelism: parallelism})
}

// randomContributions spreads per-label random sketches over the machines
// listed in on (the others contribute nothing) and returns them per machine
// together with the per-label sum computed by sketch.Sum.
func randomContributions(space *sketch.Space, rng *rand.Rand, machines int, on []int, labels, perMachine int) ([][]contribution, map[int]sketch.Sketch) {
	byMachine := make([][]contribution, machines)
	parts := map[int][]sketch.Sketch{}
	for _, m := range on {
		for i := 0; i < perMachine; i++ {
			sk := space.NewSketch()
			for j := 0; j < 1+rng.Intn(5); j++ {
				sk.Update(uint64(rng.Intn(1<<10)), 1-2*rng.Intn(2))
			}
			label := rng.Intn(labels)
			byMachine[m] = append(byMachine[m], contribution{label, sk})
			parts[label] = append(parts[label], sk)
		}
	}
	want := make(map[int]sketch.Sketch, len(parts))
	for l, ps := range parts {
		want[l] = sketch.Sum(ps...)
	}
	return byMachine, want
}

// aggregate sums copies [lo, hi) of the contributions.
func aggregate(cl *mpc.Cluster, space *sketch.Space, lo, hi int, byMachine [][]contribution) (map[int]sketch.Sketch, func()) {
	return sketchcodec.AggregateByLabel(cl, cl.Machines()-1, space, lo, hi,
		func(mm *mpc.Machine, add func(label int, sk sketch.Sketch)) {
			for _, c := range byMachine[mm.ID] {
				add(c.label, c.sk)
			}
		})
}

// checkEqual compares aggregated views of copies [lo, hi) with the same
// copies of the expected full sketches.
func checkEqual(t *testing.T, got, want map[int]sketch.Sketch, lo, hi int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d labels aggregated, want %d", len(got), len(want))
	}
	for l, w := range want {
		g, ok := got[l]
		if !ok {
			t.Fatalf("label %d missing", l)
		}
		if glo, ghi := g.CopyRange(); glo != lo || ghi != hi {
			t.Fatalf("label %d: view of copies [%d,%d), want [%d,%d)", l, glo, ghi, lo, hi)
		}
		if !slices.Equal(g.Cells(), w.Window(lo, hi).Cells()) {
			t.Fatalf("label %d: aggregated copies [%d,%d) differ from those of sketch.Sum of its contributions", l, lo, hi)
		}
	}
}

func TestAggregateByLabelEqualsSum(t *testing.T) {
	const machines = 13
	all := make([]int, machines)
	for i := range all {
		all[i] = i
	}
	cases := []struct {
		name string
		on   []int
	}{
		{"every machine contributes", all},
		{"most machines contribute nothing", []int{2, 7, 11}},
		{"only the destination contributes", []int{machines - 1}},
	}
	// Every copy, and a first, a middle and a last window of the six.
	ranges := [][2]int{{0, 6}, {0, 2}, {2, 5}, {5, 6}}
	for _, tc := range cases {
		for _, p := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", tc.name, p), func(t *testing.T) {
				space := sketch.NewGraphSpace(64, 6, hash.NewPRG(7))
				byMachine, want := randomContributions(space, rand.New(rand.NewSource(3)), machines, tc.on, 9, 14)
				cl := newCluster(machines, p)
				for _, r := range ranges {
					got, release := aggregate(cl, space, r[0], r[1], byMachine)
					checkEqual(t, got, want, r[0], r[1])
					release()
				}
			})
		}
	}
}

// A window costs its own words, not the sketch's: the frames on the wire
// hold hi-lo copies.
func TestAggregateByLabelShipsTheWindowOnly(t *testing.T) {
	const machines = 13
	space := sketch.NewGraphSpace(64, 6, hash.NewPRG(7))
	byMachine, _ := randomContributions(space, rand.New(rand.NewSource(3)), machines, []int{2, 7, 11}, 9, 14)
	sent := func(lo, hi int) int64 {
		cl := newCluster(machines, 1)
		_, release := aggregate(cl, space, lo, hi, byMachine)
		release()
		return cl.Stats().WordsSent
	}
	full, third := sent(0, 6), sent(2, 4)
	// Every frame is one label word plus the window.
	frames := full / int64(1+space.SketchWords())
	if want := frames * int64(1+space.WindowWords(2, 4)); third != want || full != frames*int64(1+space.SketchWords()) {
		t.Errorf("copies [2,4) sent %d words, all six %d: want %d for the same %d frames", third, full, want, frames)
	}
}

func TestAggregateByLabelNoContribution(t *testing.T) {
	for _, p := range []int{1, 8} {
		space := sketch.NewGraphSpace(64, 6, hash.NewPRG(7))
		got, release := aggregate(newCluster(5, p), space, 0, 6, make([][]contribution, 5))
		if got == nil || len(got) != 0 {
			t.Fatalf("parallelism %d: got %v, want an empty map", p, got)
		}
		release()
	}
}

// The views returned by one call alias its final batch buffer, which stays
// out of the pool until the caller releases it: later aggregations (which
// acquire and release pooled batches freely) must not write into it.
func TestAggregateByLabelViewsSurviveNextCall(t *testing.T) {
	const machines = 9
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	for _, p := range []int{1, 8} {
		space := sketch.NewGraphSpace(64, 6, hash.NewPRG(7))
		cl := newCluster(machines, p)
		rng := rand.New(rand.NewSource(5))
		firstIn, firstWant := randomContributions(space, rng, machines, all, 6, 8)
		first, releaseFirst := aggregate(cl, space, 1, 4, firstIn)
		for i := 0; i < 3; i++ {
			in, want := randomContributions(space, rng, machines, all, 6, 8)
			got, release := aggregate(cl, space, 1, 4, in)
			checkEqual(t, got, want, 1, 4)
			release()
		}
		checkEqual(t, first, firstWant, 1, 4)
		releaseFirst()
	}
}
