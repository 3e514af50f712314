package core

import (
	"fmt"
	"testing"

	"repro/internal/eulertour"
	"repro/internal/mpc"
)

// TestSizesAnswerForTheShards holds the two facts a deletion batch reads
// instead of asking, over the golden streams at parallelism 1 and 8:
//
//   - after every batch, every tour holds 4(s − 1) positions, where s is the
//     size of its component, so a Cut reads a split tour's length off the
//     size of its component (Forest.cut);
//   - every replacement Link that takes its stats from the search's lookups
//     and its sizes from the split plan (linkFacts) takes what a fresh
//     statsAndSizes answers at that moment.
func TestSizesAnswerForTheShards(t *testing.T) {
	for _, stream := range []string{"testdata/churn32.stream", "../harness/testdata/window64.stream", "../harness/testdata/powerlaw64.stream"} {
		batches, n := readStream(t, stream)
		for _, p := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", stream, p), func(t *testing.T) {
				dc, err := NewDynamicConnectivity(Config{N: n, Phi: 0.6, Seed: 1, Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				at, taken := "", 0
				dc.f.factsTaken = func(terminals, comps []int, known *linkFacts) {
					taken++
					stats, sizes := dc.f.statsAndSizes(phaseLinkStats, terminals, comps)
					for _, v := range terminals {
						if known.stats[v] != stats[v] {
							t.Errorf("%s: the Link took stats %+v for %d, the shards answer %+v", at, known.stats[v], v, stats[v])
						}
					}
					for _, c := range comps {
						if known.sizes[c] != sizes[c] {
							t.Errorf("%s: the Link took size %d for component %d, the shards answer %d", at, known.sizes[c], c, sizes[c])
						}
					}
				}
				for i, b := range batches {
					for j := 0; j < len(b); j += dc.MaxBatch() {
						at = fmt.Sprintf("batch %d+%d", i, j)
						if err := dc.ApplyBatch(b[j:min(j+dc.MaxBatch(), len(b))]); err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						checkTourLengths(t, dc.f, at)
					}
				}
				if dc.SearchStats().Levels > 0 && taken == 0 {
					t.Error("no replacement Link took its facts")
				}
				t.Logf("%d replacement Links took their facts", taken)
			})
		}
	}
}

// checkTourLengths fails unless every tour holds 4(s − 1) positions, s the
// size of the component of its records' endpoints, and every component of
// two or more vertices has exactly one tour.
func checkTourLengths(t *testing.T, f *Forest, at string) {
	t.Helper()
	comps := f.SnapshotComponents()
	size := map[int]int{}
	for _, c := range comps {
		size[c]++
	}
	recs := make([]map[eulertour.TourID][2]int, f.cl.Machines()) // tour -> [records, component]
	f.cl.LocalAll(func(mm *mpc.Machine) {
		m := map[eulertour.TourID][2]int{}
		for _, te := range eShard(mm).recs {
			c := m[te.rec.Tour]
			m[te.rec.Tour] = [2]int{c[0] + 1, comps[te.rec.E.U]}
		}
		recs[mm.ID] = m
	})
	tours := map[eulertour.TourID][2]int{}
	for _, m := range recs {
		for tour, c := range m {
			if prev, ok := tours[tour]; ok && prev[1] != c[1] {
				t.Fatalf("%s: tour %d spans components %d and %d", at, tour, prev[1], c[1])
			}
			tours[tour] = [2]int{tours[tour][0] + c[0], c[1]}
		}
	}
	toursOf := map[int]int{}
	for tour, c := range tours {
		toursOf[c[1]]++
		if got, want := 4*c[0], 4*(size[c[1]]-1); got != want {
			t.Fatalf("%s: tour %d holds %d positions, its component %d of %d vertices wants %d", at, tour, got, c[1], size[c[1]], want)
		}
	}
	for c, s := range size {
		if s > 1 && toursOf[c] != 1 {
			t.Fatalf("%s: component %d of %d vertices has %d tours", at, c, s, toursOf[c])
		}
	}
}
