package eulertour

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/oracle"
)

func TestTourLen(t *testing.T) {
	for size, want := range map[int]int{1: 0, 2: 4, 3: 8, 5: 16} {
		if got := TourLen(size); got != want {
			t.Errorf("TourLen(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestRecordChildAndIntervals(t *testing.T) {
	// Tree 0-1 rooted at 0: darts (0,1) at (1,2), (1,0) at (3,4).
	r := Record{E: graph.NewEdge(0, 1), Tour: 1, UPos: [2]Pos{1, 4}, VPos: [2]Pos{2, 3}}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Child() != 1 || r.Parent() != 0 {
		t.Errorf("Child/Parent = %d/%d", r.Child(), r.Parent())
	}
	if r.ChildF() != 2 || r.ChildL() != 3 {
		t.Errorf("child interval [%d,%d]", r.ChildF(), r.ChildL())
	}
	if got := r.PositionsOf(0); got != [2]Pos{1, 4} {
		t.Errorf("PositionsOf(0) = %v", got)
	}
}

func TestRecordValidateRejectsBadShapes(t *testing.T) {
	bad := []Record{
		{E: graph.NewEdge(0, 1), UPos: [2]Pos{1, 3}, VPos: [2]Pos{2, 5}}, // not two pairs
		{E: graph.NewEdge(0, 1), UPos: [2]Pos{1, 2}, VPos: [2]Pos{3, 4}}, // one vertex per dart violated
		{E: graph.NewEdge(0, 1), UPos: [2]Pos{1, 2}, VPos: [2]Pos{2, 3}}, // overlap
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
}

func TestRelabelSetMap(t *testing.T) {
	a := NewRelabelSet([]Relabel{
		{OldTour: 1, Lo: 5, Hi: 8, NewTour: 8, Delta: -4},
		{OldTour: 1, Lo: 1, Hi: 4, NewTour: 9, Delta: 10},
	}).Applier()
	if tr, p := a.Map(1, 3); tr != 9 || p != 13 {
		t.Errorf("Map(1,3) = %d,%d", tr, p)
	}
	if tr, p := a.Map(1, 6); tr != 8 || p != 2 {
		t.Errorf("Map(1,6) = %d,%d", tr, p)
	}
	if tr, p := a.Map(2, 3); tr != 2 || p != 3 {
		t.Errorf("untouched tour moved: %d,%d", tr, p)
	}
	if tr, p := a.Map(1, 8); tr != 8 || p != 4 {
		t.Errorf("Map(1,8) = %d,%d: the last covered position moved wrong", tr, p)
	}
	if tr, p := a.Map(1, 9); tr != 1 || p != 9 {
		t.Errorf("Map(1,9) = %d,%d: a position past every descriptor moved", tr, p)
	}
	if tr, p := a.Map(3, 1); tr != 3 || p != 1 {
		t.Errorf("Map(3,1) = %d,%d: a tour no descriptor names moved", tr, p)
	}
	if tr, p := a.Map(1, 1); tr != 9 || p != 11 {
		t.Errorf("Map(1,1) = %d,%d after another tour's lookup", tr, p)
	}
}

// TestApplyToRecordDetectsSplitAcrossTours: a record whose positions a plan
// sends to two tours is an error, and so it stays through an applier that has
// just mapped a record of the same tour within one descriptor: the remembered
// descriptor must not map a position outside its range.
func TestApplyToRecordDetectsSplitAcrossTours(t *testing.T) {
	a := NewRelabelSet([]Relabel{
		{OldTour: 1, Lo: 1, Hi: 2, NewTour: 5, Delta: 0},
		{OldTour: 1, Lo: 3, Hi: 4, NewTour: 6, Delta: -2},
	}).Applier()
	r := Record{E: graph.NewEdge(0, 1), Tour: 1, UPos: [2]Pos{1, 4}, VPos: [2]Pos{2, 3}}
	if err := a.ApplyToRecord(&r); err == nil {
		t.Fatal("record straddling tours accepted")
	}

	warm := NewRelabelSet([]Relabel{
		{OldTour: 1, Lo: 1, Hi: 4, NewTour: 5, Delta: 0},
		{OldTour: 1, Lo: 5, Hi: 8, NewTour: 6, Delta: -4},
	}).Applier()
	inside := Record{E: graph.NewEdge(0, 1), Tour: 1, UPos: [2]Pos{1, 4}, VPos: [2]Pos{2, 3}}
	if err := warm.ApplyToRecord(&inside); err != nil {
		t.Fatal(err)
	}
	if want := (Record{E: graph.NewEdge(0, 1), Tour: 5, UPos: [2]Pos{1, 4}, VPos: [2]Pos{2, 3}}); inside != want {
		t.Fatalf("record inside one descriptor became %+v, want %+v", inside, want)
	}
	straddler := Record{E: graph.NewEdge(1, 2), Tour: 1, UPos: [2]Pos{3, 6}, VPos: [2]Pos{4, 5}}
	if err := warm.ApplyToRecord(&straddler); err == nil {
		t.Fatalf("record straddling tours accepted after a record of its tour: became %+v", straddler)
	}
}

func TestJoinTwoSingletons(t *testing.T) {
	h := newHost(4)
	if err := h.insertBatch([]graph.Edge{graph.NewEdge(0, 1)}); err != nil {
		t.Fatal(err)
	}
	h.checkTours(t)
	if len(h.recs) != 1 {
		t.Fatalf("records = %d", len(h.recs))
	}
	r := h.recs[graph.NewEdge(0, 1)]
	if r.Child() != 1 { // group root is comp 0
		t.Errorf("child = %d, want 1", r.Child())
	}
}

func TestJoinChainOfSingletons(t *testing.T) {
	// One batch: 0-1, 1-2, 2-3, 3-4 merging five singletons into a path.
	h := newHost(5)
	batch := []graph.Edge{
		graph.NewEdge(0, 1), graph.NewEdge(1, 2), graph.NewEdge(2, 3), graph.NewEdge(3, 4),
	}
	if err := h.insertBatch(batch); err != nil {
		t.Fatal(err)
	}
	h.checkTours(t)
}

func TestJoinStarOfSingletons(t *testing.T) {
	h := newHost(6)
	batch := []graph.Edge{
		graph.NewEdge(0, 1), graph.NewEdge(0, 2), graph.NewEdge(0, 3),
		graph.NewEdge(0, 4), graph.NewEdge(0, 5),
	}
	if err := h.insertBatch(batch); err != nil {
		t.Fatal(err)
	}
	h.checkTours(t)
}

func TestJoinTwoPathsAtInternalVertices(t *testing.T) {
	h := newHost(8)
	// Build two paths in separate batches, then join them by an edge
	// between internal vertices, forcing a rotation.
	if err := h.insertBatch([]graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(1, 2), graph.NewEdge(2, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := h.insertBatch([]graph.Edge{graph.NewEdge(4, 5), graph.NewEdge(5, 6), graph.NewEdge(6, 7)}); err != nil {
		t.Fatal(err)
	}
	h.checkTours(t)
	if err := h.insertBatch([]graph.Edge{graph.NewEdge(2, 6)}); err != nil {
		t.Fatal(err)
	}
	h.checkTours(t)
	if len(h.recs) != 7 {
		t.Fatalf("records = %d", len(h.recs))
	}
}

func TestJoinMultipleGroupsInOneBatch(t *testing.T) {
	h := newHost(8)
	// Two disjoint groups in one batch: {0,1,2} and {4,5}.
	batch := []graph.Edge{
		graph.NewEdge(0, 1), graph.NewEdge(1, 2), graph.NewEdge(4, 5),
	}
	if err := h.insertBatch(batch); err != nil {
		t.Fatal(err)
	}
	h.checkTours(t)
	labels, _ := h.components()
	if labels[0] != labels[2] || labels[4] != labels[5] || labels[0] == labels[4] {
		t.Errorf("labels = %v", labels)
	}
}

func TestSplitSingleEdge(t *testing.T) {
	h := newHost(4)
	if err := h.insertBatch([]graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(1, 2), graph.NewEdge(2, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := h.deleteBatch([]graph.Edge{graph.NewEdge(1, 2)}); err != nil {
		t.Fatal(err)
	}
	h.checkTours(t)
	labels, _ := h.components()
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[1] == labels[2] {
		t.Errorf("labels after split = %v", labels)
	}
}

func TestSplitLeafEdgeMakesSingleton(t *testing.T) {
	h := newHost(3)
	if err := h.insertBatch([]graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := h.deleteBatch([]graph.Edge{graph.NewEdge(1, 2)}); err != nil {
		t.Fatal(err)
	}
	h.checkTours(t)
	if len(h.recs) != 1 {
		t.Fatalf("records = %d", len(h.recs))
	}
}

func TestSplitNestedBatch(t *testing.T) {
	// Path 0-1-2-3-4-5; delete {1,2} and {3,4} in one batch: three parts.
	h := newHost(6)
	var edges []graph.Edge
	for i := 0; i < 5; i++ {
		edges = append(edges, graph.NewEdge(i, i+1))
	}
	if err := h.insertBatch(edges); err != nil {
		t.Fatal(err)
	}
	if err := h.deleteBatch([]graph.Edge{graph.NewEdge(1, 2), graph.NewEdge(3, 4)}); err != nil {
		t.Fatal(err)
	}
	h.checkTours(t)
	labels, _ := h.components()
	want := []int{0, 0, 2, 2, 4, 4}
	for v, w := range want {
		if labels[v] != w {
			t.Errorf("labels = %v, want %v", labels, want)
			break
		}
	}
}

func TestSplitWholeStar(t *testing.T) {
	h := newHost(5)
	star := []graph.Edge{
		graph.NewEdge(0, 1), graph.NewEdge(0, 2), graph.NewEdge(0, 3), graph.NewEdge(0, 4),
	}
	if err := h.insertBatch(star); err != nil {
		t.Fatal(err)
	}
	if err := h.deleteBatch(star); err != nil {
		t.Fatal(err)
	}
	h.checkTours(t)
	if len(h.recs) != 0 {
		t.Fatalf("records = %d after deleting everything", len(h.recs))
	}
}

// TestSplitStarNamesEveryRoot: a star whose centre loses every edge in one
// batch falls apart into single vertices, and every fragment names its vertex
// as Root — the empty residual fragment the old root (the centre), each leaf
// the fragment its edge carved out.
func TestSplitStarNamesEveryRoot(t *testing.T) {
	h := newHost(5)
	star := []graph.Edge{
		graph.NewEdge(0, 1), graph.NewEdge(0, 2), graph.NewEdge(0, 3), graph.NewEdge(0, 4),
	}
	if err := h.insertBatch(star); err != nil {
		t.Fatal(err)
	}
	if err := h.deleteBatch(star); err != nil {
		t.Fatal(err)
	}
	frags := h.split.Fragments
	var roots []int
	for _, fr := range frags {
		if fr.Len != 0 || fr.Tour != NoTour {
			t.Errorf("fragment %+v is not a single vertex", fr)
		}
		roots = append(roots, fr.Root)
	}
	if residual := frags[len(frags)-1]; residual.Root != 0 {
		t.Errorf("empty residual fragment has Root %d, want the centre 0", residual.Root)
	}
	sort.Ints(roots)
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(roots, want) {
		t.Errorf("fragment roots %v, want %v", roots, want)
	}
}

func TestPlanSplitValidation(t *testing.T) {
	if _, err := PlanSplit(map[TourID]int{}, []Record{
		{E: graph.NewEdge(0, 1), Tour: NoTour, UPos: [2]Pos{1, 4}, VPos: [2]Pos{2, 3}},
	}, func() TourID { return 1 }); err == nil {
		t.Error("record without tour accepted")
	}
	if _, err := PlanSplit(map[TourID]int{}, []Record{
		{E: graph.NewEdge(0, 1), Tour: 3, UPos: [2]Pos{1, 4}, VPos: [2]Pos{2, 3}},
	}, func() TourID { return 1 }); err == nil {
		t.Error("missing tour length accepted")
	}
}

func TestJoinPlannerValidation(t *testing.T) {
	compOf := func(v int) int { return v / 2 } // comps {0,1}=0, {2,3}=1
	// Edge within one component.
	if _, err := NewJoinPlanner(
		[]CompInfo{{Key: 0, Tour: 1, Size: 2}, {Key: 1, Tour: 2, Size: 2}},
		[]graph.Edge{graph.NewEdge(0, 1)}, compOf,
	); err == nil {
		t.Error("intra-component edge accepted")
	}
	// Unknown component.
	if _, err := NewJoinPlanner(
		[]CompInfo{{Key: 0, Tour: 1, Size: 2}},
		[]graph.Edge{graph.NewEdge(0, 2)}, compOf,
	); err == nil {
		t.Error("unknown component accepted")
	}
	// Parallel comp edges.
	if _, err := NewJoinPlanner(
		[]CompInfo{{Key: 0, Tour: 1, Size: 2}, {Key: 1, Tour: 2, Size: 2}},
		[]graph.Edge{graph.NewEdge(0, 2), graph.NewEdge(1, 3)}, compOf,
	); err == nil {
		t.Error("parallel component edges accepted")
	}
	// Size/tour mismatch.
	if _, err := NewJoinPlanner(
		[]CompInfo{{Key: 0, Tour: NoTour, Size: 2}, {Key: 1, Tour: 2, Size: 2}},
		[]graph.Edge{graph.NewEdge(0, 2)}, compOf,
	); err == nil {
		t.Error("size-2 comp without tour accepted")
	}
}

// TestSeparatingRunsAgainstOracle checks the property an exact-MSF batch's
// virtual tree rests on: with a set of terminals ordered by first
// occurrence, the terminals in a tree edge's child subtree are the run whose
// first occurrences lie in [ChildF, ChildL], and the edge separates them —
// the run holds some but not all — exactly when the oracle's path between
// some two terminals crosses it.
func TestSeparatingRunsAgainstOracle(t *testing.T) {
	const n = 24
	prg := hash.NewPRG(31)
	h := newHost(n)
	for v := 1; v < n; v++ {
		u := int(prg.NextN(uint64(v)))
		if err := h.insertBatch([]graph.Edge{graph.NewEdge(u, v)}); err != nil {
			t.Fatal(err)
		}
	}
	h.checkTours(t)
	forest := h.forestEdges()
	for trial := 0; trial < 60; trial++ {
		var terms []int
		for v := 0; v < n; v++ {
			if prg.NextN(4) == 0 {
				terms = append(terms, v)
			}
		}
		want := map[graph.Edge]bool{}
		for i, u := range terms {
			for _, v := range terms[i+1:] {
				for _, e := range oracle.ForestPath(n, forest, u, v) {
					want[e.Canonical()] = true
				}
			}
		}
		fs := make([]Pos, len(terms))
		for i, v := range terms {
			fs[i] = h.stats(v).F
		}
		slices.Sort(fs)
		for _, r := range h.recs {
			lo, _ := slices.BinarySearch(fs, r.ChildF())
			hi, _ := slices.BinarySearch(fs, r.ChildL()+1)
			inside := 0
			for _, v := range terms {
				if f := h.stats(v).F; r.ChildF() <= f && f <= r.ChildL() {
					inside++
				}
			}
			if inside != hi-lo {
				t.Fatalf("terminals %v edge %v: run [%d, %d) but %d terminals below", terms, r.E, lo, hi, inside)
			}
			if got := lo < hi && hi-lo < len(fs); got != want[r.E] {
				t.Fatalf("terminals %v edge %v: separating=%v oracle=%v", terms, r.E, got, want[r.E])
			}
		}
	}
}

// TestRandomizedJoinSplitChurn is the heavyweight property test: random
// batched joins and splits over many seeds, validating full Euler-tour
// invariants after every batch.
func TestRandomizedJoinSplitChurn(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(string(rune('a'+int(seed-1))), func(t *testing.T) {
			churn(t, newHost(40), seed, 30)
		})
	}
}

// TestRotationQueriesFromStats holds the join planner's filtered rotation
// queries to brute force: on random forests under churn, every join is
// planned again with the min-above-cut of every host in a rotated component
// found by scanning the records, and the two plans must be equal. Over the
// run both kinds of host must occur: one whose stats answer (its first
// occurrence above the cut, or its last below) and one whose stats straddle
// the cut, which the planner still asks.
func TestRotationQueriesFromStats(t *testing.T) {
	var answered, asked int
	for seed := uint64(1); seed <= 24; seed++ {
		h := newHost(48)
		h.onJoin = func(edges []graph.Edge, res *JoinResult, first TourID) {
			next := first
			pl, brute, err := h.planJoin(edges, true, func() TourID { next++; return next - 1 })
			if err != nil {
				t.Fatalf("seed %d: brute-force plan of %v: %v", seed, edges, err)
			}
			if !reflect.DeepEqual(res, brute) {
				t.Fatalf("seed %d: join %v planned\n%+v\nwith every rotation query scanned\n%+v", seed, edges, res, brute)
			}
			hosts := map[int]bool{}
			for child, par := range pl.parent {
				if _, rotated := pl.cuts[par]; rotated && pl.hostVertex(child) != pl.attachTerminal(par) {
					hosts[pl.hostVertex(child)] = true
				}
			}
			qs := len(pl.CutQueries())
			answered += len(hosts) - qs
			asked += qs
		}
		churn(t, h, seed, 40)
	}
	t.Logf("rotated hosts: %d answered by their stats, %d asked", answered, asked)
	if answered == 0 || asked == 0 {
		t.Errorf("rotated hosts: %d answered by their stats, %d asked; want both", answered, asked)
	}
}

// churn runs steps random batched joins and splits on h, checking every
// tour after each batch.
func churn(t *testing.T, h *host, seed uint64, steps int) {
	t.Helper()
	n := h.n
	prg := hash.NewPRG(seed)
	for step := 0; step < steps; step++ {
		if prg.Next()&1 == 0 || len(h.recs) == 0 {
			// Insert a batch of forest edges across distinct comps.
			labels, uf := h.components()
			batchUF := oracle.NewUnionFind(n)
			var batch []graph.Edge
			attempts := 0
			wantEdges := 1 + int(prg.NextN(6))
			for len(batch) < wantEdges && attempts < 200 {
				attempts++
				u := int(prg.NextN(uint64(n)))
				v := int(prg.NextN(uint64(n)))
				if u == v || labels[u] == labels[v] {
					continue
				}
				if uf.Find(u) == uf.Find(v) {
					continue
				}
				// The batch must stay a forest over comps: reject
				// edges whose comps were already linked this batch.
				if batchUF.Find(labels[u]) == batchUF.Find(labels[v]) {
					continue
				}
				batchUF.Union(labels[u], labels[v])
				uf.Union(u, v)
				batch = append(batch, graph.NewEdge(u, v))
			}
			if len(batch) == 0 {
				continue
			}
			if err := h.insertBatch(batch); err != nil {
				t.Fatalf("seed %d step %d insert %v: %v", seed, step, batch, err)
			}
		} else {
			// Delete a random batch of existing tree edges.
			edges := h.forestEdges()
			wantDel := 1 + int(prg.NextN(4))
			if wantDel > len(edges) {
				wantDel = len(edges)
			}
			picked := map[int]bool{}
			var batch []graph.Edge
			for len(batch) < wantDel {
				i := int(prg.NextN(uint64(len(edges))))
				if !picked[i] {
					picked[i] = true
					batch = append(batch, edges[i])
				}
			}
			if err := h.deleteBatch(batch); err != nil {
				t.Fatalf("seed %d step %d delete %v: %v", seed, step, batch, err)
			}
		}
		h.checkTours(t)
	}
}

// TestStatsConsistency checks that derived f/l stats describe a permutation
// consistent with occurrence counts: each vertex occurs 2*deg times.
func TestStatsConsistency(t *testing.T) {
	h := newHost(10)
	var edges []graph.Edge
	for v := 1; v < 10; v++ {
		edges = append(edges, graph.NewEdge(0, v)) // star
	}
	if err := h.insertBatch(edges); err != nil {
		t.Fatal(err)
	}
	deg := make(map[int]int)
	occ := make(map[int][]Pos)
	for _, r := range h.recs {
		deg[r.E.U]++
		deg[r.E.V]++
		for _, p := range r.UPos {
			occ[r.E.U] = append(occ[r.E.U], p)
		}
		for _, p := range r.VPos {
			occ[r.E.V] = append(occ[r.E.V], p)
		}
	}
	for v, positions := range occ {
		if len(positions) != 2*deg[v] {
			t.Errorf("vertex %d occurs %d times, want %d", v, len(positions), 2*deg[v])
		}
		sort.Ints(positions)
		st := h.stats(v)
		if st.F != positions[0] || st.L != positions[len(positions)-1] {
			t.Errorf("vertex %d stats [%d,%d], occurrences %v", v, st.F, st.L, positions)
		}
	}
}

func TestPlanSplitRejectsCrossingIntervals(t *testing.T) {
	// Two fabricated records whose outer intervals cross (impossible in a
	// real tour) must be rejected by the laminarity check rather than
	// producing a corrupt plan.
	a := Record{E: graph.NewEdge(0, 1), Tour: 5, UPos: [2]Pos{1, 8}, VPos: [2]Pos{2, 7}}
	b := Record{E: graph.NewEdge(2, 3), Tour: 5, UPos: [2]Pos{5, 12}, VPos: [2]Pos{6, 11}}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	_, err := PlanSplit(map[TourID]int{5: 12}, []Record{a, b}, func() TourID { return 99 })
	if err == nil {
		t.Fatal("crossing intervals accepted")
	}
}

func TestPlanSplitRejectsOutOfRangePositions(t *testing.T) {
	a := Record{E: graph.NewEdge(0, 1), Tour: 5, UPos: [2]Pos{1, 4}, VPos: [2]Pos{2, 3}}
	if _, err := PlanSplit(map[TourID]int{5: 2}, []Record{a}, func() TourID { return 9 }); err == nil {
		t.Fatal("positions beyond tour length accepted")
	}
}
