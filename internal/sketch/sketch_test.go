package sketch

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hash"
)

func newTestSpace(idSpace uint64, t int, seed uint64) *Space {
	return NewSpace(idSpace, t, hash.NewPRG(seed))
}

// sum returns a fresh sketch of the cell-wise sum of its non-empty
// arguments, the way the algorithms sum: Clone the first, Add the rest.
func sum(sketches ...Sketch) Sketch {
	out := sketches[0].Clone()
	for _, s := range sketches[1:] {
		out.Add(s)
	}
	return out
}

// vertexSketches returns the vertex sketches of a graph on n vertices with
// the given edges, each a fresh sketch of space that took its vertex's
// incidence from the list of its edge ids.
func vertexSketches(space *Space, n int, edges []graph.Edge) []Sketch {
	lists := make([][]uint64, n)
	for _, e := range edges {
		lists[e.U] = append(lists[e.U], e.ID(n))
		lists[e.V] = append(lists[e.V], e.ID(n))
	}
	vs := make([]Sketch, n)
	for v := range vs {
		vs[v] = space.NewSketch()
		vs[v].AddIncidence(n, v, lists[v])
	}
	return vs
}

func TestEmptySketchQueriesEmpty(t *testing.T) {
	sp := newTestSpace(1024, 8, 1)
	sk := sp.NewSketch()
	for c := 0; c < sp.Copies(); c++ {
		if _, res := sk.Query(c); res != Empty {
			t.Errorf("copy %d: empty sketch returned %v", c, res)
		}
	}
}

func TestSingleElementRecovery(t *testing.T) {
	sp := newTestSpace(1024, 8, 2)
	for _, idx := range []uint64{0, 1, 17, 1023} {
		for _, delta := range []int{1, -1} {
			sk := sp.NewSketch()
			sk.Update(idx, delta)
			got, res := sk.QueryAny(0)
			if res != Found {
				t.Errorf("idx=%d delta=%d: result %v", idx, delta, res)
				continue
			}
			if got != idx {
				t.Errorf("idx=%d delta=%d: recovered %d", idx, delta, got)
			}
		}
	}
}

func TestInsertDeleteCancels(t *testing.T) {
	sp := newTestSpace(4096, 8, 3)
	sk := sp.NewSketch()
	prg := hash.NewPRG(77)
	var idxs []uint64
	for i := 0; i < 200; i++ {
		idx := prg.NextN(4096)
		idxs = append(idxs, idx)
		sk.Update(idx, 1)
		sk.Update(idx, -1) // immediately cancel to keep the vector in range
	}
	_ = idxs
	if _, res := sk.QueryAny(0); res != Empty {
		t.Errorf("fully cancelled sketch returned %v", res)
	}
}

func TestRecoveryFromDenseVector(t *testing.T) {
	// Insert many coordinates; the sampler must recover some member of the
	// support.
	sp := newTestSpace(1<<14, 16, 4)
	sk := sp.NewSketch()
	support := make(map[uint64]bool)
	prg := hash.NewPRG(5)
	for len(support) < 500 {
		idx := prg.NextN(1 << 14)
		if !support[idx] {
			support[idx] = true
			sk.Update(idx, 1)
		}
	}
	found := 0
	for c := 0; c < sp.Copies(); c++ {
		idx, res := sk.Query(c)
		if res == Found {
			found++
			if !support[idx] {
				t.Fatalf("copy %d recovered %d not in support", c, idx)
			}
		}
		if res == Empty {
			t.Fatalf("copy %d reported empty for dense vector", c)
		}
	}
	if found == 0 {
		t.Error("no copy recovered a coordinate from a 500-element support")
	}
}

func TestQuerySuccessRate(t *testing.T) {
	// Across many independent spaces, QueryAny must almost always succeed
	// on vectors of widely varying density.
	for _, density := range []int{1, 2, 10, 100, 1000} {
		fails := 0
		const trials = 60
		for trial := 0; trial < trials; trial++ {
			sp := newTestSpace(1<<13, 12, uint64(1000+trial))
			sk := sp.NewSketch()
			prg := hash.NewPRG(uint64(trial))
			seen := make(map[uint64]bool)
			for len(seen) < density {
				idx := prg.NextN(1 << 13)
				if !seen[idx] {
					seen[idx] = true
					sk.Update(idx, 1)
				}
			}
			if _, res := sk.QueryAny(0); res != Found {
				fails++
			}
		}
		if fails > trials/10 {
			t.Errorf("density %d: %d/%d QueryAny failures", density, fails, trials)
		}
	}
}

func TestLinearity(t *testing.T) {
	sp := newTestSpace(1<<12, 8, 6)
	a, b := sp.NewSketch(), sp.NewSketch()
	// a holds {5, 9}; b holds {9 with opposite sign, 100}. Sum = {5, 100}.
	a.Update(5, 1)
	a.Update(9, 1)
	b.Update(9, -1)
	b.Update(100, 1)
	a.Add(b)
	got := map[uint64]bool{}
	for c := 0; c < sp.Copies(); c++ {
		if idx, res := a.Query(c); res == Found {
			got[idx] = true
		}
	}
	for idx := range got {
		if idx != 5 && idx != 100 {
			t.Errorf("recovered %d, not in summed support {5,100}", idx)
		}
	}
	if len(got) == 0 {
		t.Error("no recovery from summed sketch")
	}
}

func TestSumDoesNotMutateArguments(t *testing.T) {
	sp := newTestSpace(256, 4, 7)
	a, b := sp.NewSketch(), sp.NewSketch()
	a.Update(3, 1)
	b.Update(4, 1)
	s := sum(a, b)
	// a must still summarize {3} alone.
	idx, res := a.QueryAny(0)
	if res != Found || idx != 3 {
		t.Errorf("a changed after the sum: %d %v", idx, res)
	}
	gotSum := map[uint64]bool{}
	for c := 0; c < 4; c++ {
		if idx, res := s.Query(c); res == Found {
			gotSum[idx] = true
		}
	}
	for idx := range gotSum {
		if idx != 3 && idx != 4 {
			t.Errorf("sum recovered %d", idx)
		}
	}
}

func TestAddDifferentSpacesPanics(t *testing.T) {
	a := newTestSpace(256, 4, 8).NewSketch()
	b := newTestSpace(256, 4, 9).NewSketch()
	defer func() {
		if recover() == nil {
			t.Fatal("Add across spaces did not panic")
		}
	}()
	a.Add(b)
}

func TestUpdateValidation(t *testing.T) {
	sp := newTestSpace(16, 2, 10)
	sk := sp.NewSketch()
	for _, bad := range []func(){
		func() { sk.Update(0, 2) },
		func() { sk.Update(0, 0) },
		func() { sk.Update(16, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Update did not panic")
				}
			}()
			bad()
		}()
	}
}

// TestZeroCellNeverRecovers: a zero cell holds no coordinate, so Query must
// not read one as a sample, even under a fingerprint family that maps 0 to 0
// (a zero cell passes cellRecover as index 0 then, an id EdgeFromID rejects).
// splitmix64's mixer maps 0 to 0, so a PRG seeded at −5γ yields 0 as its
// fifth word: the constant term of copy 0's fingerprint family, drawn after
// the four coefficients of its level family.
func TestZeroCellNeverRecovers(t *testing.T) {
	const n = 64
	golden, seed := uint64(0x9e3779b97f4a7c15), uint64(0)
	for range 5 {
		seed -= golden
	}
	space := NewGraphSpace(n, 1, hash.NewPRG(seed))
	if got, ok := cellRecover(make([]uint64, cellWords), space.fpH, 0, space.idSpace); !ok || got != 0 {
		t.Fatalf("fingerprint h(0) = %d: a zero cell does not pass as index 0, the test is vacuous", space.fpH.At(0, 0))
	}
	// Two edges of sampling level 0: level 0 is two-sparse and every level
	// above it is a zero cell.
	sk := space.NewSketch()
	var lvl [1]uint8
	for u, added := 1, 0; added < 2; u++ {
		id := graph.NewEdge(0, u).ID(n)
		if space.levelH.RowLevels(0, []hash.Point{hash.PointAt(id)}, space.levels, lvl[:]); lvl[0] == 0 {
			sk.Update(id, +1)
			added++
		}
	}
	if idx, res := sk.Query(0); res != Fail {
		t.Fatalf("Query of a two-sparse copy = (%d, %v), want fail", idx, res)
	}
}

func TestQueryCopyValidation(t *testing.T) {
	sp := newTestSpace(16, 2, 11)
	sk := sp.NewSketch()
	defer func() {
		if recover() == nil {
			t.Fatal("Query with bad copy did not panic")
		}
	}()
	sk.Query(2)
}

func TestCloneIndependence(t *testing.T) {
	sp := newTestSpace(128, 4, 12)
	a := sp.NewSketch()
	a.Update(7, 1)
	c := a.Clone()
	c.Update(7, -1)
	if _, res := a.QueryAny(0); res != Found {
		t.Error("mutating clone affected original")
	}
	if _, res := c.QueryAny(0); res != Empty {
		t.Error("clone did not cancel")
	}
}

func TestSketchWords(t *testing.T) {
	sp := newTestSpace(1024, 4, 13)
	sk := sp.NewSketch()
	if sk.Words() != sp.SketchWords() {
		t.Errorf("Words() = %d, SketchWords() = %d", sk.Words(), sp.SketchWords())
	}
	if sk.Words() != 4*(sp.Levels()+1)*2 {
		t.Errorf("Words() = %d", sk.Words())
	}
}

// cellAdd adds delta·(i, h) to one cell, i < Prime, with the field
// arithmetic Update applies to every cell it writes.
func cellAdd(w []uint64, i, h uint64, delta int) {
	if delta < 0 {
		i, h = hash.Prime-i, hash.Prime-h
	}
	w[offIsum] = addModP(w[offIsum], i)
	w[offFp] = addModP(w[offFp], h)
}

// TestNoRecoveryFromSparseNonUnitVectors is the soundness check of the
// two-word cell, which has no counter to reject a support whose coordinates
// do not sum to ±1. It feeds single cells two- and three-sparse ±1 vectors
// whose coordinate sum is 0, ±2 or ±3 and whose index sum, or its negation,
// lands in [0, idSpace) — the vectors that reach the fingerprint check under
// one of the two signs — across many fingerprint seeds, and none may
// recover. A one-sparse vector of either sign must recover, so the check is
// not vacuous.
func TestNoRecoveryFromSparseNonUnitVectors(t *testing.T) {
	idSpace := graph.IDSpace(4096)
	shapes := []struct {
		name   string
		values []int
	}{
		{"+a+b", []int{1, 1}},
		{"-a-b", []int{-1, -1}},
		{"+a-b", []int{1, -1}},
		{"+a+b+c", []int{1, 1, 1}},
		{"-a-b-c", []int{-1, -1, -1}},
	}
	for seed := uint64(0); seed < 4000; seed++ {
		var fp hash.Cubics
		fp.Draw(hash.NewPRG(seed))
		draw := hash.NewPRG(^seed)
		for _, sh := range shapes {
			idx := make([]uint64, 0, len(sh.values))
			for len(idx) < len(sh.values) {
				i := draw.NextN(idSpace / 3)
				if !slices.Contains(idx, i) {
					idx = append(idx, i)
				}
			}
			cell := make([]uint64, cellWords)
			for k, i := range idx {
				cellAdd(cell, i, fp.At(0, i), sh.values[k])
			}
			if isum := cell[offIsum]; isum >= idSpace && subModP(0, isum) >= idSpace {
				t.Fatalf("seed %d %s %v: ±isum %d outside [0, %d)", seed, sh.name, idx, isum, idSpace)
			}
			if got, ok := cellRecover(cell, fp, 0, idSpace); ok {
				t.Fatalf("seed %d %s %v: recovered %d", seed, sh.name, idx, got)
			}
		}
		for _, delta := range []int{1, -1} {
			i := draw.NextN(idSpace)
			cell := make([]uint64, cellWords)
			cellAdd(cell, i, fp.At(0, i), delta)
			if got, ok := cellRecover(cell, fp, 0, idSpace); !ok || got != i {
				t.Fatalf("seed %d: one-sparse %+d at %d recovered (%d, %v)", seed, delta, i, got, ok)
			}
		}
	}
}

func TestNewSpaceValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { NewSpace(0, 4, hash.NewPRG(1)) },
		func() { NewSpace(16, 0, hash.NewPRG(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid NewSpace did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestEdgeSign(t *testing.T) {
	e := graph.NewEdge(2, 7)
	if EdgeSign(7, e) != 1 {
		t.Error("larger endpoint should have sign +1")
	}
	if EdgeSign(2, e) != -1 {
		t.Error("smaller endpoint should have sign -1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EdgeSign on non-endpoint did not panic")
		}
	}()
	EdgeSign(3, e)
}

func TestVertexSketchCutRecovery(t *testing.T) {
	// Build a path 0-1-2-3 and check that the summed sketch of A = {0,1}
	// recovers exactly the single cut edge {1,2}.
	const n = 16
	sp := NewGraphSpace(n, 12, hash.NewPRG(14))
	vs := vertexSketches(sp, n, []graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(1, 2), graph.NewEdge(2, 3)})
	cut := sum(vs[0], vs[1])
	idx, res := cut.QueryAny(0)
	if res != Found {
		t.Fatalf("cut query result %v", res)
	}
	// The sign of the recovered coordinate is immaterial: coordinate indices
	// identify edges directly.
	if e := graph.EdgeFromID(idx, n); e != graph.NewEdge(1, 2) {
		t.Errorf("cut edge = %v, want {1,2}", e)
	}
}

func TestVertexSketchInternalEdgesCancel(t *testing.T) {
	// A = {0,1,2,3} holding a path 0-1-2-3 has an empty cut.
	const n = 8
	sp := NewGraphSpace(n, 8, hash.NewPRG(15))
	vs := vertexSketches(sp, n, []graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(1, 2), graph.NewEdge(2, 3)})
	cut := sum(vs[0], vs[1], vs[2], vs[3])
	if _, res := cut.QueryAny(0); res != Empty {
		t.Errorf("internal edges did not cancel: %v", res)
	}
}

func TestVertexSketchDeletion(t *testing.T) {
	const n = 8
	sp := NewGraphSpace(n, 8, hash.NewPRG(16))
	e := graph.NewEdge(0, 5)
	a := vertexSketches(sp, n, []graph.Edge{e})[0]
	a.Update(e.ID(n), -EdgeSign(0, e))
	if _, res := a.QueryAny(0); res != Empty {
		t.Error("insert+delete did not cancel in vertex sketch")
	}
}

func TestQueryResultString(t *testing.T) {
	if Empty.String() != "empty" || Found.String() != "found" || Fail.String() != "fail" {
		t.Error("QueryResult.String wrong")
	}
}

// TestSumSpaceMismatch pins the space check of a sum: an operand from
// another space panics wherever it sits, the first one included.
func TestSumSpaceMismatch(t *testing.T) {
	spA := newTestSpace(256, 4, 21)
	spB := newTestSpace(256, 4, 22)
	mk := func(spaces ...*Space) []Sketch {
		out := make([]Sketch, len(spaces))
		for i, sp := range spaces {
			out[i] = sp.NewSketch()
		}
		return out
	}
	cases := []struct {
		name      string
		args      []Sketch
		wantPanic bool
	}{
		{"all same", mk(spA, spA, spA), false},
		{"second mismatched", mk(spA, spB, spA), true},
		{"third mismatched", mk(spA, spA, spB), true},
		{"fifth mismatched", mk(spA, spA, spA, spA, spB), true},
		{"first two swapped spaces", mk(spB, spA), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if !tc.wantPanic {
					if r != nil {
						t.Fatalf("unexpected panic: %v", r)
					}
					return
				}
				if r == nil {
					t.Fatalf("sum over mismatched spaces did not panic")
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "different spaces") {
					t.Fatalf("panic %v is not the space check", r)
				}
			}()
			sum(tc.args...)
		})
	}
}

func TestRecoveredIndexAlwaysInSupport(t *testing.T) {
	// Property: whatever Query returns as Found must be a member of the
	// true support, across random vectors.
	prg := hash.NewPRG(99)
	for trial := 0; trial < 40; trial++ {
		sp := newTestSpace(2048, 8, prg.Next())
		sk := sp.NewSketch()
		support := make(map[uint64]int)
		for i := 0; i < 64; i++ {
			idx := prg.NextN(2048)
			delta := 1
			if prg.Next()&1 == 0 && support[idx] == 1 {
				delta = -1
			} else if support[idx] != 0 {
				continue
			}
			support[idx] += delta
			if support[idx] == 0 {
				delete(support, idx)
			}
			sk.Update(idx, delta)
		}
		for c := 0; c < sp.Copies(); c++ {
			idx, res := sk.Query(c)
			switch res {
			case Found:
				if support[idx] == 0 {
					t.Fatalf("trial %d copy %d: recovered %d outside support", trial, c, idx)
				}
			case Empty:
				if len(support) != 0 {
					t.Fatalf("trial %d copy %d: empty but support has %d", trial, c, len(support))
				}
			}
		}
	}
}

func TestQuickLinearity(t *testing.T) {
	// Property: for random disjoint update sequences A and B, the cell-wise
	// sum of their sketches always behaves like the sketch of the combined
	// sequence: a Found result is in the combined support and Empty occurs
	// only when the combined vector is zero.
	f := func(seed uint64) bool {
		prg := hash.NewPRG(seed)
		sp := NewSpace(1<<10, 6, hash.NewPRG(seed^0xabcd))
		a, b, both := sp.NewSketch(), sp.NewSketch(), sp.NewSketch()
		support := map[uint64]int{}
		for i := 0; i < 40; i++ {
			idx := prg.NextN(1 << 10)
			delta := 1
			if support[idx] == 1 && prg.Next()&1 == 0 {
				delta = -1
			} else if support[idx] != 0 {
				continue
			}
			support[idx] += delta
			if support[idx] == 0 {
				delete(support, idx)
			}
			target := a
			if prg.Next()&1 == 0 {
				target = b
			}
			target.Update(idx, delta)
			both.Update(idx, delta)
		}
		ab := sum(a, b)
		for c := 0; c < sp.Copies(); c++ {
			i1, r1 := ab.Query(c)
			i2, r2 := both.Query(c)
			// Same shared randomness and same underlying vector: identical
			// cells, hence identical outcomes.
			if r1 != r2 || (r1 == Found && i1 != i2) {
				return false
			}
			if r1 == Found && support[i1] == 0 {
				return false
			}
			if r1 == Empty && len(support) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// A window answers for its copies exactly as the sketch it was cut from, for
// every copy range, and refuses every other copy.
func TestWindowQueriesLikeTheFullSketch(t *testing.T) {
	const copies = 7
	sp := newTestSpace(1<<12, copies, 21)
	prg := hash.NewPRG(22)
	for _, support := range []int{0, 1, 2, 9, 60} {
		sk := sp.NewSketch()
		for i := 0; i < support; i++ {
			sk.Update(prg.NextN(1<<12), 1)
		}
		for lo := 0; lo < copies; lo++ {
			for hi := lo + 1; hi <= copies; hi++ {
				w := sk.Window(lo, hi)
				if glo, ghi := w.CopyRange(); glo != lo || ghi != hi || w.Words() != sp.WindowWords(lo, hi) {
					t.Fatalf("Window(%d,%d) holds copies [%d,%d) in %d words", lo, hi, glo, ghi, w.Words())
				}
				for c := lo; c < hi; c++ {
					wantIdx, wantRes := sk.Query(c)
					if idx, res := w.Query(c); idx != wantIdx || res != wantRes {
						t.Errorf("support %d, Window(%d,%d).Query(%d) = %d, %v; the full sketch says %d, %v", support, lo, hi, c, idx, res, wantIdx, wantRes)
					}
				}
				mustPanic(t, "Query below the window", func() { w.Query(lo - 1) })
				mustPanic(t, "Query past the window", func() { w.Query(hi) })
			}
		}
	}
}

func TestWindowValidation(t *testing.T) {
	sp := newTestSpace(256, 6, 23)
	sk := sp.NewSketch()
	mustPanic(t, "an empty window", func() { sk.Window(2, 2) })
	mustPanic(t, "a window past the last copy", func() { sk.Window(3, 7) })
	mustPanic(t, "a window outside the view it is cut from", func() { sk.Window(2, 4).Window(1, 3) })
	mustPanic(t, "ViewWindow of the wrong length", func() { sp.ViewWindow(make([]uint64, sp.SketchWords()), 0, 3) })
	if w := sk.Window(1, 5).Window(2, 4); w.Words() != sp.WindowWords(2, 4) {
		t.Errorf("a window of a window holds %d words", w.Words())
	}
}

// Views of different copy ranges hold different samplers: summing across
// them is a bug, even at equal length.
func TestAddAcrossRangesPanics(t *testing.T) {
	sp := newTestSpace(256, 6, 24)
	a, b := sp.NewSketch(), sp.NewSketch()
	mustPanic(t, "Add of a window into a full sketch", func() { a.Add(b.Window(0, 3)) })
	mustPanic(t, "Add of ranges of equal length", func() { a.Window(0, 3).Add(b.Window(3, 6)) })
	mustPanic(t, "Add of overlapping ranges", func() { a.Window(0, 3).Add(b.Window(1, 3)) })
	a.Window(2, 5).Add(b.Window(2, 5)) // equal ranges are fine
}

// A window aliases the copies it names: adding into it is adding into those
// copies of the sketch, and into no other.
func TestWindowAddIsAddOnThoseCopies(t *testing.T) {
	sp := newTestSpace(1<<10, 6, 25)
	a, b := sp.NewSketch(), sp.NewSketch()
	for i := uint64(0); i < 20; i++ {
		a.Update(3*i, 1)
		b.Update(5*i+1, 1)
	}
	want := sum(a, b)
	before := a.Clone()
	a.Window(2, 4).Add(b.Window(2, 4))
	for c := 0; c < 6; c++ {
		ref := before
		if c >= 2 && c < 4 {
			ref = want
		}
		got, w := a.Window(c, c+1).Cells(), ref.Window(c, c+1).Cells()
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("copy %d, word %d: %d, want %d", c, i, got[i], w[i])
			}
		}
	}
}

// A view wrapped around zero words — the cells of a freshly laid out frame —
// is the zero window of exactly the copies asked for, and a sum added into
// it is written into those words and nowhere else.
func TestViewWindowSumsInPlace(t *testing.T) {
	sp := newTestSpace(1<<10, 6, 26)
	sk := sp.NewSketch()
	for i := uint64(0); i < 30; i++ {
		sk.Update(7*i, 1)
	}
	equal := func(got, want Sketch) {
		t.Helper()
		glo, ghi := got.CopyRange()
		wlo, whi := want.CopyRange()
		if glo != wlo || ghi != whi {
			t.Fatalf("view holds copies [%d,%d), want [%d,%d)", glo, ghi, wlo, whi)
		}
		if !slices.Equal(got.Cells(), want.Cells()) {
			t.Fatal("words differ")
		}
	}
	w := sk.Window(1, 4)
	frame := make([]uint64, 1+sp.WindowWords(1, 4)) // a key word, then the cells
	c := sp.ViewWindow(frame[1:], 1, 4)
	equal(c, sp.NewSketch().Window(1, 4))
	c.Add(w)
	equal(c, w)
	if !slices.Equal(frame[1:], w.Cells()) || frame[0] != 0 {
		t.Fatal("the sum is not in the frame's cells, or it wrote past them")
	}
	orig := sk.Clone()
	c.Add(w) // the frame is the caller's to change, and changes nothing else
	equal(sk, orig)
	whole := sp.ViewWindow(make([]uint64, sp.SketchWords()), 0, sp.Copies())
	equal(whole, sp.NewSketch())
	whole.Add(sk)
	equal(whole, sk)
}
