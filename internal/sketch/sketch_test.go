package sketch

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hash"
)

func newTestSpace(idSpace uint64, t int, seed uint64) *Space {
	return NewSpace(idSpace, t, hash.NewPRG(seed))
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
	s := Sum(a, b)
	// a must still summarize {3} alone.
	idx, res := a.QueryAny(0)
	if res != Found || idx != 3 {
		t.Errorf("a changed after Sum: %d %v", idx, res)
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
	if sk.Words() != 4*(sp.Levels()+1)*3 {
		t.Errorf("Words() = %d", sk.Words())
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
	vs := make([]VertexSketch, n)
	for v := range vs {
		vs[v] = NewVertexSketch(sp, n)
	}
	edges := []graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(1, 2), graph.NewEdge(2, 3)}
	for _, e := range edges {
		vs[e.U].ApplyEdge(e.U, e, graph.Insert)
		vs[e.V].ApplyEdge(e.V, e, graph.Insert)
	}
	cut := vs[0].CloneVertex()
	cut.AddVertex(vs[1])
	e, res := cut.QueryEdge(0)
	if res == Fail {
		// try the other copies
		for c := 1; c < sp.Copies(); c++ {
			e, res = cut.QueryEdge(c)
			if res != Fail {
				break
			}
		}
	}
	if res != Found {
		t.Fatalf("cut query result %v", res)
	}
	if e != graph.NewEdge(1, 2) {
		t.Errorf("cut edge = %v, want {1,2}", e)
	}
}

func TestVertexSketchInternalEdgesCancel(t *testing.T) {
	// A = {0,1,2,3} holding a path 0-1-2-3 has an empty cut.
	const n = 8
	sp := NewGraphSpace(n, 8, hash.NewPRG(15))
	vs := make([]VertexSketch, n)
	for v := range vs {
		vs[v] = NewVertexSketch(sp, n)
	}
	for _, e := range []graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(1, 2), graph.NewEdge(2, 3)} {
		vs[e.U].ApplyEdge(e.U, e, graph.Insert)
		vs[e.V].ApplyEdge(e.V, e, graph.Insert)
	}
	cut := Sum(vs[0].Sketch, vs[1].Sketch, vs[2].Sketch, vs[3].Sketch)
	if _, res := cut.QueryAny(0); res != Empty {
		t.Errorf("internal edges did not cancel: %v", res)
	}
}

func TestVertexSketchDeletion(t *testing.T) {
	const n = 8
	sp := NewGraphSpace(n, 8, hash.NewPRG(16))
	a := NewVertexSketch(sp, n)
	e := graph.NewEdge(0, 5)
	a.ApplyEdge(0, e, graph.Insert)
	a.ApplyEdge(0, e, graph.Delete)
	if _, res := a.QueryAny(0); res != Empty {
		t.Error("insert+delete did not cancel in vertex sketch")
	}
}

func TestNewVertexSketchSpaceMismatchPanics(t *testing.T) {
	sp := NewGraphSpace(8, 2, hash.NewPRG(17))
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched space did not panic")
		}
	}()
	NewVertexSketch(sp, 9)
}

func TestQueryResultString(t *testing.T) {
	if Empty.String() != "empty" || Found.String() != "found" || Fail.String() != "fail" {
		t.Error("QueryResult.String wrong")
	}
}

// TestSumSpaceMismatch pins the Sum space check: every operand is checked
// against argument 0, and the panic names the index of the offending
// argument (a mismatch used to surface as a generic Add panic attributing
// the wrong operand).
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
		name    string
		args    []Sketch
		wantArg string // "" means no panic expected
	}{
		{"all same", mk(spA, spA, spA), ""},
		{"second mismatched", mk(spA, spB, spA), "argument 1"},
		{"third mismatched", mk(spA, spA, spB), "argument 2"},
		{"fifth mismatched", mk(spA, spA, spA, spA, spB), "argument 4"},
		{"first two swapped spaces", mk(spB, spA), "argument 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if tc.wantArg == "" {
					if r != nil {
						t.Fatalf("unexpected panic: %v", r)
					}
					return
				}
				if r == nil {
					t.Fatalf("Sum over mismatched spaces did not panic")
				}
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("panic value %T, want string", r)
				}
				if !strings.Contains(msg, tc.wantArg) || !strings.Contains(msg, "argument 0") {
					t.Fatalf("panic %q does not name %s against argument 0", msg, tc.wantArg)
				}
			}()
			Sum(tc.args...)
		})
	}
}

func TestSumEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sum() did not panic")
		}
	}()
	Sum()
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
		sum := Sum(a, b)
		for c := 0; c < sp.Copies(); c++ {
			i1, r1 := sum.Query(c)
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
	want := Sum(a, b)
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

// ScratchCopy hands out a pooled copy of exactly the view it is given, and a
// released window's buffer serves a whole sketch next.
func TestScratchCopyOfAWindow(t *testing.T) {
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
			t.Fatalf("copy holds copies [%d,%d), want [%d,%d)", glo, ghi, wlo, whi)
		}
		for i, x := range want.Cells() {
			if got.Cells()[i] != x {
				t.Fatalf("word %d differs", i)
			}
		}
	}
	w := sk.Window(1, 4)
	c := sp.ScratchCopy(w)
	equal(c, w)
	orig := sk.Clone()
	c.Add(w) // the copy is the caller's to change, and changes nothing else
	equal(sk, orig)
	sp.Release(c)
	whole := sp.ScratchCopy(sk)
	defer sp.Release(whole)
	equal(whole, sk)
}
