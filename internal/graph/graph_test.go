package graph

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewEdgeCanonical(t *testing.T) {
	e := NewEdge(5, 2)
	if e.U != 2 || e.V != 5 {
		t.Errorf("NewEdge(5,2) = %v, want {2,5}", e)
	}
}

func TestNewEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEdge(3,3) did not panic")
		}
	}()
	NewEdge(3, 3)
}

func TestEdgeOther(t *testing.T) {
	e := NewEdge(1, 7)
	if e.Other(1) != 7 || e.Other(7) != 1 {
		t.Error("Other returned wrong endpoint")
	}
}

func TestEdgeOtherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	NewEdge(1, 7).Other(3)
}

func TestEdgeHas(t *testing.T) {
	e := NewEdge(1, 7)
	if !e.Has(1) || !e.Has(7) || e.Has(2) {
		t.Error("Has gave wrong answers")
	}
}

func TestEdgeIDRoundTrip(t *testing.T) {
	const n = 100
	if err := quick.Check(func(a, b uint8) bool {
		u, v := int(a)%n, int(b)%n
		if u == v {
			return true
		}
		e := NewEdge(u, v)
		return EdgeFromID(e.ID(n), n) == e
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEdgeIDInjective(t *testing.T) {
	const n = 40
	seen := make(map[uint64]Edge)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			e := NewEdge(u, v)
			id := e.ID(n)
			if prev, ok := seen[id]; ok {
				t.Fatalf("ID collision: %v and %v both map to %d", prev, e, id)
			}
			seen[id] = e
		}
	}
	if len(seen) != n*(n-1)/2 {
		t.Errorf("got %d ids, want %d", len(seen), n*(n-1)/2)
	}
}

func TestEdgeFromIDRejectsNonCanonical(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EdgeFromID on diagonal id did not panic")
		}
	}()
	EdgeFromID(5*10+5, 10) // encodes {5,5}
}

func TestUpdateConstructors(t *testing.T) {
	if u := Ins(3, 1); u.Op != Insert || u.Edge != (Edge{U: 1, V: 3}) {
		t.Errorf("Ins(3,1) = %+v", u)
	}
	if u := Del(3, 1); u.Op != Delete {
		t.Errorf("Del(3,1) = %+v", u)
	}
	if u := InsW(1, 2, 9); u.Weight != 9 {
		t.Errorf("InsW weight = %d", u.Weight)
	}
	if u := DelW(1, 2, 9); u.Op != Delete || u.Weight != 9 {
		t.Errorf("DelW = %+v", u)
	}
}

// TestBatchSplit pins what Check promises the algorithms: a batch it admits
// may be split into its insertions followed by its deletions (the order they
// apply it in) and ends where the batch applied in order ends.
func TestBatchSplit(t *testing.T) {
	g := New(6)
	if err := g.Insert(2, 3, 0); err != nil {
		t.Fatal(err)
	}
	b := Batch{Ins(0, 1), Del(2, 3), Ins(4, 5)}
	if err := g.Check(b); err != nil {
		t.Fatal(err)
	}
	var ins, del Batch
	for _, u := range b {
		if u.Op == Insert {
			ins = append(ins, u)
		} else {
			del = append(del, u)
		}
	}
	if len(ins) != 2 || len(del) != 1 {
		t.Fatalf("split into %d insertions and %d deletions, want 2 and 1", len(ins), len(del))
	}
	split := g.Clone()
	if err := split.Apply(append(ins, del...)); err != nil {
		t.Fatal(err)
	}
	if err := g.Apply(b); err != nil {
		t.Fatal(err)
	}
	if split.M() != 2 || !split.Has(0, 1) || !split.Has(4, 5) || split.Has(2, 3) {
		t.Errorf("split batch ends at %v, want {0,1} and {4,5}", split.Edges())
	}
	if g.M() != 2 || !g.Has(0, 1) || !g.Has(4, 5) || g.Has(2, 3) {
		t.Errorf("batch in order ends at %v, want {0,1} and {4,5}", g.Edges())
	}
}

func TestBatchMaxVertex(t *testing.T) {
	if got := Batch(nil).MaxVertex(); got != -1 {
		t.Errorf("empty batch: MaxVertex = %d, want -1", got)
	}
	if got := (Batch{Ins(3, 9), Del(1, 2)}).MaxVertex(); got != 9 {
		t.Errorf("MaxVertex = %d, want 9", got)
	}
}

func TestGraphInsertDelete(t *testing.T) {
	g := New(5)
	if err := g.Insert(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if !g.Has(0, 1) || !g.Has(1, 0) {
		t.Error("edge not present after insert")
	}
	if w, _ := g.Weight(1, 0); w != 3 {
		t.Errorf("weight = %d, want 3", w)
	}
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
	if err := g.Insert(1, 0, 3); err == nil {
		t.Error("duplicate insert succeeded")
	}
	if err := g.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.Has(0, 1) || g.M() != 0 {
		t.Error("edge present after delete")
	}
	if err := g.Delete(0, 1); err == nil {
		t.Error("double delete succeeded")
	}
	if err := g.Insert(2, 2, 0); err == nil {
		t.Error("self-loop insert succeeded")
	}
}

func TestGraphApply(t *testing.T) {
	g := New(4)
	if err := g.Apply(Batch{Ins(0, 1), Ins(1, 2), Del(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 || !g.Has(1, 2) {
		t.Errorf("unexpected state after Apply: m=%d", g.M())
	}
	if err := g.Apply(Batch{Del(0, 3)}); err == nil {
		t.Error("Apply with invalid delete succeeded")
	}
}

// TestGraphCheck is the table of the one batch validator every front door
// shares (it was the server's TestValidateBatch): a valid batch passes,
// every kind of invalid one is refused with its own diagnostic, and Check
// never mutates the graph — not even for a batch that fails half-way.
func TestGraphCheck(t *testing.T) {
	g := New(8)
	if err := g.Insert(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Check(Batch{Ins(2, 3), Del(0, 1)}); err != nil {
		t.Errorf("valid batch refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		b    Batch
		want string
	}{
		{"dup insert", Batch{Ins(0, 1)}, "update 0: insert of present edge {0,1}"},
		{"absent delete", Batch{Del(4, 5)}, "update 0: delete of absent edge {4,5}"},
		{"touch twice", Batch{Ins(2, 3), Del(2, 3)}, "update 1: edge {2,3} touched twice in one batch"},
		// Delete-then-insert of a present edge is valid update by update, but
		// the algorithms apply a batch's inserts before its deletes.
		{"delete then reinsert", Batch{Del(0, 1), Ins(0, 1)}, "update 1: edge {0,1} touched twice in one batch"},
		{"out of range", Batch{{Op: Insert, Edge: Edge{U: 0, V: 99}}}, "update 0: edge {0,99} outside vertex range [0,8)"},
		{"negative", Batch{{Op: Insert, Edge: Edge{U: -1, V: 2}}}, "update 0: edge {-1,2} outside vertex range [0,8)"},
		// Non-canonical endpoint order must not slip past the range check
		// into an index panic in Has.
		{"non-canonical out of range", Batch{{Op: Insert, Edge: Edge{U: 13, V: 3}}}, "update 0: edge {3,13} outside vertex range [0,8)"},
		{"self-loop", Batch{{Op: Insert, Edge: Edge{U: 3, V: 3}}}, "update 0: self-loop {3,3}"},
		{"unknown op", Batch{{Op: Op(7), Edge: Edge{U: 2, V: 3}}}, "update 0: unknown op 7"},
		{"fails half-way", Batch{Ins(2, 3), Ins(4, 5), Del(6, 7)}, "update 2: delete of absent edge {6,7}"},
	} {
		err := g.Check(tc.b)
		if err == nil {
			t.Errorf("%s: batch accepted", tc.name)
		} else if err.Error() != tc.want {
			t.Errorf("%s: diagnostic %q, want %q", tc.name, err, tc.want)
		}
	}
	if g.M() != 1 || !g.Has(0, 1) {
		t.Errorf("Check mutated the graph: M = %d", g.M())
	}
}

// TestGraphAdmit pins the atomic admission front doors share: a batch
// Check refuses leaves the graph exactly as it was, with Check's diagnostic;
// a valid one is applied whole.
func TestGraphAdmit(t *testing.T) {
	g := New(4)
	if err := g.Admit(Batch{Ins(0, 1), Ins(1, 2)}); err != nil {
		t.Fatal(err)
	}
	bad := Batch{Ins(2, 3), Del(0, 3)}
	want := g.Check(bad)
	if err := g.Admit(bad); err == nil || err.Error() != want.Error() {
		t.Fatalf("Admit(%v) = %v, want Check's %v", bad, err, want)
	}
	if g.M() != 2 || g.Has(2, 3) {
		t.Fatalf("a refused batch changed the graph: %v", g.Edges())
	}
	if err := g.Admit(Batch{Ins(2, 3), Del(0, 1)}); err != nil || g.M() != 2 || !g.Has(2, 3) || g.Has(0, 1) {
		t.Fatalf("a valid batch was not applied whole: %v, %v", err, g.Edges())
	}
}

func TestGraphNeighborsAndDegree(t *testing.T) {
	g := New(4)
	_ = g.Insert(0, 1, 1)
	_ = g.Insert(0, 2, 2)
	if g.Degree(0) != 2 || g.Degree(3) != 0 {
		t.Error("wrong degrees")
	}
	sum := int64(0)
	g.Neighbors(0, func(v int, w int64) bool {
		sum += w
		return true
	})
	if sum != 3 {
		t.Errorf("neighbor weight sum = %d, want 3", sum)
	}
	count := 0
	g.Neighbors(0, func(v int, w int64) bool {
		count++
		return false // early stop
	})
	if count != 1 {
		t.Errorf("early stop visited %d neighbors", count)
	}
}

func TestGraphEdgesCanonical(t *testing.T) {
	g := New(5)
	_ = g.Insert(3, 1, 7)
	_ = g.Insert(4, 0, 2)
	edges := g.Edges()
	if len(edges) != 2 {
		t.Fatalf("Edges len = %d", len(edges))
	}
	for _, e := range edges {
		if e.U >= e.V {
			t.Errorf("non-canonical edge %v", e)
		}
	}
}

func TestGraphClone(t *testing.T) {
	g := New(3)
	_ = g.Insert(0, 1, 5)
	c := g.Clone()
	_ = c.Delete(0, 1)
	if !g.Has(0, 1) {
		t.Error("mutating clone affected original")
	}
	if c.M() != 0 || g.M() != 1 {
		t.Error("clone M bookkeeping wrong")
	}
}

func TestIDSpace(t *testing.T) {
	if IDSpace(100) != 10000 {
		t.Errorf("IDSpace(100) = %d", IDSpace(100))
	}
}

func TestOpString(t *testing.T) {
	if Insert.String() != "insert" || Delete.String() != "delete" {
		t.Error("Op.String wrong")
	}
}

// TestOutOfRangeNeverAliases pins what every endpoint-taking method does
// with a vertex outside [0, n) at n = 10, where the flat id of {0, 15} is
// the id of the real edge {1, 5}: Has, Weight and Delete report the edge
// absent, Insert, Neighbors and Degree panic, and none of them answers for
// or touches another edge.
func TestOutOfRangeNeverAliases(t *testing.T) {
	g := New(10)
	for _, e := range [][2]int{{1, 5}, {0, 9}, {2, 3}} {
		if err := g.Insert(e[0], e[1], int64(e[0]+e[1])); err != nil {
			t.Fatal(err)
		}
	}
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	for _, tc := range []struct {
		name       string
		u, v       int
		absent     bool // Has, Weight and Delete report absent
		insertPans bool // Insert panics rather than failing with an error
	}{
		{"{0,15} aliases {1,5}", 0, 15, true, true},
		{"{15,0} aliases {1,5}", 15, 0, true, true},
		{"{-1,15} aliases {0,5}", -1, 15, true, true},
		{"{-10,19} aliases {0,9}", -10, 19, true, true},
		{"{2,-7} aliases {0,3} past the sign", 2, -7, true, true},
		{"{10,11}", 10, 11, true, true},
		{"{0,0} is the empty mark", 0, 0, true, false},
		{"{12,12} self-loop out of range", 12, 12, true, false},
	} {
		if g.Has(tc.u, tc.v) {
			t.Errorf("%s: Has reports present", tc.name)
		}
		if w, ok := g.Weight(tc.u, tc.v); ok || w != 0 {
			t.Errorf("%s: Weight = %d, %v, want 0, false", tc.name, w, ok)
		}
		if err := g.Delete(tc.u, tc.v); err == nil {
			t.Errorf("%s: Delete succeeded", tc.name)
		}
		if got := panics(func() { _ = g.Insert(tc.u, tc.v, 1) }); got != tc.insertPans {
			t.Errorf("%s: Insert panicked: %v, want %v", tc.name, got, tc.insertPans)
		}
	}
	for _, u := range []int{-1, 10, 15} {
		if !panics(func() { g.Degree(u) }) {
			t.Errorf("Degree(%d) did not panic", u)
		}
		if !panics(func() { g.Neighbors(u, func(int, int64) bool { return true }) }) {
			t.Errorf("Neighbors(%d) did not panic", u)
		}
	}
	if g.M() != 3 || !g.Has(1, 5) || !g.Has(0, 9) || !g.Has(2, 3) || g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Errorf("out-of-range calls changed the graph: %v", g.Edges())
	}
	if w, _ := g.Weight(5, 1); w != 6 {
		t.Errorf("Weight(5,1) = %d, want 6", w)
	}
}

// TestIterationOrderDeterministic pins that Edges and Neighbors order is a
// function of the update history: two graphs fed the same batches, and a
// Clone of one, iterate alike, before and after further updates.
func TestIterationOrderDeterministic(t *testing.T) {
	const n = 64
	r := rand.New(rand.NewPCG(7, 11))
	history := func() []Batch {
		g := New(n)
		var out []Batch
		for len(out) < 40 {
			var b Batch
			for len(b) < 24 {
				u, v := r.IntN(n), r.IntN(n)
				if u == v || g.Has(u, v) && r.IntN(3) > 0 {
					continue
				}
				if g.Has(u, v) {
					b = append(b, Del(u, v))
				} else {
					b = append(b, InsW(u, v, int64(r.IntN(100))))
				}
				if g.Check(b) != nil {
					b = b[:len(b)-1]
				}
			}
			if err := g.Admit(b); err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	batches := history()
	build := func(bs []Batch) *Graph {
		g := New(n)
		for _, b := range bs {
			if err := g.Admit(b); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	order := func(g *Graph) string {
		s := fmt.Sprint(g.Edges())
		for u := 0; u < n; u++ {
			g.Neighbors(u, func(v int, w int64) bool {
				s += fmt.Sprintf(" %d-%d:%d", u, v, w)
				return true
			})
		}
		return s
	}
	half := len(batches) / 2
	a, b := build(batches[:half]), build(batches[:half])
	c := a.Clone()
	want := order(a)
	if order(b) != want || order(c) != want {
		t.Fatal("graphs with the same history iterate in different orders")
	}
	for _, g := range []*Graph{a, b, c} {
		for _, bt := range batches[half:] {
			if err := g.Admit(bt); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want = order(a); order(b) != want || order(c) != want {
		t.Fatal("graphs with the same history iterate in different orders after further batches")
	}
}

// TestFromEdges pins the bulk constructor: it builds exactly the listed
// edge set, whatever the endpoint order, and refuses an endpoint out of
// range, a self-loop and an edge listed twice.
func TestFromEdges(t *testing.T) {
	fromList := func(edges []WeightedEdge) (*Graph, error) {
		return FromEdges(6, len(edges), func(i int) WeightedEdge { return edges[i] })
	}
	g, err := fromList([]WeightedEdge{{Edge: Edge{U: 4, V: 1}, Weight: 3}, NewWeightedEdge(0, 5, -2), NewWeightedEdge(1, 2, 7)})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRef(6)
	ref.apply(Batch{InsW(1, 4, 3), InsW(0, 5, -2), InsW(1, 2, 7)})
	if err := ref.sameAs(g); err != nil {
		t.Fatal(err)
	}
	if err := g.Admit(Batch{Ins(3, 4), Del(1, 2), Ins(2, 5)}); err != nil {
		t.Fatal(err)
	}
	ref.apply(Batch{Ins(3, 4), Del(1, 2), Ins(2, 5)})
	if err := ref.sameAs(g); err != nil {
		t.Fatalf("after a batch: %v", err)
	}
	for _, tc := range []struct {
		edges []WeightedEdge
		want  string
	}{
		{[]WeightedEdge{NewWeightedEdge(0, 1, 0), {Edge: Edge{U: 2, V: 6}}}, "graph: edge 1: {2,6} outside vertex range [0,6)"},
		{[]WeightedEdge{{Edge: Edge{U: -1, V: 2}}}, "graph: edge 0: {-1,2} outside vertex range [0,6)"},
		{[]WeightedEdge{{Edge: Edge{U: 3, V: 3}}}, "graph: edge 0: self-loop {3,3}"},
		{[]WeightedEdge{NewWeightedEdge(0, 1, 0), NewWeightedEdge(2, 3, 0), {Edge: Edge{U: 1, V: 0}, Weight: 4}}, "graph: edge 2: {1,0} listed twice"},
	} {
		if _, err := fromList(tc.edges); err == nil || err.Error() != tc.want {
			t.Errorf("FromEdges(%v) = %v, want %q", tc.edges, err, tc.want)
		}
	}
}
