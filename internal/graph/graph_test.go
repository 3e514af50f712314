package graph

import (
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

func TestBatchSplit(t *testing.T) {
	b := Batch{Ins(0, 1), Del(2, 3), Ins(4, 5)}
	if got := len(b.Inserts()); got != 2 {
		t.Errorf("Inserts len = %d, want 2", got)
	}
	if got := len(b.Deletes()); got != 1 {
		t.Errorf("Deletes len = %d, want 1", got)
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
