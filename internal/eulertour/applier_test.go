package eulertour

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/hash"
)

// scanMap is the reference an Applier is checked against: a linear scan over
// every descriptor of the batch.
func scanMap(rels []Relabel, t TourID, p Pos) (TourID, Pos) {
	for _, r := range rels {
		if r.OldTour == t && r.Lo <= p && p <= r.Hi {
			return r.NewTour, p + r.Delta
		}
	}
	return t, p
}

// scanRecord is ApplyToRecord by scanMap: the rewritten record, or false if
// the scan sends its positions to more than one tour.
func scanRecord(rels []Relabel, rec Record) (Record, bool) {
	t0, u0 := scanMap(rels, rec.Tour, rec.UPos[0])
	t1, u1 := scanMap(rels, rec.Tour, rec.UPos[1])
	t2, v0 := scanMap(rels, rec.Tour, rec.VPos[0])
	t3, v1 := scanMap(rels, rec.Tour, rec.VPos[1])
	if t0 != t1 || t1 != t2 || t2 != t3 {
		return rec, false
	}
	rec.Tour, rec.UPos, rec.VPos = t0, sorted2(u0, u1), sorted2(v0, v1)
	return rec, true
}

// shuffle permutes xs in place.
func shuffle[T any](prg *hash.PRG, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := int(prg.NextN(uint64(i + 1)))
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// checkApplier runs one applier over recs in their order, then over every
// position 1..maxPos of every tour in tours, in shuffled order, and compares
// each answer with the scan's. It returns how many records the batch moved.
func checkApplier(t *testing.T, prg *hash.PRG, rels []Relabel, recs []Record, tours []TourID, maxPos Pos) int {
	t.Helper()
	a := NewRelabelSet(rels).Applier()
	moved := 0
	for _, rec := range recs {
		want, ok := scanRecord(rels, rec)
		got := rec
		err := a.ApplyToRecord(&got)
		if ok != (err == nil) {
			t.Fatalf("record %+v: applier error %v, scan split %v (descriptors %v)", rec, err, !ok, rels)
		}
		if ok && got != want {
			t.Fatalf("record %+v: applier %+v, scan %+v (descriptors %v)", rec, got, want, rels)
		}
		if ok && got != rec {
			moved++
		}
	}
	type query struct {
		t TourID
		p Pos
	}
	var qs []query
	for _, tr := range tours {
		for p := Pos(1); p <= maxPos; p++ {
			qs = append(qs, query{tr, p})
		}
	}
	shuffle(prg, qs)
	for _, q := range qs {
		gt, gp := a.Map(q.t, q.p)
		if wt, wp := scanMap(rels, q.t, q.p); gt != wt || gp != wp {
			t.Fatalf("Map(%d, %d) = %d,%d, scan %d,%d (descriptors %v)", q.t, q.p, gt, gp, wt, wp, rels)
		}
	}
	return moved
}

// TestApplierMatchesScan checks one Applier against a linear scan over every
// descriptor: on the join and split plans of the randomized churn, with each
// batch's records shuffled, and on generated descriptor sets over several
// tours with records placed at random, straddlers included.
func TestApplierMatchesScan(t *testing.T) {
	t.Run("plans", func(t *testing.T) {
		prg := hash.NewPRG(7)
		batches, moved := 0, 0
		for seed := uint64(1); seed <= 8; seed++ {
			h := newHost(40)
			h.onRelabel = func(recs []Record, rels []Relabel) {
				shuffle(prg, recs)
				var tours []TourID
				seen := map[TourID]bool{}
				maxPos := Pos(0)
				for _, r := range recs {
					if !seen[r.Tour] {
						seen[r.Tour] = true
						tours = append(tours, r.Tour)
					}
					maxPos = max(maxPos, max(r.UPos[1], r.VPos[1]))
				}
				moved += checkApplier(t, prg, rels, recs, tours, maxPos)
				batches++
			}
			churn(t, h, seed, 30)
		}
		if batches == 0 || moved == 0 {
			t.Fatalf("%d relabel batches moved %d records: the churn checked nothing", batches, moved)
		}
	})
	t.Run("generated", func(t *testing.T) {
		prg := hash.NewPRG(11)
		straddlers := 0
		for round := 0; round < 200; round++ {
			// Disjoint descriptors over [1, 200] on about two thirds of tours 1..6.
			var rels []Relabel
			for tr := TourID(1); tr <= 6; tr++ {
				if prg.NextN(3) == 0 {
					continue
				}
				for lo := Pos(1 + prg.NextN(8)); lo <= 200; {
					hi := min(lo+Pos(prg.NextN(30)), 200)
					rels = append(rels, Relabel{
						OldTour: tr, Lo: lo, Hi: hi,
						NewTour: TourID(7 + prg.NextN(4)),
						Delta:   int(prg.NextN(60)) - 30,
					})
					lo = hi + 1 + Pos(prg.NextN(6))
				}
			}
			shuffle(prg, rels)
			recs := make([]Record, 64)
			for i := range recs {
				p := Pos(1 + prg.NextN(190))
				q := p + 2 + Pos(prg.NextN(8))
				recs[i] = Record{E: graph.NewEdge(i, i+1), Tour: TourID(1 + prg.NextN(7)), UPos: [2]Pos{p, q + 1}, VPos: [2]Pos{p + 1, q}}
				if _, ok := scanRecord(rels, recs[i]); !ok {
					straddlers++
				}
			}
			checkApplier(t, prg, rels, recs, []TourID{0, 1, 2, 3, 4, 5, 6, 7, 8}, 200)
		}
		if straddlers == 0 {
			t.Fatal("no generated record straddled two descriptors")
		}
	})
}

// tourRecords lays out one Euler tour of a random tree on n vertices (tour
// id 1, rooted at 0) and returns its records sorted by edge, as a shard
// keeps them.
func tourRecords(n int, prg *hash.PRG) []Record {
	children := make([][]int, n)
	for v := 1; v < n; v++ {
		u := int(prg.NextN(uint64(v)))
		children[u] = append(children[u], v)
	}
	recs := make([]Record, 0, n-1)
	pos := Pos(1)
	var walk func(u int)
	walk = func(u int) {
		for _, c := range children[u] {
			down := pos
			pos += 2
			walk(c)
			up := pos
			pos += 2
			r := Record{E: graph.NewEdge(u, c), Tour: 1}
			parent, child := [2]Pos{down, up + 1}, [2]Pos{down + 1, up}
			if r.E.U == u {
				r.UPos, r.VPos = parent, child
			} else {
				r.UPos, r.VPos = child, parent
			}
			recs = append(recs, r)
		}
	}
	walk(0)
	slices.SortFunc(recs, func(a, b Record) int { return cmp.Or(cmp.Compare(a.E.U, b.E.U), cmp.Compare(a.E.V, b.E.V)) })
	return recs
}

// BenchmarkApplyRelabels is one shard's relabel pass at the size of the
// churn workloads: the records of one 4,096-vertex tour, sorted by edge, run
// through one Applier of a 32-cut split plan. Each op restores the records
// from a copy and rewrites all of them; the count ledger pins it at zero
// allocations.
func BenchmarkApplyRelabels(b *testing.B) {
	const n, cuts = 4096, 32
	prg := hash.NewPRG(45)
	all := tourRecords(n, prg)
	var deleted []Record
	picked := map[int]bool{}
	for len(deleted) < cuts {
		if i := int(prg.NextN(uint64(len(all)))); !picked[i] {
			picked[i] = true
			deleted = append(deleted, all[i])
		}
	}
	next := TourID(2)
	plan, err := PlanSplit(map[TourID]int{1: TourLen(n)}, deleted, func() TourID { next++; return next - 1 })
	if err != nil {
		b.Fatal(err)
	}
	var base []Record
	for i, r := range all {
		if !picked[i] {
			base = append(base, r)
		}
	}
	set := NewRelabelSet(plan.Relabels)
	work := make([]Record, len(base))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		a := set.Applier()
		for j := range work {
			if err := a.ApplyToRecord(&work[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
