package hash

import "testing"

// FuzzPRGDeterminism fuzzes the reproducibility contract everything in the
// repository leans on: the same seed must yield the same stream through
// Next, NextN (always in range), Fork, and the hash families drawn from
// the stream. A violation here would silently break golden traces,
// scenario replay, and the parallelism-determinism guarantees.
func FuzzPRGDeterminism(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint64(4))
	f.Add(uint64(1), uint64(7), uint64(16))
	f.Add(uint64(0xdeadbeef), uint64(1)<<40, uint64(64))
	f.Add(^uint64(0), ^uint64(0), uint64(3))
	f.Fuzz(func(t *testing.T, seed, n, steps uint64) {
		steps = steps%256 + 1
		a, b := NewPRG(seed), NewPRG(seed)
		for i := uint64(0); i < steps; i++ {
			if x, y := a.Next(), b.Next(); x != y {
				t.Fatalf("step %d: Next diverged (%d vs %d)", i, x, y)
			}
		}
		if n > 0 {
			a, b = NewPRG(seed), NewPRG(seed)
			for i := uint64(0); i < steps%8+1; i++ {
				x, y := a.NextN(n), b.NextN(n)
				if x != y {
					t.Fatalf("step %d: NextN diverged (%d vs %d)", i, x, y)
				}
				if x >= n {
					t.Fatalf("NextN(%d) = %d out of range", n, x)
				}
			}
		}
		if x, y := NewPRG(seed).Fork().Next(), NewPRG(seed).Fork().Next(); x != y {
			t.Fatalf("forked streams diverged (%d vs %d)", x, y)
		}
		f1 := NewFamily(4, NewPRG(seed))
		f2 := NewFamily(4, NewPRG(seed))
		if x, y := f1.Hash(n), f2.Hash(n); x != y {
			t.Fatalf("family hash diverged (%d vs %d)", x, y)
		}
		if h := f1.Hash(n); h >= Prime {
			t.Fatalf("Hash(%d) = %d >= Prime", n, h)
		}
		if n > 0 {
			if h := f1.HashRange(seed, n); h >= n {
				t.Fatalf("HashRange(%d, %d) = %d out of range", seed, n, h)
			}
		}
	})
}

// FuzzFourwiseMatchesHorner holds the table kernel to Horner's rule: for
// any canonical coefficients and any point, Cubics.At must give exactly
// Family.Hash, and Cubics.RowAt and Cubics.RowLevels, one row at a run of
// points, exactly Family.Hash and Family.Level. Field arithmetic is exact,
// so three products and one reduction may not differ from the Horner chain
// in a single bit. The table holds the fuzzed row, its coefficients reversed
// and the fuzzed row again, so every read also runs from a row offset.
func FuzzFourwiseMatchesHorner(f *testing.F) {
	const p = Prime
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), p, uint8(61))          // x = p
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), p+5, uint8(61))        // x above p
	f.Add(uint64(5), uint64(6), uint64(7), uint64(8), ^uint64(0), uint8(64)) // x = 2^64 - 1
	f.Add(uint64(9), uint64(8), uint64(7), uint64(6), uint64(0), uint8(61))
	f.Add(uint64(9), uint64(8), uint64(7), uint64(6), uint64(1), uint8(3))
	f.Add(uint64(9), uint64(8), uint64(7), uint64(6), p-1, uint8(25))
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(77), uint8(65)) // a zero hash: the level is the cap
	f.Add(uint64(0), p-1, uint64(0), p-1, p-1, uint8(0))
	f.Add(p-1, p-1, p-1, p-1, p-1, uint8(255))
	f.Add(uint64(5), uint64(1), p-1, uint64(0), uint64(1), uint8(61)) // the products sum to exactly p
	f.Add(p-1, uint64(0), uint64(0), uint64(1), uint64(1)<<61, uint8(1))
	f.Fuzz(func(t *testing.T, c0, c1, c2, c3, x uint64, max uint8) {
		row := []uint64{c0 % p, c1 % p, c2 % p, c3 % p}
		fams := []*Family{
			{coeffs: row},
			{coeffs: []uint64{row[3], row[2], row[1], row[0]}},
			{coeffs: row},
		}
		var tab Cubics
		for _, fam := range fams {
			tab.c = append(tab.c, fam.coeffs...)
		}
		for r, fam := range fams {
			if want := fam.Hash(x); tab.At(r, x) != want {
				t.Fatalf("row %d %v at %d: At %d, Horner %d", r, fam.coeffs, x, tab.At(r, x), want)
			}
		}
		// RowAt and RowLevels read one row at a run of points: x, x+1 and x
		// again, from shared powers.
		pts := []Point{PointAt(x), PointAt(x + 1), PointAt(x)}
		at := make([]uint64, len(pts))
		lv := make([]uint8, len(pts))
		for r, fam := range fams {
			tab.RowAt(r, pts, at)
			tab.RowLevels(r, pts, int(max), lv)
			for i, xi := range []uint64{x, x + 1, x} {
				if want := fam.Hash(xi); at[i] != want {
					t.Fatalf("row %d %v at %d: RowAt %d, Horner %d", r, fam.coeffs, xi, at[i], want)
				}
				if want := fam.Level(xi, int(max)); int(lv[i]) != want {
					t.Fatalf("row %d %v at %d: RowLevels %d, Family.Level %d (cap %d)", r, fam.coeffs, xi, lv[i], want, max)
				}
			}
		}
	})
}
