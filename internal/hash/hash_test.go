package hash

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestMulModSmall(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 0, 0},
		{1, 1, 1},
		{Prime - 1, 1, Prime - 1},
		{2, 3, 6},
		{Prime - 1, 2, Prime - 2}, // (p-1)*2 = 2p-2 ≡ p-2
	}
	for _, c := range cases {
		if got := mulMod(c.a, c.b); got != c.want {
			t.Errorf("mulMod(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// bigPrime is Prime as a math/big integer: the reference arithmetic below
// shares no code with the field arithmetic under test.
var bigPrime = new(big.Int).SetUint64(Prime)

func TestMulModAgainstBigArithmetic(t *testing.T) {
	prg := NewPRG(1)
	edges := []uint64{0, 1, 2, 1 << 32, 1<<32 - 1, 1 << 60, Prime - 2, Prime - 1}
	check := func(a, b uint64) {
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, bigPrime)
		if got := mulMod(a, b); got != want.Uint64() {
			t.Fatalf("mulMod(%d, %d) = %d, want %d", a, b, got, want.Uint64())
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	for i := 0; i < 2000; i++ {
		check(prg.NextN(Prime), prg.NextN(Prime))
	}
}

// TestFamilyHashAgainstBigArithmetic evaluates each family's polynomial by
// Horner's rule in math/big, keys at and past the field's edge included.
func TestFamilyHashAgainstBigArithmetic(t *testing.T) {
	prg := NewPRG(3)
	for _, k := range []int{1, 2, 4, 7} {
		f := NewFamily(k, prg)
		keys := []uint64{0, 1, Prime - 1, Prime, Prime + 1, math.MaxUint64}
		for i := 0; i < 200; i++ {
			keys = append(keys, prg.Next())
		}
		for _, x := range keys {
			bx := new(big.Int).Mod(new(big.Int).SetUint64(x), bigPrime)
			want := new(big.Int)
			for i := len(f.coeffs) - 1; i >= 0; i-- {
				want.Mul(want, bx)
				want.Add(want, new(big.Int).SetUint64(f.coeffs[i]))
				want.Mod(want, bigPrime)
			}
			if got := f.Hash(x); got != want.Uint64() {
				t.Fatalf("k = %d: Hash(%d) = %d, want %d", k, x, got, want.Uint64())
			}
		}
	}
}

// levelByBits is the definition Level implements: the index of the lowest
// set bit of h among the first max, or max when none is set.
func levelByBits(h uint64, max int) int {
	for i := 0; i < max; i++ {
		if h&(1<<uint(i)) != 0 {
			return i
		}
	}
	return max
}

// TestLevelMatchesBitLoop pins Level against levelByBits over random keys,
// over a hash of 0 (a constant family of value 0) and over hashes whose
// first set bit is at or past the cap.
func TestLevelMatchesBitLoop(t *testing.T) {
	prg := NewPRG(29)
	f := NewFourwise(prg)
	for i := uint64(0); i < 5000; i++ {
		h := f.Hash(i)
		for _, max := range []int{0, 1, 3, 25, 61, 64, 65} {
			if got, want := f.Level(i, max), levelByBits(h, max); got != want {
				t.Fatalf("Level(%d, %d) = %d, want %d (hash %#x)", i, max, got, want, h)
			}
		}
	}
	// A constant family: coeffs[0] is the value of every key.
	for _, h := range []uint64{0, 1, 1 << 3, 1 << 24, 1 << 60, 3 << 59} {
		c := &Family{coeffs: []uint64{h}}
		for _, max := range []int{0, 1, 3, 4, 24, 25, 60, 61, 64, 65} {
			if got, want := c.Level(7, max), levelByBits(h, max); got != want {
				t.Errorf("hash %#x: Level(_, %d) = %d, want %d", h, max, got, want)
			}
		}
	}
}

func TestPRGDeterminism(t *testing.T) {
	a, b := NewPRG(42), NewPRG(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed PRGs diverged")
		}
	}
	c := NewPRG(43)
	same := 0
	a = NewPRG(42)
	for i := 0; i < 100; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different-seed PRGs agreed on %d of 100 outputs", same)
	}
}

func TestPRGNextNInRange(t *testing.T) {
	prg := NewPRG(7)
	for _, n := range []uint64{1, 2, 3, 10, 1 << 40, Prime} {
		for i := 0; i < 50; i++ {
			if v := prg.NextN(n); v >= n {
				t.Fatalf("NextN(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestPRGNextNZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NextN(0) did not panic")
		}
	}()
	NewPRG(1).NextN(0)
}

func TestPRGFork(t *testing.T) {
	parent := NewPRG(5)
	f1 := parent.Fork()
	f2 := parent.Fork()
	if f1.Next() == f2.Next() {
		t.Error("sibling forks produced identical first output")
	}
}

func TestFamilyDeterminism(t *testing.T) {
	f := NewFourwise(NewPRG(9))
	for i := uint64(0); i < 100; i++ {
		if f.Hash(i) != f.Hash(i) {
			t.Fatal("Family.Hash is not a function")
		}
	}
}

func TestFamilyRange(t *testing.T) {
	f := NewPairwise(NewPRG(11))
	if err := quick.Check(func(x uint64) bool {
		return f.Hash(x) < Prime
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(x uint64) bool {
		return f.HashRange(x, 1000) < 1000
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestFamilyPairwiseUniformity(t *testing.T) {
	// Chi-squared style sanity check: bucket 64k keys into 16 buckets and
	// require each bucket to be within 20% of the mean.
	f := NewPairwise(NewPRG(13))
	const keys, buckets = 1 << 16, 16
	counts := make([]int, buckets)
	for i := uint64(0); i < keys; i++ {
		counts[f.HashRange(i, buckets)]++
	}
	mean := float64(keys) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-mean) > 0.2*mean {
			t.Errorf("bucket %d has %d keys, mean %.0f", b, c, mean)
		}
	}
}

func TestFamilyCollisionProbability(t *testing.T) {
	// For pairwise independent h into [m], P[h(x)=h(y)] ≈ 1/m. Estimate over
	// many family draws for one fixed pair.
	prg := NewPRG(17)
	const trials, m = 4000, 64
	coll := 0
	for i := 0; i < trials; i++ {
		f := NewPairwise(prg)
		if f.HashRange(1, m) == f.HashRange(2, m) {
			coll++
		}
	}
	got := float64(coll) / trials
	if got > 3.0/m {
		t.Errorf("collision rate %.4f, want about %.4f", got, 1.0/m)
	}
}

func TestLevelDistribution(t *testing.T) {
	// Level i should occur with probability about 2^-(i+1).
	f := NewFourwise(NewPRG(19))
	const keys = 1 << 16
	counts := make([]int, 20)
	for i := uint64(0); i < keys; i++ {
		counts[f.Level(i, 19)]++
	}
	for lvl := 0; lvl <= 6; lvl++ {
		want := float64(keys) / float64(uint64(2)<<uint(lvl))
		got := float64(counts[lvl])
		if got < 0.7*want || got > 1.3*want {
			t.Errorf("level %d count %.0f, want about %.0f", lvl, got, want)
		}
	}
}

func TestLevelCap(t *testing.T) {
	f := NewFourwise(NewPRG(23))
	for i := uint64(0); i < 1000; i++ {
		if l := f.Level(i, 3); l < 0 || l > 3 {
			t.Fatalf("Level out of cap: %d", l)
		}
	}
}

func TestNewFamilyPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFamily(0) did not panic")
		}
	}()
	NewFamily(0, NewPRG(1))
}

func TestFamilyWords(t *testing.T) {
	f := NewFamily(4, NewPRG(1))
	if f.Words() != 4 {
		t.Errorf("Words() = %d, want 4", f.Words())
	}
}
