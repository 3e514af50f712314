// Package hash provides k-wise independent hash families and a small
// deterministic PRG. All randomized components in this repository draw their
// randomness through this package so that runs are reproducible and the
// update adversary is oblivious (its choices are fixed before the algorithm's
// seeds are drawn).
//
// The families evaluate degree-(k-1) polynomials over the prime field
// F_p with p = 2^61 - 1 (a Mersenne prime), which supports fast modular
// reduction without division.
package hash

import (
	"fmt"
	"math/bits"
)

// Prime is the Mersenne prime 2^61 - 1 used as the field modulus for all
// polynomial hash families in this package.
const Prime uint64 = (1 << 61) - 1

// mulMod returns (a*b) mod Prime for a, b < Prime: the hardware 128-bit
// product, below 2^122, and its Mersenne reduction.
func mulMod(a, b uint64) uint64 { return fold(bits.Mul64(a, b)) }

// addMod returns (a+b) mod Prime for a, b < Prime.
func addMod(a, b uint64) uint64 {
	s := a + b
	if s >= Prime {
		s -= Prime
	}
	return s
}

// PRG is a splitmix64 pseudo-random generator. It is deliberately minimal:
// the repository needs reproducible streams of 64-bit words, not
// cryptographic strength. The zero value is a valid generator seeded with 0.
type PRG struct {
	state uint64
}

// NewPRG returns a PRG seeded with seed.
func NewPRG(seed uint64) *PRG {
	return &PRG{state: seed}
}

// Next returns the next 64-bit word of the stream.
func (p *PRG) Next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NextN returns a uniform value in [0, n). n must be positive.
func (p *PRG) NextN(n uint64) uint64 {
	if n == 0 {
		panic("hash: NextN with n = 0")
	}
	// Rejection sampling to avoid modulo bias; the loop terminates quickly
	// because the acceptance probability is at least 1/2.
	limit := ^uint64(0) - ^uint64(0)%n
	for {
		v := p.Next()
		if v < limit {
			return v % n
		}
	}
}

// Fork returns a new PRG whose stream is a deterministic function of the
// parent stream, letting callers derive independent sub-streams.
func (p *PRG) Fork() *PRG {
	return NewPRG(p.Next())
}

// Family is a k-wise independent hash family member mapping uint64 keys to
// [0, Prime). It evaluates a random polynomial of degree k-1 over F_p.
type Family struct {
	coeffs []uint64 // coeffs[0] is the constant term; len(coeffs) == k
}

// NewFamily draws a member of a k-wise independent family using randomness
// from prg. k must be at least 1.
func NewFamily(k int, prg *PRG) *Family {
	if k < 1 {
		panic(fmt.Sprintf("hash: NewFamily with k = %d < 1", k))
	}
	return &Family{coeffs: draw(make([]uint64, 0, k), k, prg)}
}

// draw appends to dst the k coefficients of a random polynomial of degree
// k-1, constant term first, drawn from prg.
func draw(dst []uint64, k int, prg *PRG) []uint64 {
	for range k {
		dst = append(dst, prg.NextN(Prime))
	}
	// The leading coefficient must be nonzero for full independence.
	if k > 1 && dst[len(dst)-1] == 0 {
		dst[len(dst)-1] = 1
	}
	return dst
}

// NewPairwise draws a member of a pairwise (2-wise) independent family.
func NewPairwise(prg *PRG) *Family { return NewFamily(2, prg) }

// NewFourwise draws a member of a 4-wise independent family.
func NewFourwise(prg *PRG) *Family { return NewFamily(4, prg) }

// Hash evaluates the polynomial at x (reduced into the field first) by
// Horner's rule from the leading coefficient and returns a value in
// [0, Prime).
func (f *Family) Hash(x uint64) uint64 {
	if x >= Prime {
		x %= Prime
	}
	k := len(f.coeffs) - 1
	acc := f.coeffs[k]
	for i := k - 1; i >= 0; i-- {
		acc = addMod(mulMod(acc, x), f.coeffs[i])
	}
	return acc
}

// HashRange returns a hash value mapped into [0, n). The result is k-wise
// independent up to the negligible bias of reducing a near-uniform field
// element modulo n (Prime/n ≥ 2^40 for every n used in this repository).
func (f *Family) HashRange(x, n uint64) uint64 {
	if n == 0 {
		panic("hash: HashRange with n = 0")
	}
	return f.Hash(x) % n
}

// Level returns the geometric "sampling level" of x: the number of leading
// sampling coin flips that came up heads, capped at max. Level i occurs with
// probability 2^-(i+1) for i < max. This is the standard level function used
// by l0-samplers. The coin flips are the bits of Hash(x) from the lowest up,
// a set bit being tails, so the level is the hash's trailing zero count; a
// zero hash has no tails and takes the cap whatever it is.
func (f *Family) Level(x uint64, max int) int { return level(f.Hash(x), max) }

// level is the sampling level of a hash value h: its trailing zero count,
// capped at max, and max for h = 0.
func level(h uint64, max int) int {
	if h == 0 {
		return max
	}
	return min(bits.TrailingZeros64(h), max)
}

// Words returns the memory footprint of the family in machine words, used by
// the MPC memory ledger.
func (f *Family) Words() int { return len(f.coeffs) }

// Cubics is a flat table of cubic polynomials over F_p, one per row, stored
// four coefficients a row with the constant term first. Row r is the
// four-wise independent hash that NewFourwise draws, so a table evaluates
// exactly as a slice of Families would, without a pointer per row.
//
// A table evaluates one row at a run of points (RowAt, RowLevels): the
// powers x, x² and x³ of each point are computed once (PointAt) for every
// row read at it, the row's coefficients are loaded once for the run, and
// each value is then three independent bits.Mul64 products summed in 128
// bits, one Mersenne reduction and the constant term added. At evaluates one
// row at one point. Field arithmetic is exact, so the value is Family.Hash's
// whatever the order of evaluation. The zero value is an empty table; Draw
// appends rows.
type Cubics struct {
	c []uint64
}

// Draw appends one row drawn from prg, consuming the same words of the
// stream as NewFourwise(prg) and hashing as the Family it returns.
func (t *Cubics) Draw(prg *PRG) { t.c = draw(t.c, 4, prg) }

// At returns row r evaluated at x (reduced into the field first), in
// [0, Prime).
func (t Cubics) At(r int, x uint64) uint64 {
	x, x2, x3 := powers(x)
	c := (*[4]uint64)(t.c[4*r:])
	return addMod(fold(products(c, x, x2, x3)), c[0])
}

// Point is a field point with its square and cube: the powers a row is
// evaluated from, computed once for every row read at the point.
type Point struct{ x, x2, x3 uint64 }

// PointAt reduces x into the field and returns it with its powers.
func PointAt(x uint64) Point {
	x, x2, x3 := powers(x)
	return Point{x, x2, x3}
}

// RowAt writes row r evaluated at each of pts to dst: the row's
// coefficients loaded once for a run of points.
func (t Cubics) RowAt(r int, pts []Point, dst []uint64) {
	c := (*[4]uint64)(t.c[4*r:])
	dst = dst[:len(pts)]
	for i, p := range pts {
		dst[i] = addMod(fold(products(c, p.x, p.x2, p.x3)), c[0])
	}
}

// RowLevels writes to dst the sampling level of each of pts under row r,
// capped at max (see Family.Level). The levels are bytes: max must be below
// 256, a bound the caller keeps and RowLevels does not check.
func (t Cubics) RowLevels(r int, pts []Point, max int, dst []uint8) {
	c := (*[4]uint64)(t.c[4*r:])
	dst = dst[:len(pts)]
	for i, p := range pts {
		dst[i] = uint8(level(addMod(fold(products(c, p.x, p.x2, p.x3)), c[0]), max))
	}
}

// powers reduces x into the field and returns it with its square and cube.
func powers(x uint64) (x1, x2, x3 uint64) {
	if x >= Prime {
		x %= Prime
	}
	x2 = mulMod(x, x)
	return x, x2, mulMod(x2, x)
}

// products returns c[1]·x + c[2]·x2 + c[3]·x3 as a 128-bit hi:lo, for
// canonical coefficients and powers: three independent products, each
// below 2^122, so the sum fits in 124 bits.
func products(c *[4]uint64, x, x2, x3 uint64) (hi, lo uint64) {
	h1, l1 := bits.Mul64(c[1], x)
	h2, l2 := bits.Mul64(c[2], x2)
	h3, l3 := bits.Mul64(c[3], x3)
	lo, k1 := bits.Add64(l1, l2, 0)
	lo, k2 := bits.Add64(lo, l3, 0)
	return h1 + h2 + h3 + k1 + k2, lo
}

// fold returns hi·2^64 + lo mod Prime, canonical, for hi:lo below 2^124.
// One fold at bit 61 (2^61 ≡ 1) leaves less than 2^64; a second fold and
// one subtraction make it canonical.
func fold(hi, lo uint64) uint64 {
	r := (lo & Prime) + (lo>>61 | hi<<3)
	r = (r & Prime) + r>>61
	if r >= Prime {
		r -= Prime
	}
	return r
}
