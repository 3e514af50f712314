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

// mulMod returns (a*b) mod Prime using the hardware 128-bit product and
// Mersenne reduction.
func mulMod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a, b < 2^61, so the product fits in 122 bits.
	// Split product as hi*2^64 + lo and reduce modulo 2^61-1 using
	// 2^61 ≡ 1 (mod p).
	res := (lo & Prime) + (lo>>61 | hi<<3)
	if res >= Prime {
		res -= Prime
	}
	return res
}

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
	coeffs := make([]uint64, k)
	for i := range coeffs {
		coeffs[i] = prg.NextN(Prime)
	}
	// The leading coefficient must be nonzero for full independence.
	if k > 1 && coeffs[k-1] == 0 {
		coeffs[k-1] = 1
	}
	return &Family{coeffs: coeffs}
}

// NewPairwise draws a member of a pairwise (2-wise) independent family.
func NewPairwise(prg *PRG) *Family { return NewFamily(2, prg) }

// NewFourwise draws a member of a 4-wise independent family.
func NewFourwise(prg *PRG) *Family { return NewFamily(4, prg) }

// Hash evaluates the polynomial at x (reduced into the field first) and
// returns a value in [0, Prime).
func (f *Family) Hash(x uint64) uint64 {
	if x >= Prime {
		x %= Prime
	}
	var acc uint64
	for i := len(f.coeffs) - 1; i >= 0; i-- {
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
func (f *Family) Level(x uint64, max int) int {
	h := f.Hash(x)
	if h == 0 {
		return max
	}
	return min(bits.TrailingZeros64(h), max)
}

// Words returns the memory footprint of the family in machine words, used by
// the MPC memory ledger.
func (f *Family) Words() int { return len(f.coeffs) }
