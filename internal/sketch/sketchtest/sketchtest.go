// Package sketchtest preserves the original pointer-based sketch
// implementation as a differential-testing oracle. RefSpace/RefSketch are
// the pre-arena representation — one heap object per sketch, one struct per
// cell — kept bit-for-bit faithful to the code the flat arena
// representation replaced: the hash families are drawn from the PRG in the
// same order, the cell arithmetic is identical, and the level/recovery
// scans visit cells in the same order. A RefSpace and a sketch.Space built
// from equal-seeded PRGs therefore define the same sampler, and every
// Update/Add/Query sequence must produce identical QueryResults on both
// paths; the equivalence tests drive exactly that comparison across the
// workload scenario generators. The reference evaluates its families one
// by one by Horner's rule (hash.Family), where sketch.Space evaluates the
// same polynomials from its flat tables (hash.Cubics), so the comparison
// also holds the table kernel to Horner's.
//
// The reference deliberately keeps the ℓ0 counter that the flat cell dropped:
// its cell is three words (counter, index sum, fingerprint) and it recovers
// only a cell whose counter reads ±1, where sketch.Space tries both signs of
// a two-word cell. Identical QueryResults on every scenario are therefore the
// evidence that the two-word recovery answers as the counter did.
package sketchtest

import (
	"fmt"

	"repro/internal/hash"
	"repro/internal/sketch"
)

// cell is the reference one-sparse recovery structure: exact counter, index
// sum and a random linear fingerprint, all linear in the underlying vector.
type cell struct {
	count int64  // sum of coordinate values
	isum  uint64 // sum of value*index over F_p
	fp    uint64 // sum of value*h_fp(index) over F_p
}

func (c *cell) zero() bool { return c.count == 0 && c.isum == 0 && c.fp == 0 }

func (c *cell) update(idx, hfp uint64, delta int) {
	c.count += int64(delta)
	if delta > 0 {
		c.isum = addModP(c.isum, idx%hash.Prime)
		c.fp = addModP(c.fp, hfp)
	} else {
		c.isum = subModP(c.isum, idx%hash.Prime)
		c.fp = subModP(c.fp, hfp)
	}
}

func (c *cell) add(o cell) {
	c.count += o.count
	c.isum = addModP(c.isum, o.isum)
	c.fp = addModP(c.fp, o.fp)
}

func addModP(a, b uint64) uint64 {
	s := a + b
	if s >= hash.Prime {
		s -= hash.Prime
	}
	return s
}

func subModP(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + hash.Prime - b
}

func (c *cell) recover(fpHash *hash.Family, idSpace uint64) (idx uint64, ok bool) {
	switch c.count {
	case 1:
		idx = c.isum
	case -1:
		idx = subModP(0, c.isum)
	default:
		return 0, false
	}
	if idx >= idSpace {
		return 0, false
	}
	want := fpHash.Hash(idx)
	if c.count == -1 {
		want = subModP(0, want)
	}
	if c.fp != want {
		return 0, false
	}
	return idx, true
}

// RefSpace is the reference counterpart of sketch.Space.
type RefSpace struct {
	idSpace uint64
	t       int
	levels  int
	levelH  []*hash.Family
	fpH     []*hash.Family
}

// NewRefSpace mirrors sketch.NewSpace, drawing the hash families from prg
// in the identical order, so equal-seeded PRGs yield equivalent spaces.
func NewRefSpace(idSpace uint64, t int, prg *hash.PRG) *RefSpace {
	if idSpace == 0 {
		panic("sketchtest: empty id space")
	}
	if t < 1 {
		panic(fmt.Sprintf("sketchtest: t = %d", t))
	}
	levels := 1
	for v := uint64(1); v < idSpace; v *= 2 {
		levels++
		if levels > 64 {
			break
		}
	}
	s := &RefSpace{idSpace: idSpace, t: t, levels: levels}
	s.levelH = make([]*hash.Family, t)
	s.fpH = make([]*hash.Family, t)
	for i := 0; i < t; i++ {
		s.levelH[i] = hash.NewFourwise(prg)
		s.fpH[i] = hash.NewFourwise(prg)
	}
	return s
}

// Copies returns the number of independent sampler copies per sketch.
func (s *RefSpace) Copies() int { return s.t }

// NewSketch returns a reference sketch of the zero vector.
func (s *RefSpace) NewSketch() *RefSketch {
	return &RefSketch{space: s, cells: make([]cell, s.t*(s.levels+1))}
}

// RefSketch is the pointer-based reference sketch.
type RefSketch struct {
	space *RefSpace
	cells []cell
}

// Update applies X[idx] += delta; delta must be +1 or -1.
func (sk *RefSketch) Update(idx uint64, delta int) {
	if delta != 1 && delta != -1 {
		panic(fmt.Sprintf("sketchtest: delta %d", delta))
	}
	if idx >= sk.space.idSpace {
		panic(fmt.Sprintf("sketchtest: index %d out of space %d", idx, sk.space.idSpace))
	}
	L := sk.space.levels
	for c := 0; c < sk.space.t; c++ {
		lvl := sk.space.levelH[c].Level(idx, L)
		hfp := sk.space.fpH[c].Hash(idx)
		base := c * (L + 1)
		for l := 0; l <= lvl; l++ {
			sk.cells[base+l].update(idx, hfp, delta)
		}
	}
}

// Add merges other into sk cell-wise.
func (sk *RefSketch) Add(other *RefSketch) {
	if sk.space != other.space {
		panic("sketchtest: adding sketches from different spaces")
	}
	for i := range sk.cells {
		sk.cells[i].add(other.cells[i])
	}
}

// Clone returns a deep copy.
func (sk *RefSketch) Clone() *RefSketch {
	c := &RefSketch{space: sk.space, cells: make([]cell, len(sk.cells))}
	copy(c.cells, sk.cells)
	return c
}

// Query attempts to recover a nonzero coordinate using copy c, with the
// reference scan order (sparsest level down).
func (sk *RefSketch) Query(c int) (idx uint64, res sketch.QueryResult) {
	if c < 0 || c >= sk.space.t {
		panic(fmt.Sprintf("sketchtest: copy %d of %d", c, sk.space.t))
	}
	L := sk.space.levels
	base := c * (L + 1)
	if sk.cells[base].zero() {
		return 0, sketch.Empty
	}
	for l := L; l >= 0; l-- {
		if idx, ok := sk.cells[base+l].recover(sk.space.fpH[c], sk.space.idSpace); ok {
			return idx, sketch.Found
		}
	}
	return 0, sketch.Fail
}
