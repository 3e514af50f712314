// Package sketch implements the linear ℓ0-sampling sketches of
// Cormode–Jowhari (Lemma 3.1 of the paper) and the AGM vertex-incidence
// sketches built from them (Section 3.1): compact, mergeable summaries of
// dynamically changing vectors over {-1, 0, +1}^N from which a uniformly
// random nonzero coordinate can be recovered.
//
// A Space fixes the shared randomness (hash functions) for a family of
// sketches; sketches from the same Space are linear: adding two sketches
// cell-wise yields a sketch of the sum of the underlying vectors. This is
// the property that makes the connectivity algorithm work — summing the
// vertex sketches of a set A cancels all edges internal to A and leaves
// exactly the edges of the cut E(A, V \ A) (Lemma 3.3).
//
// # Representation
//
// Sketch state is stored flat: every sketch is a run of SketchWords()
// machine words (t copies × (levels+1) cells × 2 words per cell), and a
// Sketch value is a cheap view — a Space pointer plus a word slice — not a
// heap object of its own. Views come from three places:
//
//   - an Arena, which backs all the vertex sketches of one machine shard
//     with a single contiguous allocation (see arena.go);
//   - Space.NewSketch, a standalone one-allocation sketch;
//   - Space.ViewWindow, the cells of a message frame: the recovery paths
//     sum vertex sketches straight into the frames that carry the sums, and
//     read the sums where they land (package sketchcodec).
//
// The t copies of a sketch are t contiguous runs of (levels+1)×2 words, so a
// view need not hold all of them: Sketch.Window(lo, hi) is the view of copies
// [lo, hi) of the same cells, and Space.ViewWindow wraps a decoded run of
// hi-lo copies. A range view knows its range: it answers Query(c) for lo <= c
// < hi only, and it adds to and copies from views of the same range only.
// The recovery paths use this to move and sum just the copies a search is
// about to read (package sketchcodec).
//
// Update, Add, Query and the cell-recovery scan all operate on the word
// slices in place and perform no allocation, which is what keeps the
// simulator's sketch hot path allocation-free at steady state.
//
// One loop writes every cell: the incidence kernel behind Update and
// AddIncidence. It takes a run of ids and the id from which they enter
// negated. A vertex's incidence vector is +1 at the edges where the vertex
// is the larger endpoint, the ids below v·n, and -1 at the others
// (AddIncidence); Update(idx, delta) is the run of one id, negated from id 0
// for a deletion and from none for an insertion. The loop computes the
// powers of a chunk of ids once (hash.PointAt), then, copy by copy,
// evaluates the copy's level and fingerprint rows at every id of the chunk
// (hash.Cubics.RowLevels, hash.Cubics.RowAt), each row's coefficients loaded
// once, and writes the copy's cells, which stay in cache while the chunk's
// ids land in them. Level l holds every id of sampling level >= l, so level
// 0 holds the full vector. Recovery (Query) reads a copy's fingerprint row of
// the same table.
//
// A sketch is a linear function of its vector, so a vertex whose edges are
// few can be kept as the list of their ids instead, and a window of its
// sketch made only when it is summed: AddIncidence of the list into the
// window writes the cells that Update edge by edge would have, bit for bit.
//
// # Soundness of the two-word cell
//
// A cell holds the index sum isum and the fingerprint fp = Σ x_i·h(i) of
// its support, both mod p = 2^61 − 1, and no ℓ0 counter. Recovery tries both
// signs of a one-sparse ±1 vector: idx = isum checked against h(idx), then
// idx = p − isum checked against −h(idx), each only when idx < idSpace. A
// false positive is a cell of support S that is not one coordinate ±1 yet
// passes one of the two checks:
//
//   - for |S| ≤ 3 the candidate idx and S are at most four points, and the
//     fingerprint family is four-wise independent (hash.NewFourwise), so each
//     sign passes with probability at most 1/p;
//   - for |S| ≥ 4 the check goes beyond what four-wise independence proves,
//     as it did with the counter (a support of four or more points is outside
//     the family's guarantee either way);
//   - the only new exposure is a support whose values do not sum to ±1 (the
//     counter turned it away) but whose ±isum lands in [0, idSpace), which
//     sends it on to the fingerprint check: for an isum that looks uniform in
//     F_p that is about 2·idSpace/p = 2n²/p per cell, about 2^−36 at
//     n = 4096, before the fingerprint's own 1/p is even counted.
//
// A zero cell is never tested: it holds no coordinate, yet under a
// fingerprint with h(0) = 0 (probability 1/p per copy) it would pass as
// index 0, so Query skips it before the check, as the counter did.
//
// TestNoRecoveryFromSparseNonUnitVectors feeds cells exactly those two- and
// three-sparse vectors across many seeds; package sketchtest keeps the
// three-word cell as the oracle the equivalence tests compare against.
package sketch

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/hash"
)

// QueryResult classifies the outcome of an ℓ0-sampler query.
type QueryResult int

// Query outcomes.
const (
	// Empty means the sketched vector is zero (the ⊥ outcome of Lemma 3.1
	// for ℓ0(X) = 0).
	Empty QueryResult = iota
	// Found means a nonzero coordinate was recovered.
	Found
	// Fail means the sampler could not recover a coordinate this time; the
	// caller should retry with an independent copy.
	Fail
)

// String implements fmt.Stringer.
func (r QueryResult) String() string {
	switch r {
	case Empty:
		return "empty"
	case Found:
		return "found"
	default:
		return "fail"
	}
}

// One cell is a one-sparse recovery structure — an index sum and a random
// linear fingerprint, both linear in the underlying vector — stored as two
// consecutive machine words, both elements of F_p. There is no counter: the
// one nonzero coordinate of a one-sparse incidence vector is ±1, so recovery
// tries both signs instead (see cellRecover).
const (
	cellWords = 2
	offIsum   = 0
	offFp     = 1
)

func cellZero(w []uint64) bool { return w[offIsum]|w[offFp] == 0 }

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

// cellRecover attempts one-sparse recovery on the cell at w of copy c, whose
// fingerprint is row c of fp. It succeeds only when the cell reads as
// exactly one coordinate with value ±1 (the only values arising from
// simple-graph incidence vectors): first idx = isum checked against
// fp(idx), then idx = p − isum checked against −fp(idx), each only when
// idx < idSpace. See the package comment for the bound on false positives.
func cellRecover(w []uint64, fp hash.Cubics, c int, idSpace uint64) (idx uint64, ok bool) {
	if idx = w[offIsum]; idx < idSpace && w[offFp] == fp.At(c, idx) {
		return idx, true
	}
	if idx = subModP(0, w[offIsum]); idx < idSpace && w[offFp] == subModP(0, fp.At(c, idx)) {
		return idx, true
	}
	return 0, false
}

// Space holds the shared randomness for a family of mergeable sketches: t
// independent copies, each with its own level hash and fingerprint hash:
// row c of levelH and of fpH, two flat tables of four-wise independent
// polynomials. Every sketch that is ever added to another must come from the
// same Space.
type Space struct {
	idSpace uint64
	t       int
	levels  int
	stride  int // SketchWords(), cached
	perCopy int // words of one copy: (levels+1) cells
	levelH  hash.Cubics
	fpH     hash.Cubics
}

// NewSpace creates a space for vectors indexed by [0, idSpace) with t
// independent sampler copies per sketch, drawing randomness from prg.
func NewSpace(idSpace uint64, t int, prg *hash.PRG) *Space {
	if idSpace == 0 {
		panic("sketch: empty id space")
	}
	if t < 1 {
		panic(fmt.Sprintf("sketch: t = %d", t))
	}
	levels := 1
	for v := uint64(1); v < idSpace; v *= 2 {
		levels++
		if levels > 64 {
			break
		}
	}
	s := &Space{idSpace: idSpace, t: t, levels: levels}
	s.perCopy = (levels + 1) * cellWords
	s.stride = t * s.perCopy
	for range t {
		s.levelH.Draw(prg)
		s.fpH.Draw(prg)
	}
	return s
}

// NewGraphSpace creates a space for the edge-incidence vectors of graphs on
// n vertices (index space n^2) with t copies.
func NewGraphSpace(n, t int, prg *hash.PRG) *Space {
	return NewSpace(graph.IDSpace(n), t, prg)
}

// Copies returns the number of independent sampler copies per sketch.
func (s *Space) Copies() int { return s.t }

// Levels returns the number of subsampling levels per copy.
func (s *Space) Levels() int { return s.levels }

// SketchWords returns the size in machine words of one sketch from this
// space; it is O(log^2 N) words: t copies of (levels+1) cells.
func (s *Space) SketchWords() int { return s.stride }

// WindowWords returns the size in machine words of a view of copies [lo, hi).
func (s *Space) WindowWords(lo, hi int) int {
	s.checkRange(lo, hi)
	return (hi - lo) * s.perCopy
}

func (s *Space) checkRange(lo, hi int) {
	if lo < 0 || lo >= hi || hi > s.t {
		panic(fmt.Sprintf("sketch: copy range [%d,%d) of %d copies", lo, hi, s.t))
	}
}

// Sketch is a linear ℓ0-sampling sketch of a vector in {-1,0,+1}^idSpace.
// It is a view: a Space pointer plus the backing words of copies [lo, hi) —
// all t of them (SketchWords() words) unless the view is a window — which
// may live in an Arena, a standalone allocation or a message frame. Copying
// a Sketch value aliases the same cells; use Clone for an independent copy.
// The zero value is not usable.
type Sketch struct {
	space *Space
	cells []uint64
	lo    int // first copy held; the view ends at copy lo + len(cells)/perCopy
}

// NewSketch returns a standalone sketch of the zero vector (one allocation).
func (s *Space) NewSketch() Sketch {
	return Sketch{space: s, cells: make([]uint64, s.stride)}
}

// Words returns the view's size in machine words.
func (sk Sketch) Words() int { return len(sk.cells) }

// CopyRange returns the copies [lo, hi) the view holds: [0, Copies()) unless
// it is a window.
func (sk Sketch) CopyRange() (lo, hi int) {
	return sk.lo, sk.lo + len(sk.cells)/sk.space.perCopy
}

// Window returns the view of copies [lo, hi) of sk, which must hold them. It
// aliases sk's cells: an Add into the window is an Add into those copies of
// sk.
func (sk Sketch) Window(lo, hi int) Sketch {
	sk.space.checkRange(lo, hi)
	if have, end := sk.CopyRange(); lo < have || hi > end {
		panic(fmt.Sprintf("sketch: window [%d,%d) of a view of copies [%d,%d)", lo, hi, have, end))
	}
	w := sk.space.perCopy
	from, to := (lo-sk.lo)*w, (hi-sk.lo)*w
	return Sketch{space: sk.space, cells: sk.cells[from:to:to], lo: lo}
}

// Cells exposes the raw backing words for codec use (encoding a sketch into
// a message frame). The slice must be treated as the sketch's private state:
// mutating it directly bypasses the cell invariants.
func (sk Sketch) Cells() []uint64 { return sk.cells }

// CheckCells reports the first of words that is not a field element, below
// hash.Prime. The words of a sketch loaded from outside the process must
// all be: the sums that take them reduce once, so a larger word can wrap at
// 2^64, and the sketch would then answer wrong without an error.
func CheckCells(words []uint64) error {
	for i, w := range words {
		if w >= hash.Prime {
			return fmt.Errorf("sketch word %d is %d, not below the field prime 2^61-1", i, w)
		}
	}
	return nil
}

// ViewWindow wraps raw backing words (for example a decoded message frame)
// as the view of copies [lo, hi): exactly WindowWords(lo, hi) words that
// such a view of an identical space produced.
func (s *Space) ViewWindow(cells []uint64, lo, hi int) Sketch {
	if want := s.WindowWords(lo, hi); len(cells) != want {
		panic(fmt.Sprintf("sketch: view of %d words, copies [%d,%d) take %d", len(cells), lo, hi, want))
	}
	return Sketch{space: s, cells: cells, lo: lo}
}

// Update applies X[idx] += delta; delta must be +1 or -1. It is the
// incidence kernel run on the one id, negated from id 0 for a deletion and
// from none for an insertion.
func (sk Sketch) Update(idx uint64, delta int) {
	if delta != 1 && delta != -1 {
		panic(fmt.Sprintf("sketch: delta %d", delta))
	}
	if idx >= sk.space.idSpace {
		panic(fmt.Sprintf("sketch: index %d out of space %d", idx, sk.space.idSpace))
	}
	neg := uint64(math.MaxUint64) // above every id: idx enters as +1
	if delta < 0 {
		neg = 0
	}
	sk.add([]uint64{idx}, neg)
}

// AddIncidence adds to the view the incidence vector X_v of vertex v of a
// graph on n vertices, given the ids of v's live edges in any order: each
// edge +1 where v is its larger endpoint and -1 where it is the smaller
// (EdgeSign), which for an edge at v is an id below v·n and one at or above
// it. By linearity the cells are those of a zero view that took Update for
// each edge, then was added: the same words bit for bit. It is the kernel
// that stands in for a vertex kept as its edge list, and checks nothing:
// every id must lie in the view's id space.
func (sk Sketch) AddIncidence(n, v int, ids []uint64) {
	sk.add(ids, uint64(v)*uint64(n))
}

// incidenceChunk is the number of ids add hashes a copy's rows for at once:
// the size of its stack arrays of points and hashes.
const incidenceChunk = 32

// add adds to the view the vector that is +1 at each of ids below neg and
// -1 at each at or above it (an id listed twice counts twice). It is the one
// loop that hashes into cells (see the package doc): it computes the powers
// of up to incidenceChunk ids at once, then, copy by copy, evaluates the
// copy's level and fingerprint rows at all of them and writes the copy's
// cells. An id's sign is settled once, not per copy: its index enters as the
// field negation p − id, and its fingerprint is negated as it is written.
// p itself, the negation of 0, adds as 0 (addModP reduces it).
func (sk Sketch) add(ids []uint64, neg uint64) {
	sp := sk.space
	// NewSpace caps levels at 65, so every level fits RowLevels' byte.
	L, stride := sp.levels, sp.perCopy
	lo, hi := sk.CopyRange()
	var (
		pts   [incidenceChunk]hash.Point
		isums [incidenceChunk]uint64
		negs  [incidenceChunk]bool
		lvl   [incidenceChunk]uint8
		fp    [incidenceChunk]uint64
	)
	for len(ids) > 0 {
		k := min(len(ids), incidenceChunk)
		for j, id := range ids[:k] {
			pts[j], isums[j], negs[j] = hash.PointAt(id), id%hash.Prime, id >= neg
			if negs[j] {
				isums[j] = hash.Prime - isums[j]
			}
		}
		for c := lo; c < hi; c++ {
			sp.levelH.RowLevels(c, pts[:k], L, lvl[:k])
			sp.fpH.RowAt(c, pts[:k], fp[:k])
			w := sk.cells[(c-lo)*stride : (c-lo+1)*stride]
			for j := range k {
				f := fp[j]
				if negs[j] {
					f = hash.Prime - f
				}
				for l := 0; l <= int(lvl[j]); l++ {
					w[l*cellWords+offIsum] = addModP(w[l*cellWords+offIsum], isums[j])
					w[l*cellWords+offFp] = addModP(w[l*cellWords+offFp], f)
				}
			}
		}
		ids = ids[k:]
	}
}

// Add merges other into sk cell-wise. Both must come from the same Space and
// hold the same copy range; afterwards sk summarizes the sum of the two
// vectors.
func (sk Sketch) Add(other Sketch) {
	if sk.space != other.space {
		panic("sketch: adding sketches from different spaces")
	}
	if sk.lo != other.lo || len(sk.cells) != len(other.cells) {
		lo, hi := sk.CopyRange()
		olo, ohi := other.CopyRange()
		panic(fmt.Sprintf("sketch: adding views of copies [%d,%d) and [%d,%d)", olo, ohi, lo, hi))
	}
	a, b := sk.cells, other.cells
	for i := 0; i < len(a); i += cellWords {
		a[i+offIsum] = addModP(a[i+offIsum], b[i+offIsum])
		a[i+offFp] = addModP(a[i+offFp], b[i+offFp])
	}
}

// Clone returns an independent deep copy of the sketch (one allocation; a
// transient sum goes into the message frame that carries it, see package
// sketchcodec).
func (sk Sketch) Clone() Sketch {
	c := Sketch{space: sk.space, cells: make([]uint64, len(sk.cells)), lo: sk.lo}
	copy(c.cells, sk.cells)
	return c
}

// Query attempts to recover a nonzero coordinate using copy c, which the
// view must hold. Each copy is an independent sampler: it fails with at most
// constant probability, so querying different copies for the same vector
// boosts success. Copies consumed by one Borůvka-style round must not be
// reused in later rounds of the same extraction (the vector then depends on
// the copy's randomness): a vertex set never reads a copy that it, or a set
// merged into it, has read.
func (sk Sketch) Query(c int) (idx uint64, res QueryResult) {
	L := sk.space.levels
	base := (c - sk.lo) * sk.space.perCopy
	if base < 0 || base >= len(sk.cells) {
		lo, hi := sk.CopyRange()
		panic(fmt.Sprintf("sketch: copy %d of a view of copies [%d,%d)", c, lo, hi))
	}
	if cellZero(sk.cells[base:]) {
		return 0, Empty
	}
	// Scan from the sparsest level down; the first one-sparse cell yields
	// the sample. A zero cell is skipped unhashed: it holds no coordinate,
	// and under a fingerprint with h(0) = 0 it would pass as index 0.
	for l := L; l >= 0; l-- {
		w := sk.cells[base+l*cellWords:]
		if cellZero(w) {
			continue
		}
		if idx, ok := cellRecover(w, sk.space.fpH, c, sk.space.idSpace); ok {
			return idx, Found
		}
	}
	return 0, Fail
}

// QueryAny tries all the view's copies starting from startCopy and returns
// the first decisive outcome. It reports Fail only if every copy fails.
func (sk Sketch) QueryAny(startCopy int) (idx uint64, res QueryResult) {
	lo, hi := sk.CopyRange()
	for off := 0; off < hi-lo; off++ {
		c := lo + (startCopy-lo+off)%(hi-lo)
		idx, r := sk.Query(c)
		if r != Fail {
			return idx, r
		}
	}
	return 0, Fail
}

// EdgeSign returns the sign with which edge e contributes to the incidence
// vector X_w of vertex w: +1 when w is the larger endpoint, -1 when it is
// the smaller (Section 3.1). It panics if w is not an endpoint of e.
func EdgeSign(w int, e graph.Edge) int {
	c := e.Canonical()
	switch w {
	case c.V:
		return 1
	case c.U:
		return -1
	default:
		panic(fmt.Sprintf("sketch: vertex %d not an endpoint of %v", w, e))
	}
}
