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
// machine words (t copies × (levels+1) cells × 3 words per cell), and a
// Sketch value is a cheap view — a Space pointer plus a word slice — not a
// heap object of its own. Views come from three places:
//
//   - an Arena, which backs all the vertex sketches of one machine shard
//     with a single contiguous allocation (see arena.go);
//   - Space.NewSketch, a standalone one-allocation sketch;
//   - Space.ScratchCopy, a sync.Pool-backed copy for the transient
//     merge-and-query work of the recovery paths, returned with
//     Space.Release.
//
// The t copies of a sketch are t contiguous runs of (levels+1)×3 words, so a
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
package sketch

import (
	"fmt"
	"sync"

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

// One cell is a one-sparse recovery structure — exact counter, index sum and
// a random linear fingerprint, all linear in the underlying vector — stored
// as three consecutive machine words. The counter word holds an int64 bit
// pattern; isum and fp are elements of F_p.
const (
	cellWords = 3
	offCount  = 0
	offIsum   = 1
	offFp     = 2
)

func cellZero(w []uint64) bool { return w[offCount]|w[offIsum]|w[offFp] == 0 }

func cellUpdate(w []uint64, idx, hfp uint64, delta int) {
	w[offCount] = uint64(int64(w[offCount]) + int64(delta))
	if delta > 0 {
		w[offIsum] = addModP(w[offIsum], idx%hash.Prime)
		w[offFp] = addModP(w[offFp], hfp)
	} else {
		w[offIsum] = subModP(w[offIsum], idx%hash.Prime)
		w[offFp] = subModP(w[offFp], hfp)
	}
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

// cellRecover attempts one-sparse recovery on the cell at w. It succeeds
// only when the cell contains exactly one coordinate with value ±1 (the only
// values arising from simple-graph incidence vectors), verified against the
// fingerprint, so false positives occur with probability at most 1/Prime.
func cellRecover(w []uint64, fpHash *hash.Family, idSpace uint64) (idx uint64, ok bool) {
	switch int64(w[offCount]) {
	case 1:
		idx = w[offIsum]
	case -1:
		idx = subModP(0, w[offIsum])
	default:
		return 0, false
	}
	if idx >= idSpace {
		return 0, false
	}
	want := fpHash.Hash(idx)
	if int64(w[offCount]) == -1 {
		want = subModP(0, want)
	}
	if w[offFp] != want {
		return 0, false
	}
	return idx, true
}

// Space holds the shared randomness for a family of mergeable sketches: t
// independent copies, each with its own level hash and fingerprint hash.
// Every sketch that is ever added to another must come from the same Space.
type Space struct {
	idSpace uint64
	t       int
	levels  int
	stride  int // SketchWords(), cached
	perCopy int // words of one copy: (levels+1) cells
	levelH  []*hash.Family
	fpH     []*hash.Family
	scratch sync.Pool // *[]uint64 of stride words, see ScratchCopy/Release
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
	s.levelH = make([]*hash.Family, t)
	s.fpH = make([]*hash.Family, t)
	for i := 0; i < t; i++ {
		s.levelH[i] = hash.NewFourwise(prg)
		s.fpH[i] = hash.NewFourwise(prg)
	}
	s.scratch.New = func() any {
		buf := make([]uint64, s.stride)
		return &buf
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
// may live in an Arena, a standalone allocation, a pooled scratch buffer or a
// decoded message frame. Copying a Sketch value aliases the same cells; use
// Clone for an independent copy. The zero value is not usable; see Valid.
type Sketch struct {
	space *Space
	cells []uint64
	lo    int // first copy held; the view ends at copy lo + len(cells)/perCopy
}

// NewSketch returns a standalone sketch of the zero vector (one allocation).
func (s *Space) NewSketch() Sketch {
	return Sketch{space: s, cells: make([]uint64, s.stride)}
}

// ScratchCopy returns a copy of src, of src's copy range, whose backing
// comes from the space's sync.Pool. It serves the transient merge-and-query
// work of the recovery paths (summing fragment or supernode sketches before
// Query) without allocating at steady state, and without clearing words that
// the copy overwrites. The caller must hand the sketch back with Release once
// done and must not use it afterwards.
func (s *Space) ScratchCopy(src Sketch) Sketch {
	if src.space != s {
		panic("sketch: ScratchCopy of a sketch from a different space")
	}
	buf := s.scratch.Get().(*[]uint64)
	cells := (*buf)[:len(src.cells)]
	copy(cells, src.cells)
	return Sketch{space: s, cells: cells, lo: src.lo}
}

// Release returns a ScratchCopy-obtained sketch to the pool. Releasing a
// sketch that is still referenced — or one backed by an Arena — corrupts
// whoever still holds the cells; only pass sketches obtained from the pool
// whose last use has passed.
func (s *Space) Release(sk Sketch) {
	if sk.space != s {
		panic("sketch: Release of a sketch from a different space")
	}
	cells := sk.cells[:cap(sk.cells)]
	s.scratch.Put(&cells)
}

// Space returns the space the sketch belongs to.
func (sk Sketch) Space() *Space { return sk.space }

// Valid reports whether the view is usable (the zero Sketch is not).
func (sk Sketch) Valid() bool { return sk.space != nil }

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

// View wraps raw backing words (for example a checkpointed image) as a full
// sketch of this space. The slice must be exactly SketchWords() long and
// must contain cell words previously produced by sketches of an identical
// space (same idSpace, copies, and PRG draws).
func (s *Space) View(cells []uint64) Sketch { return s.ViewWindow(cells, 0, s.t) }

// ViewWindow wraps raw backing words (for example a decoded message frame)
// as the view of copies [lo, hi): exactly WindowWords(lo, hi) words that
// such a view of an identical space produced.
func (s *Space) ViewWindow(cells []uint64, lo, hi int) Sketch {
	if want := s.WindowWords(lo, hi); len(cells) != want {
		panic(fmt.Sprintf("sketch: view of %d words, copies [%d,%d) take %d", len(cells), lo, hi, want))
	}
	return Sketch{space: s, cells: cells, lo: lo}
}

// Update applies X[idx] += delta; delta must be +1 or -1.
func (sk Sketch) Update(idx uint64, delta int) {
	if delta != 1 && delta != -1 {
		panic(fmt.Sprintf("sketch: delta %d", delta))
	}
	if idx >= sk.space.idSpace {
		panic(fmt.Sprintf("sketch: index %d out of space %d", idx, sk.space.idSpace))
	}
	L := sk.space.levels
	for c, base := sk.lo, 0; base < len(sk.cells); c, base = c+1, base+sk.space.perCopy {
		lvl := sk.space.levelH[c].Level(idx, L)
		hfp := sk.space.fpH[c].Hash(idx)
		// Design: level l holds all items whose sampling level is >= l, so
		// level 0 always holds the full vector and level l subsamples with
		// probability 2^-l.
		for l := 0; l <= lvl; l++ {
			cellUpdate(sk.cells[base+l*cellWords:], idx, hfp, delta)
		}
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
		// Two's-complement wrap-around makes uint64 addition exactly the
		// int64 counter addition of the original cell representation.
		a[i+offCount] += b[i+offCount]
		a[i+offIsum] = addModP(a[i+offIsum], b[i+offIsum])
		a[i+offFp] = addModP(a[i+offFp], b[i+offFp])
	}
}

// Zero resets the sketch to the zero vector in place.
func (sk Sketch) Zero() { clear(sk.cells) }

// Clone returns an independent deep copy of the sketch (one allocation; for
// an allocation-free transient copy use Space.ScratchCopy).
func (sk Sketch) Clone() Sketch {
	c := Sketch{space: sk.space, cells: make([]uint64, len(sk.cells)), lo: sk.lo}
	copy(c.cells, sk.cells)
	return c
}

// Sum returns a fresh sketch equal to the cell-wise sum of the arguments,
// which must be non-empty and share a Space. Each operand's space is checked
// against the first operand's, and a mismatch names the offending argument
// index.
func Sum(sketches ...Sketch) Sketch {
	if len(sketches) == 0 {
		panic("sketch: Sum of nothing")
	}
	out := sketches[0].Clone()
	for i, s := range sketches[1:] {
		if s.space != out.space {
			panic(fmt.Sprintf("sketch: Sum argument %d is from a different space than argument 0", i+1))
		}
		out.Add(s)
	}
	return out
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
	// the sample.
	for l := L; l >= 0; l-- {
		if idx, ok := cellRecover(sk.cells[base+l*cellWords:], sk.space.fpH[c], sk.space.idSpace); ok {
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

// VertexSketch is an AGM sketch of the incidence vector X_v of one vertex:
// a Sketch view plus the vertex count needed to map edges to coordinates.
// Like Sketch it is a value; copying it aliases the same cells.
type VertexSketch struct {
	Sketch
	n int
}

// NewVertexSketch returns the sketch of an isolated vertex in a graph on n
// vertices. space must have been built over id space n^2.
func NewVertexSketch(space *Space, n int) VertexSketch {
	if space.idSpace != graph.IDSpace(n) {
		panic("sketch: space does not match vertex count")
	}
	return VertexSketch{Sketch: space.NewSketch(), n: n}
}

// VertexView wraps an existing sketch view (typically an Arena slot) as the
// vertex sketch of a graph on n vertices.
func VertexView(sk Sketch, n int) VertexSketch {
	if sk.space.idSpace != graph.IDSpace(n) {
		panic("sketch: space does not match vertex count")
	}
	return VertexSketch{Sketch: sk, n: n}
}

// ApplyEdge updates the sketch of vertex w for an insertion (op =
// graph.Insert) or deletion of edge e incident to w.
func (vs VertexSketch) ApplyEdge(w int, e graph.Edge, op graph.Op) {
	sign := EdgeSign(w, e)
	if op == graph.Delete {
		sign = -sign
	}
	vs.Update(e.ID(vs.n), sign)
}

// QueryEdge recovers an edge of the cut around the sketched vertex set using
// copy c. The sign of the recovered coordinate is immaterial: coordinate
// indices identify edges directly.
func (vs VertexSketch) QueryEdge(c int) (graph.Edge, QueryResult) {
	idx, res := vs.Query(c)
	if res != Found {
		return graph.Edge{}, res
	}
	return graph.EdgeFromID(idx, vs.n), Found
}

// CloneVertex returns a deep copy preserving the vertex-sketch wrapper.
func (vs VertexSketch) CloneVertex() VertexSketch {
	return VertexSketch{Sketch: vs.Sketch.Clone(), n: vs.n}
}

// AddVertex merges another vertex sketch into vs; the result summarizes
// X_A for the union of the underlying vertex sets.
func (vs VertexSketch) AddVertex(other VertexSketch) {
	vs.Add(other.Sketch)
}
