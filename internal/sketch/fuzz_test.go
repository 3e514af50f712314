package sketch

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/hash"
)

// FuzzSketchRecovery fuzzes the ℓ0-sampler soundness invariants over
// arbitrary insert/delete histories: a Found query must recover an index
// that is genuinely in the sketched vector's support, a zero vector must
// read Empty on every copy, and cancelling the support via linearity must
// return the sketch to Empty. Each byte of ops toggles one coordinate (so
// the vector stays in {0,1}^64, the incidence-vector regime).
func FuzzSketchRecovery(f *testing.F) {
	f.Add(uint64(1), []byte{1, 2, 3, 1})
	f.Add(uint64(7), []byte{0, 0})
	f.Add(uint64(42), []byte{})
	f.Add(uint64(9), []byte{63, 63, 63, 7, 7, 12, 255, 128})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		const idSpace = 64
		space := NewSpace(idSpace, 4, hash.NewPRG(seed))
		sk := space.NewSketch()
		support := map[uint64]bool{}
		for _, b := range ops {
			idx := uint64(b) % idSpace
			if support[idx] {
				sk.Update(idx, -1)
				delete(support, idx)
			} else {
				sk.Update(idx, +1)
				support[idx] = true
			}
		}
		for c := 0; c < space.Copies(); c++ {
			idx, res := sk.Query(c)
			switch res {
			case Found:
				if !support[idx] {
					t.Fatalf("copy %d recovered %d, not in the support (l0=%d)", c, idx, len(support))
				}
			case Empty:
				if len(support) != 0 {
					t.Fatalf("copy %d reads Empty but l0 = %d", c, len(support))
				}
			}
		}
		// Linearity: subtracting the support must cancel the sketch exactly.
		inv := sk.Clone()
		for idx := range support {
			inv.Update(idx, -1)
		}
		for c := 0; c < space.Copies(); c++ {
			if _, res := inv.Query(c); res != Empty {
				t.Fatalf("cancelled sketch still reads %v on copy %d", res, c)
			}
		}
	})
}

// FuzzIncidenceWindowMatchesArena holds the one loop that writes sketch
// cells to Horner's rule, not to itself. For a random vertex v of a graph
// on n vertices, a random list of ids (drawn from the seed, then read from
// raw, eight bytes each) and a random copy range [lo, hi), a zero window
// takes v's signed incidence (AddIncidence: +1 for an id below v·n, -1 for
// the others), then the deletion of the first id as at a promoted vertex
// (Update with that id's sign negated) and the last id again as a +1
// coordinate. Its words must equal, bit for bit, the same window of a sketch
// the test fills itself: hash.NewFourwise families drawn from an
// equal-seeded PRG in NewSpace's order (per copy the level row, then the
// fingerprint row), evaluated by Horner's rule, and each signed id added to
// the cells of levels 0 through its sampling level.
func FuzzIncidenceWindowMatchesArena(f *testing.F) {
	const copies = 32
	le := func(ids ...uint64) []byte {
		var b []byte
		for _, id := range ids {
			b = binary.LittleEndian.AppendUint64(b, id)
		}
		return b
	}
	const n = 4096
	s := NewGraphSpace(n, copies, hash.NewPRG(1)).SketchWords()
	f.Add(uint64(1), uint16(n-2), uint16(7), uint8(0), uint8(copies-1), uint16(0), []byte{})       // an empty list
	f.Add(uint64(2), uint16(n-2), uint16(9), uint8(3), uint8(7), uint16(s-1), []byte{})            // S-1 ids
	f.Add(uint64(3), uint16(n-2), uint16(0), uint8(0), uint8(copies-1), uint16(0), le(1, n*n-1))   // ids 1 and n²-1, both at or above v·n
	f.Add(uint64(4), uint16(n-2), uint16(n-1), uint8(0), uint8(copies-1), uint16(0), le(1, n*n-1)) // id 1 below v·n, n²-1 not
	f.Add(uint64(5), uint16(0), uint16(1), uint8(31), uint8(0), uint16(3), le(0, 1, 2, 3, 1))      // n = 2, an id twice
	f.Fuzz(func(t *testing.T, seed uint64, n16, v16 uint16, lo8, hi8 uint8, count uint16, raw []byte) {
		n := 2 + int(n16)%(n-1)
		v := int(v16) % n
		space := NewGraphSpace(n, copies, hash.NewPRG(seed))
		lo := int(lo8) % copies
		hi := lo + 1 + int(hi8)%(copies-lo)
		ids := make([]uint64, 0, int(count)+len(raw)/8)
		prg := hash.NewPRG(^seed)
		for range int(count) % space.SketchWords() {
			ids = append(ids, prg.NextN(uint64(n*n)))
		}
		for ; len(raw) >= 8; raw = raw[8:] {
			ids = append(ids, binary.LittleEndian.Uint64(raw)%uint64(n*n))
		}
		sign := func(id uint64) int {
			if id < uint64(v)*uint64(n) {
				return 1
			}
			return -1
		}
		got := space.ViewWindow(make([]uint64, space.WindowWords(lo, hi)), lo, hi)
		got.AddIncidence(n, v, ids)
		type signed struct {
			id   uint64
			sign int
		}
		var coords []signed
		for _, id := range ids {
			coords = append(coords, signed{id, sign(id)})
		}
		if len(ids) > 0 {
			first, last := ids[0], ids[len(ids)-1]
			got.Update(first, -sign(first))
			got.Update(last, +1)
			coords = append(coords, signed{first, -sign(first)}, signed{last, +1})
		}

		// The reference: the families NewSpace draws, evaluated by Horner's
		// rule, written into a whole sketch's words.
		const p = hash.Prime
		ref := hash.NewPRG(seed)
		want := make([]uint64, space.SketchWords())
		for c := range copies {
			levelH, fpH := hash.NewFourwise(ref), hash.NewFourwise(ref)
			cells := want[c*space.perCopy : (c+1)*space.perCopy]
			for _, x := range coords {
				isum, fp := x.id%p, fpH.Hash(x.id)
				if x.sign < 0 {
					isum, fp = (p-isum)%p, (p-fp)%p
				}
				for l := 0; l <= levelH.Level(x.id, space.levels); l++ {
					cells[l*cellWords+offIsum] = (cells[l*cellWords+offIsum] + isum) % p
					cells[l*cellWords+offFp] = (cells[l*cellWords+offFp] + fp) % p
				}
			}
		}
		if w := want[lo*space.perCopy : hi*space.perCopy]; !slices.Equal(got.Cells(), w) {
			t.Fatalf("n=%d v=%d copies [%d,%d) of %d ids: the kernel's window differs from Horner's", n, v, lo, hi, len(ids))
		}
	})
}
