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

// FuzzIncidenceWindowMatchesArena holds AddIncidence to Update: for a random
// vertex v of a graph on n vertices, a random list of ids (drawn from the
// seed, then read from raw, eight bytes each) and a random copy range
// [lo, hi), the kernel's window of v's signed incidence equals, bit for bit,
// the same window of an arena sketch that took Update for each id, +1 for an
// id below v·n and -1 for the others.
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
		arena := space.NewArena(1)
		for _, id := range ids {
			sign := -1
			if id < uint64(v)*uint64(n) {
				sign = 1
			}
			arena.At(0).Update(id, sign)
		}
		got := space.Scratch(lo, hi)
		defer space.Release(got)
		got.AddIncidence(n, v, ids)
		if want := arena.At(0).Window(lo, hi).Cells(); !slices.Equal(got.Cells(), want) {
			t.Fatalf("n=%d v=%d copies [%d,%d) of %d ids: kernel window differs from the arena's", n, v, lo, hi, len(ids))
		}
	})
}
