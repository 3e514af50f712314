package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"testing"
	"testing/iotest"
)

// FuzzSnapshotDecode hammers the snapshot container decoder with arbitrary
// bytes: it must never panic, a sized reader, an unsized one and one that
// returns half of every read must agree on the error text or the frames,
// and any input that passes the container checks must decode cleanly
// section by section (every frame fully walkable). The checked-in corpus
// seeds a valid snapshot plus truncated, bit-flipped, and version-skewed
// variants of it.
func FuzzSnapshotDecode(f *testing.F) {
	// A small valid snapshot as the seed everything else mutates from.
	e := NewEncoder()
	e.Begin(1)
	e.Int(42)
	e.Int(3)
	e.Words([]uint64{7, 8, 9})
	e.String("seed")
	e.Begin(2)
	e.U64(1)
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-9]) // truncated mid-CRC
	f.Add(valid[:16])           // truncated header
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	skewed := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(skewed[8:], Version+7)
	f.Add(skewed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// Delta containers: the full-snapshot decoder must reject the delta
	// magic up front (with the flavor-aware diagnostic), and truncated or
	// chain-reordered variants must never panic it either.
	delta := deltaBytes(f, ChainLink{Base: 1, Prev: 1, Seq: 1})
	f.Add(delta)
	f.Add(delta[:len(delta)-9]) // truncated delta
	reordered := append([]byte(nil), delta...)
	binary.LittleEndian.PutUint64(reordered[48:], 99) // ChainLink.Seq scrambled
	f.Add(reordered)
	// A structurally valid container whose section claims an absurd item
	// count: the bounded accessors must latch a diagnostic, never hand the
	// claimed count to an allocator (testdata carries this shape too, as
	// huge-count).
	he := NewEncoder()
	he.Begin(3)
	he.Int(1 << 40)
	var hbuf bytes.Buffer
	if _, err := he.WriteTo(&hbuf); err != nil {
		f.Fatal(err)
	}
	f.Add(hbuf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDecoder(bytes.NewReader(data))
		for _, r := range []io.Reader{struct{ io.Reader }{bytes.NewReader(data)}, iotest.HalfReader(bytes.NewReader(data))} {
			d2, err2 := NewDecoder(r)
			if fmt.Sprint(err) != fmt.Sprint(err2) {
				t.Fatalf("sized reader: %v; %T: %v", err, r, err2)
			}
			if err == nil && !slices.EqualFunc(d.frames, d2.frames, slices.Equal) {
				t.Fatalf("sized reader and %T decode different frames", r)
			}
		}
		if err != nil {
			return // rejected: the expected outcome for corrupt input
		}
		// Accepted containers must be fully walkable without panics: read
		// every section's words through the typed accessors.
		for {
			_, ok := d.Next()
			if !ok {
				break
			}
			for d.Err() == nil {
				if len(d.cur)-d.off == 0 {
					break
				}
				_ = d.U64()
			}
			if d.Err() != nil {
				break
			}
		}
		_ = d.Finish()
		// Second pass through the length-prefixed accessors: whatever the
		// section words hold, U64s/String may error but never panic.
		d2, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			return
		}
		for {
			if _, ok := d2.Next(); !ok {
				break
			}
			_ = d2.U64s()
			_ = d2.String()
			if d2.Err() != nil {
				break
			}
		}
		// Third pass through the bounded count prefix: whatever the first
		// word claims, Count must return something the remaining section can
		// actually hold, so sizing an allocation from it is always safe.
		d3, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			return
		}
		for {
			if _, ok := d3.Next(); !ok {
				break
			}
			n := d3.Count(2)
			if rem := len(d3.cur) - d3.off; d3.Err() == nil && n > rem/2 {
				t.Fatalf("Count(2) = %d with only %d words left", n, rem)
			}
			for i := 0; i < n && d3.Err() == nil; i++ {
				_ = d3.U64()
				_ = d3.U64()
			}
			if d3.Err() != nil {
				break
			}
		}
	})
}

// deltaBytes writes one delta container of a counterState the way
// Chain.checkpointDelta does.
func deltaBytes(tb testing.TB, link ChainLink) []byte {
	tb.Helper()
	var buf bytes.Buffer
	e, _ := encodeDelta(link, &counterState{tag: 1, journal: 7})
	if _, _, err := e.WriteContainer(&buf, DeltaMagic); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDeltaDecode hammers the delta-container path with arbitrary bytes,
// through the pieces Chain.Restore reads a delta with — the container
// decoder, readChainHeader, the orphan test, restoreDelta: they must never
// panic, and every input they accept must carry the exact chain identity the
// caller demanded — corrupt, truncated, reordered, orphaned, and full-magic
// inputs all fail before any state is touched. The corpus seeds each
// rejection class explicitly.
func FuzzDeltaDecode(f *testing.F) {
	want := ChainLink{Base: 11, Prev: 22, Seq: 3}
	valid := deltaBytes(f, want)
	f.Add(valid)
	f.Add(deltaBytes(f, ChainLink{Base: 99, Prev: 22, Seq: 3})) // orphan: wrong base
	f.Add(deltaBytes(f, ChainLink{Base: 11, Prev: 22, Seq: 9})) // out of order: wrong seq
	f.Add(deltaBytes(f, ChainLink{Base: 11, Prev: 77, Seq: 3})) // out of order: wrong prev
	f.Add(valid[:len(valid)-9])                                 // truncated mid-CRC
	f.Add(valid[:24])                                           // truncated header
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x08
	f.Add(flipped)
	// A full snapshot container where a delta is expected.
	var full bytes.Buffer
	if err := Save(&full, &fakeState{tag: 1, value: 7}); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st := &counterState{tag: 1, value: -1}
		d, _, err := NewContainerDecoder(bytes.NewReader(data), DeltaMagic, "delta snapshot")
		var link ChainLink
		if err == nil {
			link, err = readChainHeader(d)
		}
		if err == nil && link.Base == want.Base {
			_, err = restoreDelta(d, link, want, st)
		}
		if err != nil || link.Base != want.Base {
			// Rejected (or set aside as an orphan): the state is untouched.
			if st.value != -1 {
				t.Fatalf("rejected delta mutated state to %d", st.value)
			}
			return
		}
		if link != want {
			t.Fatalf("delta with link %+v accepted, want %+v", link, want)
		}
	})
}

// FuzzSnapshotRoundTrip drives the encoder with fuzz-chosen values and
// asserts decode returns them exactly.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint64(5), int64(-3), "x", true)
	f.Add(uint64(0), int64(1<<62), "", false)
	f.Fuzz(func(t *testing.T, a uint64, b int64, s string, c bool) {
		e := NewEncoder()
		e.Begin(11)
		e.U64(a)
		e.I64(b)
		e.String(s)
		Put(e, Scalar("c", &c))
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		d, err := NewDecoder(&buf)
		if err != nil {
			t.Fatalf("valid snapshot rejected: %v", err)
		}
		d.Begin(11)
		if got := d.U64(); got != a {
			t.Errorf("U64 = %d, want %d", got, a)
		}
		if got := d.I64(); got != b {
			t.Errorf("I64 = %d, want %d", got, b)
		}
		if got := d.String(); got != s {
			t.Errorf("String = %q, want %q", got, s)
		}
		var got bool
		if err := Read(d, "fuzz", Scalar("c", &got)); err != nil || got != c {
			t.Errorf("bool = %v (%v), want %v", got, err, c)
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
	})
}
