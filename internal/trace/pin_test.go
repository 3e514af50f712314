package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"testing"
)

// TestTraceBytesPinned fails when a byte of a trace file moves: a multi-segment,
// weighted trace written from a fixed stream must keep its SHA-256. A layout
// change bumps Version or takes a new section tag; a refactor of the writer
// changes no byte.
func TestTraceBytesPinned(t *testing.T) {
	raw := writeTrace(t, mkBatches(12, 10), WriterOptions{SegmentBatches: 4})
	const want = "d1bd8ba78d0ffcf224268218a4acb3b7f1ab795fe9d91e94075043d4d254af10"
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want {
		t.Errorf("trace digest %s, pinned %s", got, want)
	}
}

// traceContainers returns the byte extents [lo, hi) of every container of a
// valid trace — its segments in order, then the footer — read off its footer
// index and trailer.
func traceContainers(t testing.TB, raw []byte) [][2]int {
	t.Helper()
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]int
	for _, s := range r.index {
		out = append(out, [2]int{int(s.off), int(s.off + s.length)})
	}
	footerOff := int(binary.LittleEndian.Uint64(raw[len(raw)-trailerBytes:]))
	return append(out, [2]int{footerOff, len(raw) - trailerBytes})
}

// reseal rewrites the trailing CRC word of the container at raw[lo:hi].
func reseal(raw []byte, lo, hi int) {
	crc := crc32.Checksum(raw[lo:hi-8], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint64(raw[hi-8:], uint64(crc))
}

// TestTraceRejectsIndexExtentOverflow gives the first footer index entry
// length MaxInt64, re-sealing the footer's CRC so the index reaches the
// extent check: off+length overflows, and a reader that summed the two
// would size a segment read from it.
func TestTraceRejectsIndexExtentOverflow(t *testing.T) {
	raw := corruptible(t)
	ext := traceContainers(t, raw)
	footer := ext[len(ext)-1]
	// The index is the footer's last section: 4 words per segment, ending
	// at the CRC word. Word 1 of the first entry is its length.
	at := footer[1] - 8 - 8*4*(len(ext)-1) + 8
	binary.LittleEndian.PutUint64(raw[at:], math.MaxInt64)
	reseal(raw, footer[0], footer[1])
	if err := readAll(raw); err == nil {
		t.Fatal("a footer index entry of length MaxInt64 replayed cleanly")
	}
}

// FuzzTracePastTheCRC edits payload words of a valid multi-segment, weighted
// trace — footer and segments alike — and re-seals every container's CRC,
// so the edits reach the footer and segment checks instead of dying at the
// container check. The reader must reject, or replay exactly the batch count
// its footer declares, and never panic. edits is read in chunks of 10 bytes,
// as in harness.FuzzLoadPastTheCRC: a little-endian uint16 index into the
// payload words of every container, segments first (its top bit set: assign
// the value, clear: add it), and a little-endian uint64 value.
func FuzzTracePastTheCRC(f *testing.F) {
	valid := corruptible(f)
	ext := traceContainers(f, valid)
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, edits []byte) {
		raw := append([]byte(nil), valid...)
		var words [][]byte // every payload word: past magic, version and length, before the CRC
		for _, c := range ext {
			for w := c[0] + 24; w < c[1]-8; w += 8 {
				words = append(words, raw[w:w+8])
			}
		}
		for ; len(edits) >= 10; edits = edits[10:] {
			at := binary.LittleEndian.Uint16(edits)
			w := words[int(at&0x7fff)%len(words)]
			x := binary.LittleEndian.Uint64(edits[2:])
			if at&0x8000 == 0 {
				x += binary.LittleEndian.Uint64(w)
			}
			binary.LittleEndian.PutUint64(w, x)
		}
		for _, c := range ext {
			reseal(raw, c[0], c[1])
		}
		r, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			return
		}
		got := 0
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return
			}
			got++
		}
		if got != r.Shape().Batches {
			t.Fatalf("clean replay yielded %d batches, footer declares %d", got, r.Shape().Batches)
		}
	})
}
