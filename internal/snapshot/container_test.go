package snapshot

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// runState checkpoints one length-prefixed run of words under one tag.
type runState struct{ run []uint64 }

func (s *runState) Checkpoint(e *Encoder) {
	e.Begin(5)
	e.Int(len(s.run))
	e.Grow(len(s.run))
	e.Words(s.run)
}

func (s *runState) Restore(d *Decoder) error {
	d.Begin(5)
	s.run = append(s.run[:0], d.U64s()...)
	return d.Err()
}

// runOf returns a run of n distinct words.
func runOf(n int) []uint64 {
	run := make([]uint64, n)
	for i := range run {
		run[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	return run
}

// runContainer is the container of runOf(n).
func runContainer(tb testing.TB, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, &runState{run: runOf(n)}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// containerBytes is the size of runOf(n)'s container: header, the section's
// length, tag and count words, the run, the CRC word.
func containerBytes(n int) int { return 8 * (headerWords + 3 + n) }

// BenchmarkContainerRoundTrip saves a 1 Mi-word run into a bytes.Buffer and
// decodes it back: the container passes through memory once each way, so
// an op allocates the encoder's payload, the buffer, the decoder's payload
// and a chunk on each side — about three times the container's bytes.
func BenchmarkContainerRoundTrip(b *testing.B) {
	st := &runState{run: runOf(1 << 20)}
	b.ReportAllocs()
	b.SetBytes(int64(containerBytes(1 << 20)))
	for b.Loop() {
		roundTrip(b, st)
	}
}

// roundTrip saves st into a bytes.Buffer and decodes the buffer.
func roundTrip(tb testing.TB, st *runState) {
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		tb.Fatal(err)
	}
	if _, err := NewDecoder(&buf); err != nil {
		tb.Fatal(err)
	}
}

// TestRoundTripAllocatesThreeImages pins the one-pass claim: a round trip
// allocates no whole-container byte slice beyond the buffer it is written
// to, so at most 3.2 times the container's bytes.
func TestRoundTripAllocatesThreeImages(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector doubles the growth allocations")
	}
	st := &runState{run: runOf(1 << 20)}
	roundTrip(t, st) // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	roundTrip(t, st)
	runtime.ReadMemStats(&after)
	size := float64(containerBytes(1 << 20))
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 3.2*size {
		t.Fatalf("round trip allocates %.0f B, %.2f times the %.0f B container; want <= 3.2",
			got, got/size, size)
	}
}

// TestLoadFromFileAtOffset loads a container that starts past a file's
// first byte: the size is the file's minus the offset.
func TestLoadFromFileAtOffset(t *testing.T) {
	data := runContainer(t, 3*chunkBytes/8+5)
	path := filepath.Join(t.TempDir(), "offset.snap")
	if err := os.WriteFile(path, append([]byte("prefix:!"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(8, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if size, ok := streamSize(f); !ok || size != int64(len(data)) {
		t.Fatalf("streamSize = %d, %v; want %d, true", size, ok, len(data))
	}
	got := &runState{}
	if err := Load(f, got); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.run, runOf(3*chunkBytes/8+5)) {
		t.Fatalf("loaded a run of %d words, not the one saved", len(got.run))
	}
}

// TestLoadFromPipe loads a container from a pipe, which is no regular file
// and so reports no size: the decoder reads it whole first.
func TestLoadFromPipe(t *testing.T) {
	data := runContainer(t, 2*chunkBytes/8)
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	if _, ok := streamSize(pr); ok {
		t.Fatal("a pipe reports a size")
	}
	go func() {
		pw.Write(data)
		pw.Close()
	}()
	got := &runState{}
	if err := Load(pr, got); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.run, runOf(2*chunkBytes/8)) {
		t.Fatalf("loaded a run of %d words, not the one saved", len(got.run))
	}
}

// TestFileCutAfterHeader loads a file that holds a header declaring 1 Mi
// payload words and nothing after it: the length check rejects it before
// any payload is allocated from the declared count.
func TestFileCutAfterHeader(t *testing.T) {
	data := runContainer(t, 1<<20)[:8*headerWords]
	path := filepath.Join(t.TempDir(), "cut.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = NewDecoder(f)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated payload: header declares 1048579 words, file carries 0") {
		t.Fatalf("err = %v, want the truncated payload diagnostic", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
		t.Fatalf("rejecting a cut file allocated %d B", got)
	}
}

// TestMemStoreOpenReportsLen: an open MemStore container keeps its length,
// so a chain restoring from memory presizes its payload too.
func TestMemStoreOpenReportsLen(t *testing.T) {
	m := NewMemStore()
	data := runContainer(t, 100)
	if err := m.Put("c", func(w io.Writer) error { _, err := w.Write(data); return err }); err != nil {
		t.Fatal(err)
	}
	rc, err := m.Open("c")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if size, ok := streamSize(rc); !ok || size != int64(len(data)) {
		t.Fatalf("streamSize = %d, %v; want %d, true", size, ok, len(data))
	}
}

// countingWriter counts the Write calls it takes. It has no Grow, so the
// encoder sees a plain writer.
type countingWriter struct {
	writes int
	buf    bytes.Buffer
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.buf.Write(p)
}

func (c *countingWriter) Len() int { return c.buf.Len() }

// TestWriteContainerChunks pins the write side: a container of at most one
// chunk plus its CRC word is one Write, a larger one a Write per chunk, and
// either way it reads back.
func TestWriteContainerChunks(t *testing.T) {
	for _, tc := range []struct{ words, writes int }{
		{1, 1},
		{chunkBytes/8 - headerWords - 3, 1}, // exactly one chunk
		{chunkBytes/8 - headerWords - 2, 1}, // one full chunk and the CRC word
		{chunkBytes/8 - headerWords - 1, 2},
		{3*chunkBytes/8 + 7, 4},
	} {
		var w countingWriter
		if err := Save(&w, &runState{run: runOf(tc.words)}); err != nil {
			t.Fatal(err)
		}
		if w.writes != tc.writes || w.Len() != containerBytes(tc.words) {
			t.Errorf("%d-word run: %d writes of %d B, want %d of %d B",
				tc.words, w.writes, w.Len(), tc.writes, containerBytes(tc.words))
		}
		got := &runState{}
		if err := Load(&w.buf, got); err != nil || !slices.Equal(got.run, runOf(tc.words)) {
			t.Errorf("%d-word run does not read back: %v", tc.words, err)
		}
	}
}

// TestWriteContainerGrowsBufferOnce: a bytes.Buffer destination is grown to
// the container's size before the first chunk and never again (written
// chunk by chunk, it would end at twice the second chunk's capacity). The
// container is a whole number of pages, which the allocator does not round
// up.
func TestWriteContainerGrowsBufferOnce(t *testing.T) {
	const size = 3 * chunkBytes
	var buf bytes.Buffer
	if err := Save(&buf, &runState{run: runOf(size/8 - headerWords - 3)}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != size || cap(buf.Bytes()) != size {
		t.Fatalf("buffer holds %d B with capacity %d, want %d and %d", buf.Len(), cap(buf.Bytes()), size, size)
	}
}
