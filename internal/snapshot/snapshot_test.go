package snapshot

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/mpc"
)

// roundTrip encodes a representative mix of values and returns the bytes.
func encodeSample(t *testing.T) []byte {
	t.Helper()
	e := NewEncoder()
	e.Begin(7)
	e.U64(42)
	e.Int(-17)
	e.I64(-1 << 40)
	Put(e, Echo("phi", 0.625), Echo("yes", true), Echo("no", false))
	e.Int(3)
	e.Words([]uint64{1, 2, 3})
	e.String("hello, snapshot")
	e.Begin(9)
	e.String("") // empty string edge case
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	data := encodeSample(t)
	d, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	d.Begin(7)
	if got := d.U64(); got != 42 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.Int(); got != -17 {
		t.Errorf("Int = %d", got)
	}
	if got := d.I64(); got != -1<<40 {
		t.Errorf("I64 = %d", got)
	}
	phi, yes, no := 0.0, false, true
	if err := Read(d, "sample", Scalar("phi", &phi), Scalar("yes", &yes), Scalar("no", &no)); err != nil || phi != 0.625 || !yes || no {
		t.Errorf("scalars = %v, %v, %v (%v), want 0.625, true, false", phi, yes, no, err)
	}
	if got := d.U64s(); len(got) != 3 || got[2] != 3 {
		t.Errorf("U64s = %v", got)
	}
	if got := d.String(); got != "hello, snapshot" {
		t.Errorf("String = %q", got)
	}
	d.Begin(9)
	if got := d.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderRejectsBadMagic(t *testing.T) {
	data := encodeSample(t)
	data[0] ^= 0xff
	if _, err := NewDecoder(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic accepted: %v", err)
	}
}

func TestDecoderRejectsVersionSkew(t *testing.T) {
	data := encodeSample(t)
	binary.LittleEndian.PutUint64(data[8:], Version+1)
	if _, err := NewDecoder(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew accepted: %v", err)
	}
}

func TestDecoderRejectsTruncation(t *testing.T) {
	data := encodeSample(t)
	for _, cut := range []int{len(data) - 8, len(data) - 3, 24, 8, 0} {
		if _, err := NewDecoder(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestDecoderRejectsBitFlips(t *testing.T) {
	data := encodeSample(t)
	// Flip one bit in every byte position in turn: the CRC (or, for header
	// bytes, the structural checks) must reject every single one.
	for i := range data {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 1 << uint(i%8)
		if _, err := NewDecoder(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
}

func TestDecoderSectionSkew(t *testing.T) {
	data := encodeSample(t)
	d, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	d.Begin(8) // wrong tag
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "section") {
		t.Fatalf("tag mismatch not detected: %v", d.Err())
	}
}

func TestDecoderUnderflowSticky(t *testing.T) {
	e := NewEncoder()
	e.Begin(1)
	e.U64(5)
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d.Begin(1)
	_ = d.U64()
	_ = d.U64() // underflow
	if d.Err() == nil {
		t.Fatal("underflow not detected")
	}
	if got := d.U64(); got != 0 {
		t.Errorf("read after latched error = %d, want 0", got)
	}
	if err := d.Finish(); err == nil {
		t.Error("Finish ignored the latched error")
	}
}

// TestStringHugeLengthRejected pins the overflow-safe bounds check: a
// section whose string length word claims a near-MaxInt64 byte count must
// latch a diagnostic error, not panic inside make.
func TestStringHugeLengthRejected(t *testing.T) {
	e := NewEncoder()
	e.Begin(1)
	e.U64(uint64(1<<63 - 3)) // read back as the String length prefix
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d.Begin(1)
	if got := d.String(); got != "" {
		t.Errorf("String = %q, want empty", got)
	}
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "overruns") {
		t.Fatalf("huge string length not rejected: %v", d.Err())
	}
}

func TestFinishRejectsUnreadSections(t *testing.T) {
	data := encodeSample(t)
	d, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing sections not detected: %v", err)
	}
}

func TestClusterStatsRoundTrip(t *testing.T) {
	want := mpc.Stats{
		Rounds:           12,
		Messages:         345,
		WordsSent:        6789,
		MaxRecvWords:     10,
		MaxSendWords:     11,
		PeakMachineWords: 12,
		PeakTotalWords:   13,
		ViolationCount:   1,
		Violations:       []string{"machine 3 sent 99 words in one round (cap 10)"},
	}
	cluster := func() *mpc.Cluster { return mpc.NewCluster(mpc.Config{Machines: 1, LocalMemory: 1}) }
	src := cluster()
	src.RestoreStats(want)
	e := NewEncoder()
	e.Begin(2)
	Put(e, Stats(src))
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d.Begin(2)
	dst := cluster()
	if err := Read(d, "stats", Stats(dst)); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	got := dst.Stats()
	if got.Rounds != want.Rounds || got.Messages != want.Messages ||
		got.WordsSent != want.WordsSent || got.PeakTotalWords != want.PeakTotalWords ||
		len(got.Violations) != 1 || got.Violations[0] != want.Violations[0] {
		t.Errorf("stats round trip: got %+v, want %+v", got, want)
	}
}

// pairState composes two states into one, as a state made of parts does
// (the session's meta echo, mirror and algorithm state): Save and Load take
// one state, and composing its sections is that state's own job.
type pairState struct{ a, b *fakeState }

func (p pairState) Checkpoint(e *Encoder) {
	p.a.Checkpoint(e)
	p.b.Checkpoint(e)
}

func (p pairState) Restore(d *Decoder) error {
	if err := p.a.Restore(d); err != nil {
		return err
	}
	return p.b.Restore(d)
}

// TestSaveLoadComposition pins that a composed state round-trips through one
// container, and that loading only its first part leaves a trailing section,
// which Load rejects.
func TestSaveLoadComposition(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, pairState{&fakeState{tag: 3, value: 111}, &fakeState{tag: 4, value: 222}}); err != nil {
		t.Fatal(err)
	}
	r := pairState{&fakeState{tag: 3}, &fakeState{tag: 4}}
	if err := Load(bytes.NewReader(buf.Bytes()), r); err != nil {
		t.Fatal(err)
	}
	if r.a.value != 111 || r.b.value != 222 {
		t.Errorf("composed load got (%d, %d)", r.a.value, r.b.value)
	}
	if err := Load(bytes.NewReader(buf.Bytes()), &fakeState{tag: 3}); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("a load of the first part only: %v", err)
	}
}

// TestCountBounds pins the bounded count prefix: counts the remaining
// section can hold pass through, absurd or negative counts latch a
// diagnostic and return 0 so no allocation is ever sized from them.
func TestCountBounds(t *testing.T) {
	cases := []struct {
		name  string
		count uint64
		items int // words appended after the prefix
		per   int
		want  int
		ok    bool
	}{
		{"exact", 3, 6, 2, 3, true},
		{"loose", 2, 6, 2, 2, true},
		{"zero", 0, 0, 4, 0, true},
		{"one-over", 4, 6, 2, 0, false},
		{"huge", 1 << 40, 2, 2, 0, false},
		{"negative", ^uint64(0), 2, 2, 0, false},
		{"near-maxint", 1<<63 - 1, 2, 1, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEncoder()
			e.Begin(1)
			e.U64(tc.count)
			for i := 0; i < tc.items; i++ {
				e.U64(uint64(i))
			}
			var buf bytes.Buffer
			if _, err := e.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			d, err := NewDecoder(&buf)
			if err != nil {
				t.Fatal(err)
			}
			d.Begin(1)
			got := d.Count(tc.per)
			if got != tc.want {
				t.Errorf("Count(%d) = %d, want %d", tc.per, got, tc.want)
			}
			if tc.ok && d.Err() != nil {
				t.Errorf("in-bounds count rejected: %v", d.Err())
			}
			if !tc.ok && (d.Err() == nil || !strings.Contains(d.Err().Error(), "overruns")) {
				t.Errorf("out-of-bounds count not rejected: %v", d.Err())
			}
		})
	}
}

// putFile checkpoints state into the file at path through FileStore.Put, the
// atomic write a chain makes.
func putFile(path string, state Checkpointer) error {
	return FileStore{}.Put(path, func(w io.Writer) error { return Save(w, state) })
}

// loadFile restores state from the snapshot file at path.
func loadFile(path string, state Restorer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Load(f, state)
}

// TestWriteFileAtomic checks the crash-safe file write (FileStore.Put) end to
// end: the snapshot lands complete and loadable, overwrites are atomic
// replacements of the previous file, and no temporary files are left behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/state.snap"
	for round, value := range []int{111, 222} {
		if err := putFile(path, &fakeState{tag: 3, value: value}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got := &fakeState{tag: 3}
		if err := loadFile(path, got); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.value != value {
			t.Errorf("round %d: loaded %d, want %d", round, got.value, value)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.snap" {
		t.Errorf("directory holds %v, want just state.snap (no stray temp files)", entries)
	}
	// A write into a nonexistent directory must fail up front and must not
	// create anything.
	if err := putFile(dir+"/missing/state.snap", &fakeState{tag: 3}); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}

type fakeState struct {
	tag   uint64
	value int
}

func (f *fakeState) Checkpoint(e *Encoder) {
	e.Begin(f.tag)
	e.Int(f.value)
}

func (f *fakeState) Restore(d *Decoder) error {
	d.Begin(f.tag)
	f.value = d.Int()
	return d.Err()
}
