package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/mpc"
)

// Magic identifies a snapshot file: "MPCSNAP1" read as a big-endian word.
const Magic uint64 = 0x4d5043534e415031

// Version is the current snapshot format version. See the package comment
// for the version policy.
const Version uint64 = 1

// headerWords is the container overhead: magic, version, payload length,
// and the trailing CRC word.
const headerWords = 4

// castagnoli is the CRC-32C table shared by Encoder and Decoder.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checkpointer is implemented by any state that can serialize itself into
// an encoder. Checkpoint must not mutate observable state: checkpointing a
// live run and continuing it must behave exactly like never checkpointing.
type Checkpointer interface {
	Checkpoint(e *Encoder)
}

// Restorer is the inverse: it reads the sections its Checkpoint wrote and
// overwrites the instance's state. The instance must have been constructed
// with the same configuration that produced the snapshot, except for its
// machine count: Restore validates the configuration, returning a
// descriptive error on mismatch, and installs the logical state the
// container holds under the instance's own placement.
type Restorer interface {
	Restore(d *Decoder) error
}

// Save checkpoints the given states, in order, into one snapshot written to
// w.
func Save(w io.Writer, states ...Checkpointer) error {
	_, err := encodeFull(states).WriteTo(w)
	return err
}

// encodeFull builds one full container's sections, each state's in order.
func encodeFull[S Checkpointer](states []S) *Encoder {
	e := NewEncoder()
	for _, s := range states {
		s.Checkpoint(e)
	}
	return e
}

// Load reads one snapshot from r and restores the given states in order
// (which must match the Save order). It verifies the container (magic,
// version, CRC) before any state is touched and that every section was
// consumed afterwards.
func Load(r io.Reader, states ...Restorer) error {
	d, err := NewDecoder(r)
	if err != nil {
		return err
	}
	return restoreAll(d, states)
}

// Reshard is Load: every state's one loader takes a full container written
// at any machine count (see the package comment's re-sharding notes).
var Reshard = Load

// restoreAll hands the decoder to each state in order and verifies the
// whole container was consumed.
func restoreAll[S Restorer](d *Decoder, states []S) error {
	for _, s := range states {
		if err := s.Restore(d); err != nil {
			return err
		}
	}
	return d.Finish()
}

// Encoder builds a snapshot payload section by section, straight into the
// payload buffer in the mpc.MessageBatch frame layout. All appends are
// infallible; errors surface only at WriteTo.
type Encoder struct {
	payload []uint64
	open    int // index of the open section's length word; -1 when none is open
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder {
	return &Encoder{payload: make([]uint64, 0, 256), open: -1}
}

// Begin closes the current section (if any) and opens a new one under the
// given tag: it reserves the section's length word, which the next Begin or
// WriteContainer fills in. Every value appended afterwards belongs to this
// section until then.
func (e *Encoder) Begin(tag uint64) {
	e.close()
	e.open = len(e.payload)
	e.payload = append(e.payload, 0, tag)
}

func (e *Encoder) close() {
	if e.open >= 0 {
		e.payload[e.open] = uint64(len(e.payload) - e.open - 1)
		e.open = -1
	}
}

// U64 appends one word to the current section.
func (e *Encoder) U64(x uint64) {
	if e.open < 0 {
		panic("snapshot: append outside a section (call Begin first)")
	}
	e.payload = append(e.payload, x)
}

// Int appends a signed integer (two's-complement widened).
func (e *Encoder) Int(x int) { e.U64(uint64(int64(x))) }

// I64 appends a signed 64-bit integer.
func (e *Encoder) I64(x int64) { e.U64(uint64(x)) }

// F64 appends a float64 by bit pattern.
func (e *Encoder) F64(x float64) { e.U64(math.Float64bits(x)) }

// Bool appends a boolean as one word.
func (e *Encoder) Bool(b bool) {
	if b {
		e.U64(1)
	} else {
		e.U64(0)
	}
}

// U64s appends a length-prefixed word slice.
func (e *Encoder) U64s(xs []uint64) {
	e.Int(len(xs))
	e.Words(xs)
}

// Words appends words with no length prefix: the continuation of a run whose
// total length the caller already wrote, so a run spread over several buffers
// reads back as one U64s.
func (e *Encoder) Words(xs []uint64) {
	if e.open < 0 {
		panic("snapshot: append outside a section (call Begin first)")
	}
	e.payload = append(e.payload, xs...)
}

// Ints appends a length-prefixed signed slice.
func (e *Encoder) Ints(xs []int) {
	e.Int(len(xs))
	for _, x := range xs {
		e.Int(x)
	}
}

// String appends a length-prefixed UTF-8 string packed into words.
func (e *Encoder) String(s string) {
	e.Int(len(s))
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * (i % 8))
		if i%8 == 7 || i == len(s)-1 {
			e.U64(w)
			w = 0
		}
	}
}

// WriteTo serializes the snapshot container — header, payload frames,
// CRC — to w and returns the bytes written.
func (e *Encoder) WriteTo(w io.Writer) (int64, error) {
	n, _, err := e.WriteContainer(w, Magic)
	return n, err
}

// WriteContainer serializes the encoder's sections as a container branded
// with the given magic word (version word, declared payload length, trailing
// CRC-32C) and returns the bytes written plus the container's identity: the
// CRC word, which is a deterministic function of the full container bytes
// and is what delta chains use to name their base and predecessor (see
// delta.go). Other packages reuse the container format for their own files —
// the segmented trace format of internal/trace brands its segments and
// footer this way — so every on-disk word stream in the repository shares
// one header/checksum discipline and one corruption-rejection path.
func (e *Encoder) WriteContainer(w io.Writer, magic uint64) (int64, uint64, error) {
	e.close()
	payload := e.payload
	buf := make([]byte, 8*(headerWords+len(payload)))
	binary.LittleEndian.PutUint64(buf[0:], magic)
	binary.LittleEndian.PutUint64(buf[8:], Version)
	binary.LittleEndian.PutUint64(buf[16:], uint64(len(payload)))
	for i, x := range payload {
		binary.LittleEndian.PutUint64(buf[24+8*i:], x)
	}
	crc := crc32.Checksum(buf[:len(buf)-8], castagnoli)
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], uint64(crc))
	n, err := w.Write(buf)
	return int64(n), uint64(crc), err
}

// Decoder reads a verified snapshot payload section by section. Accessors
// are sticky: the first structural error (tag mismatch, section underflow)
// latches, later reads return zero values, and Err/Finish report it.
type Decoder struct {
	frames [][]uint64
	next   int
	tag    uint64
	cur    []uint64
	off    int
	err    error
}

// NewDecoder reads the full snapshot from r and verifies the container:
// magic, format version, declared payload length, CRC, and frame structure.
// Any violation is returned as a diagnostic error before a single section
// is handed out.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d, _, err := NewContainerDecoder(r, Magic, "snapshot")
	return d, err
}

// NewContainerDecoder is NewDecoder parameterized over the expected magic
// word (kind names the expected flavor in diagnostics); it also returns the
// container identity (the verified trailing CRC word), the same value
// WriteContainer reported when the container was produced.
func NewContainerDecoder(r io.Reader, magic uint64, kind string) (*Decoder, uint64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, fmt.Errorf("snapshot: %w", err)
	}
	if len(data)%8 != 0 {
		return nil, 0, fmt.Errorf("snapshot: truncated file: %d bytes is not a whole number of words", len(data))
	}
	words := make([]uint64, len(data)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	if len(words) < headerWords {
		return nil, 0, fmt.Errorf("snapshot: truncated header: %d words, want at least %d", len(words), headerWords)
	}
	if words[0] != magic {
		// A well-formed container of the other flavor gets a pointed
		// diagnostic: mixing up base and delta files is an operator error
		// distinct from corruption.
		switch words[0] {
		case Magic:
			return nil, 0, fmt.Errorf("snapshot: full snapshot container where a %s was expected", kind)
		case DeltaMagic:
			return nil, 0, fmt.Errorf("snapshot: delta container where a %s was expected", kind)
		}
		return nil, 0, fmt.Errorf("snapshot: bad magic word %#x: not a %s file", words[0], kind)
	}
	if words[1] != Version {
		return nil, 0, fmt.Errorf("snapshot: format version %d, want %d: regenerate the checkpoint", words[1], Version)
	}
	if words[2] != uint64(len(words)-headerWords) {
		return nil, 0, fmt.Errorf("snapshot: truncated payload: header declares %d words, file carries %d",
			words[2], len(words)-headerWords)
	}
	crc := crc32.Checksum(data[:len(data)-8], castagnoli)
	if uint64(crc) != words[len(words)-1] {
		return nil, 0, fmt.Errorf("snapshot: checksum mismatch (stored %#x, computed %#x): snapshot corrupted",
			words[len(words)-1], crc)
	}
	b, err := mpc.MessageBatchFromRaw(words[3 : len(words)-1])
	if err != nil {
		return nil, 0, fmt.Errorf("snapshot: corrupt section framing: %w", err)
	}
	d := &Decoder{}
	for f := range b.Frames {
		if len(f) == 0 {
			return nil, 0, fmt.Errorf("snapshot: section %d has no tag word", len(d.frames))
		}
		d.frames = append(d.frames, f)
	}
	return d, uint64(crc), nil
}

// fail latches the first error.
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

// Err returns the first structural error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Next advances to the next section and returns its tag; ok is false when
// no sections remain (or an error has latched). The previous section must
// have been fully consumed.
func (d *Decoder) Next() (tag uint64, ok bool) {
	if d.err != nil {
		return 0, false
	}
	if d.cur != nil && d.off != len(d.cur) {
		d.fail("section %#x has %d unread words (layout skew)", d.tag, len(d.cur)-d.off)
		return 0, false
	}
	if d.next >= len(d.frames) {
		return 0, false
	}
	f := d.frames[d.next]
	d.next++
	d.tag = f[0]
	d.cur = f[1:]
	d.off = 0
	return d.tag, true
}

// Begin advances to the next section and checks its tag.
func (d *Decoder) Begin(tag uint64) {
	got, ok := d.Next()
	if !ok {
		d.fail("missing section %#x", tag)
		return
	}
	if got != tag {
		d.fail("found section %#x where %#x was expected (layout skew)", got, tag)
	}
}

// U64 reads one word of the current section.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.cur) {
		d.fail("section %#x truncated at word %d", d.tag, d.off)
		return 0
	}
	x := d.cur[d.off]
	d.off++
	return x
}

// Int reads a signed integer.
func (d *Decoder) Int() int { return int(int64(d.U64())) }

// I64 reads a signed 64-bit integer.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64 by bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a boolean and rejects non-canonical encodings.
func (d *Decoder) Bool() bool {
	switch d.U64() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("section %#x: non-boolean word at %d", d.tag, d.off-1)
		return false
	}
}

// Count reads a count prefix for a sequence whose items each occupy at
// least minWordsPerItem words, and bounds it against the words remaining in
// the current section before the caller sizes any allocation from it. A
// corrupted prefix (negative, or claiming more items than the section could
// possibly hold) latches a diagnostic and returns 0, so restore loops that
// pre-size maps/slices with make(..., n) never hand an absurd capacity to
// the allocator.
func (d *Decoder) Count(minWordsPerItem int) int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if minWordsPerItem < 1 {
		minWordsPerItem = 1
	}
	if rem := len(d.cur) - d.off; n < 0 || n > rem/minWordsPerItem {
		d.fail("section %#x: count of %d items (>= %d words each) overruns section (%d words left)",
			d.tag, n, minWordsPerItem, rem)
		return 0
	}
	return n
}

// U64s reads a length-prefixed word slice. The returned slice aliases the
// decoder's buffer and is valid for the decoder's lifetime; copy it into
// long-lived state.
func (d *Decoder) U64s() []uint64 {
	n := d.Int()
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.cur)-d.off {
		d.fail("section %#x: slice of %d words overruns section (%d left)", d.tag, n, len(d.cur)-d.off)
		return nil
	}
	xs := d.cur[d.off : d.off+n : d.off+n]
	d.off += n
	return xs
}

// Ints reads a length-prefixed signed slice (freshly allocated).
func (d *Decoder) Ints() []int {
	ws := d.U64s()
	if ws == nil {
		return nil
	}
	out := make([]int, len(ws))
	for i, w := range ws {
		out[i] = int(int64(w))
	}
	return out
}

// String reads a length-prefixed packed string.
func (d *Decoder) String() string {
	n := d.Int()
	if d.err != nil {
		return ""
	}
	// Compare against 8*remaining rather than (n+7)/8 against remaining:
	// the latter overflows for absurd claimed lengths and would panic in
	// make instead of latching a diagnostic. remaining is bounded by the
	// file size, so the multiplication cannot overflow.
	if n < 0 || n > 8*(len(d.cur)-d.off) {
		d.fail("section %#x: string of %d bytes overruns section", d.tag, n)
		return ""
	}
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			d.off++
		}
		out[i] = byte(d.cur[d.off-1] >> (8 * (i % 8)))
	}
	return string(out)
}

// Finish verifies that the whole snapshot was consumed: no latched error,
// no unread words in the last section, no trailing sections.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.cur != nil && d.off != len(d.cur) {
		return fmt.Errorf("snapshot: section %#x has %d unread words (layout skew)", d.tag, len(d.cur)-d.off)
	}
	if d.next != len(d.frames) {
		return fmt.Errorf("snapshot: %d trailing sections (layout skew)", len(d.frames)-d.next)
	}
	return nil
}

// EncodeClusterStats appends the cluster execution metrics to the current
// section; pair with DecodeClusterStats. Restoring these alongside the
// machine stores is what makes a resumed run's Stats bit-identical to an
// uninterrupted one.
func EncodeClusterStats(e *Encoder, st mpc.Stats) {
	e.Int(st.Rounds)
	e.I64(st.Messages)
	e.I64(st.WordsSent)
	e.Int(st.MaxRecvWords)
	e.Int(st.MaxSendWords)
	e.Int(st.PeakMachineWords)
	e.Int(st.PeakTotalWords)
	e.Int(len(st.Violations))
	for _, v := range st.Violations {
		e.String(v)
	}
}

// DecodeClusterStats reads the metrics written by EncodeClusterStats.
func DecodeClusterStats(d *Decoder) mpc.Stats {
	st := mpc.Stats{
		Rounds:           d.Int(),
		Messages:         d.I64(),
		WordsSent:        d.I64(),
		MaxRecvWords:     d.Int(),
		MaxSendWords:     d.Int(),
		PeakMachineWords: d.Int(),
		PeakTotalWords:   d.Int(),
	}
	n := d.Count(1)
	for i := 0; i < n && d.Err() == nil; i++ {
		st.Violations = append(st.Violations, d.String())
	}
	return st
}
