package snapshot

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/mpc"
)

// Image declares one state's full image on one fleet: its sections, each a
// sequence of parts in the order they are written. Encode and Load run every
// part from the declaration; the state keeps only its cross-row checks
// (Check), what its install changes on each machine (Staged) and the install.
type Image struct {
	// Pkg names the state in diagnostics.
	Pkg string
	// Cluster is the fleet the image is placed on: Load cap-checks every
	// machine of it before the install. Nil for an image that only echoes.
	Cluster  *mpc.Cluster
	Sections []Section
	// Check runs the cross-row checks on the decoded parts.
	Check func() error
	// Staged returns what store slot will hold on machine m once the image is
	// installed, or nil where the install leaves the slot's size as it is.
	Staged func(m int, slot string) mpc.Sized
	// Install places what the parts do not under the instance's placement.
	// It runs after every check and cannot fail. Then every part commits, in
	// the order written — so the Stats land after the install's own metering.
	Install func()
	// Then are states on fleets of their own, written after the sections and
	// loaded, in order, once the image is installed.
	Then []State
}

// Section is one tagged section of an image.
type Section struct {
	Tag   uint64
	Parts []Part
}

// Part is one run of words of a section: a scalar or echo, the cluster
// stats, a bitmap, a column or a table.
type Part interface {
	put(e *Encoder)
	// get decodes and validates the part; an error names the part and, for
	// rows, the row.
	get(d *Decoder, pkg string) error
	// commit installs what get staged, after the state's own install.
	commit()
}

// Encode writes the image's sections.
func (img *Image) Encode(e *Encoder) {
	for _, s := range img.Sections {
		e.Begin(s.Tag)
		Put(e, s.Parts...)
	}
	for _, st := range img.Then {
		st.Checkpoint(e)
	}
}

// Checkpoint is Encode and Restore is Load: an image is a State of its own,
// so one declared over rows a state computed rather than read off its
// machines is saved like the state and loaded into the state's own image.
func (img *Image) Checkpoint(e *Encoder) { img.Encode(e) }

// Restore is Load.
func (img *Image) Restore(d *Decoder) error { return img.Load(d) }

// Load decodes and validates every section, runs the state's cross-row
// checks, rejects the image if a machine of the fleet could not hold what
// the install leaves on it, and only then installs and commits, so a
// rejection leaves the instance untouched; then it loads the Then states.
func (img *Image) Load(d *Decoder) error {
	for _, s := range img.Sections {
		d.Begin(s.Tag)
		if err := Get(d, img.Pkg, s.Parts...); err != nil {
			return err
		}
	}
	if img.Check != nil {
		if err := img.Check(); err != nil {
			return err
		}
	}
	if err := img.fits(); err != nil {
		return err
	}
	if img.Install != nil {
		img.Install()
	}
	for _, s := range img.Sections {
		for _, p := range s.Parts {
			p.commit()
		}
	}
	for _, st := range img.Then {
		if err := st.Restore(d); err != nil {
			return err
		}
	}
	return nil
}

// fits tallies, per machine of the fleet, the words its store will hold once
// the image is installed — the Words of every slot, as the live meter sums
// them (mpc.Machine.StateWords), with the staged value standing in for the
// slot it replaces — against the per-machine budget.
func (img *Image) fits() error {
	cl := img.Cluster
	if cl == nil {
		return nil
	}
	for m := range cl.Machines() {
		words := 0
		for slot, v := range cl.Machine(m).Store {
			if img.Staged != nil {
				if s := img.Staged(m, slot); s != nil {
					v = s
				}
			}
			words += v.Words()
		}
		if words > cl.LocalMemory() {
			return fmt.Errorf("%s: load onto %d machines rejected: machine %d needs %d words but the per-machine s-words budget is %d — the budget cannot hold the state",
				img.Pkg, cl.Machines(), m, words, cl.LocalMemory())
		}
	}
	return nil
}

// Put writes parts into the open section; a delta reuses the parts a full
// image declares.
func Put(e *Encoder, parts ...Part) {
	for _, p := range parts {
		p.put(e)
	}
}

// Get reads and validates parts from the open section. Nothing is
// committed: a scalar's value is its Val, a bitmap's its Words.
func Get(d *Decoder, pkg string, parts ...Part) error {
	for _, p := range parts {
		if err := p.get(d, pkg); err != nil {
			return err
		}
	}
	return d.Err()
}

// Read is Get, then every part committed: for parts read outside an Image,
// in the middle of a section whose other words keep their own format.
func Read(d *Decoder, pkg string, parts ...Part) error {
	if err := Get(d, pkg, parts...); err != nil {
		return err
	}
	for _, p := range parts {
		p.commit()
	}
	return nil
}

// Word is a Go type a scalar word holds.
type Word interface {
	int | int64 | uint64 | bool | float64
}

func toWord[T Word](v T) uint64 {
	switch x := any(v).(type) {
	case int:
		return uint64(int64(x))
	case int64:
		return uint64(x)
	case uint64:
		return x
	case float64:
		return math.Float64bits(x)
	case bool:
		if x {
			return 1
		}
	}
	return 0
}

// fromWord is toWord's inverse; ok is false for a non-boolean word read as a
// bool.
func fromWord[T Word](w uint64) (v T, ok bool) {
	switch p := any(&v).(type) {
	case *int:
		*p = int(int64(w))
	case *int64:
		*p = int64(w)
	case *uint64:
		*p = w
	case *float64:
		*p = math.Float64frombits(w)
	case *bool:
		*p = w == 1
		return v, w <= 1
	}
	return v, true
}

// Var is a scalar of the image: written from *Ptr; a load stages it in Val,
// where the state's checks read it, and commits it to *Ptr. An echo has no
// Ptr: its Val is written, and a load must read it back.
type Var[T Word] struct {
	Name string
	Ptr  *T
	Val  T
}

// Scalar declares the scalar *p.
func Scalar[T Word](name string, p *T) *Var[T] { return &Var[T]{Name: name, Ptr: p} }

// Echo declares a configuration value the image repeats: written from the
// instance, and on load compared with the instance's.
func Echo[T Word](name string, v T) Part { return &Var[T]{Name: name, Val: v} }

func (p *Var[T]) put(e *Encoder) {
	if p.Ptr != nil {
		p.Val = *p.Ptr
	}
	e.U64(toWord(p.Val))
}

func (p *Var[T]) get(d *Decoder, pkg string) error {
	w := d.U64()
	v, ok := fromWord[T](w)
	switch {
	case p.Ptr == nil && w != toWord(p.Val) && d.Err() == nil:
		return fmt.Errorf("%s: snapshot of %s=%v restored into %s=%v", pkg, p.Name, v, p.Name, p.Val)
	case !ok:
		return fmt.Errorf("%s: snapshot %s is the non-boolean word %d", pkg, p.Name, w)
	case p.Ptr != nil:
		p.Val = v
	}
	return nil
}

func (p *Var[T]) commit() {
	if p.Ptr != nil {
		*p.Ptr = p.Val
	}
}

type stats struct {
	cl *mpc.Cluster
	st mpc.Stats
}

// Stats is the fleet's execution metrics — the counters in mpc.Stats field
// order, then the violation count and the messages the cluster kept of them
// (the first keptViolations) — installed verbatim, so a loaded instance's
// Stats are the checkpoint's and a resumed run's Stats are bit-identical to
// an uninterrupted one's. A part with as many messages as violations is the
// count-prefixed string list it was before the count was split off.
func Stats(cl *mpc.Cluster) Part { return &stats{cl: cl} }

func (p *stats) put(e *Encoder) {
	st := p.cl.Stats()
	e.Int(st.Rounds)
	e.I64(st.Messages)
	e.I64(st.WordsSent)
	e.Int(st.MaxRecvWords)
	e.Int(st.MaxSendWords)
	e.Int(st.PeakMachineWords)
	e.Int(st.PeakTotalWords)
	e.Int(st.ViolationCount)
	for _, v := range st.Violations {
		e.String(v)
	}
}

func (p *stats) get(d *Decoder, _ string) error {
	p.st = mpc.Stats{Rounds: d.Int(), Messages: d.I64(), WordsSent: d.I64(),
		MaxRecvWords: d.Int(), MaxSendWords: d.Int(), PeakMachineWords: d.Int(), PeakTotalWords: d.Int()}
	p.st.ViolationCount = d.Int()
	if p.st.ViolationCount < 0 {
		d.fail("section %#x: %d violations", d.tag, p.st.ViolationCount)
	}
	for n := min(p.st.ViolationCount, keptViolations); n > 0 && d.Err() == nil; n-- {
		p.st.Violations = append(p.st.Violations, d.String())
	}
	return nil
}

// keptViolations is how many violation messages an mpc.Cluster keeps.
const keptViolations = 16

func (p *stats) commit() { p.cl.RestoreStats(p.st) }

// Bitmap is a set of the vertices [0, N): ⌈N/64⌉ words with no length
// prefix (the echo fixes N), vertex v at bit v%64 of word v/64. A bit past
// N-1 is rejected. The state installs the set itself (Each).
type Bitmap struct {
	Name string
	N    int
	Has  func(v int) bool // the live set, for Encode
	// Words is the decoded set, aliasing the decoder's buffer.
	Words []uint64
}

func (b *Bitmap) put(e *Encoder) {
	words := make([]uint64, (b.N+63)/64)
	for v := range b.N {
		if b.Has(v) {
			words[v/64] |= 1 << (v % 64)
		}
	}
	e.Words(words)
}

func (b *Bitmap) get(d *Decoder, pkg string) error {
	b.Words = d.words((b.N + 63) / 64)
	if tail := b.N % 64; d.Err() == nil && tail != 0 && b.Words[len(b.Words)-1]>>tail != 0 {
		v := 64*(len(b.Words)-1) + tail + bits.TrailingZeros64(b.Words[len(b.Words)-1]>>tail)
		return fmt.Errorf("%s: snapshot %s names a vertex past %d (row %d)", pkg, b.Name, b.N-1, v)
	}
	return nil
}

func (*Bitmap) commit() {}

// Each calls fn for every vertex of the decoded set, in increasing order.
func (b *Bitmap) Each(fn func(v int)) {
	for i, w := range b.Words {
		for ; w != 0; w &= w - 1 {
			fn(64*i + bits.TrailingZeros64(w))
		}
	}
}

// Field is the rule one word of a row keeps: a value in [Lo, Hi) read as a
// signed integer (Lo == Hi: any word) and, when Above, strictly above the
// word before it in the row.
type Field struct {
	Name   string
	Lo, Hi int
	Above  bool
}

// Layout is the shape of a run of rows: Width words each, the leading ones
// keeping Fields, the first Key of them strictly increasing from row to row
// as unsigned words (the order Order names; a key's fields keep [0, n)),
// and the words after the Fields passing Rest, when it is set.
type Layout struct {
	Width  int
	Fields []Field
	Key    int
	Order  string
	Rest   func(words []uint64) error
}

// check validates run, whole rows of l.Width words, and reports the first
// broken rule with the name of the run and the index of its row.
func (l *Layout) check(pkg, name string, run []uint64) error {
	fail := func(r int, format string, args ...any) error {
		return fmt.Errorf("%s: snapshot %s row %d: "+format, append([]any{pkg, name, r}, args...)...)
	}
	for r := 0; (len(l.Fields) > 0 || l.Key > 0 || l.Rest != nil) && (r+1)*l.Width <= len(run); r++ {
		row := run[r*l.Width : (r+1)*l.Width]
		for j, f := range l.Fields {
			if x := int(int64(row[j])); f.Lo != f.Hi && (x < f.Lo || x >= f.Hi) {
				return fail(r, "%s %d outside [%d, %d)", f.Name, x, f.Lo, f.Hi)
			} else if f.Above && x <= int(int64(row[j-1])) {
				return fail(r, "%s %d not above %s %d", f.Name, x, l.Fields[j-1].Name, int64(row[j-1]))
			}
		}
		if r > 0 && l.Key > 0 && slices.Compare(row[:l.Key], run[(r-1)*l.Width:(r-1)*l.Width+l.Key]) <= 0 {
			return fail(r, "key %v listed twice or out of %s order", row[:l.Key], l.Order)
		}
		if l.Rest != nil {
			if err := l.Rest(row[len(l.Fields):]); err != nil {
				return fail(r, "%v", err)
			}
		}
	}
	return nil
}

// Column is a vertex-indexed column of Width words per vertex placed over
// Part: machine m holds the rows of the vertices Part.Range(m). It is written
// as one run of N·Width words in vertex order, decoded as an alias of the
// decoder's buffer and committed by copying each machine's rows into the
// slice its source returns: Words(m), Width words per vertex, or, for a
// column of one signed word per vertex, Ints(m).
type Column struct {
	Name string
	Part mpc.Partition
	Layout
	Words func(m int) []uint64
	Ints  func(m int) []int
	run   []uint64
}

func (c *Column) put(e *Encoder) {
	e.Grow(1 + c.Part.N*c.Width)
	e.Int(c.Part.N * c.Width)
	for m := range c.Part.Machines {
		if c.Words != nil {
			e.Words(c.Words(m))
			continue
		}
		for _, x := range c.Ints(m) {
			e.Int(x)
		}
	}
}

func (c *Column) get(d *Decoder, pkg string) error {
	if c.run = d.U64s(); d.Err() == nil && len(c.run) != c.Part.N*c.Width {
		return fmt.Errorf("%s: snapshot %s run of %d words, want %d (%d rows × %d)", pkg, c.Name, len(c.run), c.Part.N*c.Width, c.Part.N, c.Width)
	}
	return c.check(pkg, c.Name, c.run)
}

func (c *Column) commit() {
	for m := range c.Part.Machines {
		lo, hi := c.Part.Range(m)
		if c.Words != nil {
			copy(c.Words(m), c.run[lo*c.Width:hi*c.Width])
			continue
		}
		for i, w := range c.run[lo:hi] {
			c.Ints(m)[i] = int(int64(w))
		}
	}
}

// Table is a count-prefixed table of rows, decoded as an alias of the
// decoder's buffer; the state places the rows by its own rule.
type Table struct {
	Name string
	Layout
	// Len and Row are the rows to encode: Row fills row r's words.
	Len int
	Row func(r int, row []uint64)
	run []uint64
}

func (t *Table) put(e *Encoder) {
	e.Grow(1 + t.Len*t.Width)
	e.Int(t.Len)
	row := make([]uint64, t.Width)
	for r := range t.Len {
		t.Row(r, row)
		e.Words(row)
	}
}

func (t *Table) get(d *Decoder, pkg string) error {
	t.run = d.words(d.Count(t.Width) * t.Width)
	return t.check(pkg, t.Name, t.run)
}

func (*Table) commit() {}

// Rows is the number of decoded rows.
func (t *Table) Rows() int { return len(t.run) / t.Width }

// At is decoded row r, aliasing the decoder's buffer.
func (t *Table) At(r int) []uint64 { return t.run[r*t.Width : (r+1)*t.Width] }
