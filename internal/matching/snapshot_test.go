package matching

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/snapshot"
)

// TestLoadRejectsSketchWordPastPrime saves an AKLY instance, then edits one
// word of a pair's "sketch" column past the CRC, as FuzzLoadPastTheCRC's
// corpus entries do: adding p keeps the word's value mod p but takes it out
// of the field, where a sum can wrap at 2^64. The loader rejects it, naming
// the pair's row.
func TestLoadRejectsSketchWordPastPrime(t *testing.T) {
	const n = 16
	d, err := NewAKLYDynamic(shape(n, 5), 2)
	if err != nil {
		t.Fatal(err)
	}
	_, edges := randomInsertStream(n, 24, 6)
	var b graph.Batch
	for _, e := range edges {
		b = append(b, graph.Ins(e.U, e.V))
	}
	if err := d.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := snapshot.Save(&saved, d); err != nil {
		t.Fatal(err)
	}
	data := saved.Bytes()

	// The first pair, in the image's order, whose sketch is not zero: its
	// words are in the container once.
	sp := d.instances[0].sp
	var cells []byte
	var at string
find:
	for i := range sp.cl.Machines() {
		sh, ok := sp.cl.Machine(i).Get(slotShard).(*sparsifierShard)
		if !ok {
			continue
		}
		keys := slices.SortedFunc(maps.Keys(sh.pairs), func(a, b pairKey) int { return cmp.Or(cmp.Compare(a.i, b.i), cmp.Compare(a.j, b.j)) })
		for r, p := range keys {
			words := sh.pairs[p].sk.Cells()
			if !slices.ContainsFunc(words, func(w uint64) bool { return w != 0 }) {
				continue
			}
			for _, w := range words {
				cells = binary.LittleEndian.AppendUint64(cells, w)
			}
			at = fmt.Sprintf("snapshot machine %d pair %d sketch row 0: sketch word 0 is", i, r)
			break find
		}
	}
	off := bytes.Index(data, cells)
	if cells == nil || off < 0 || off != bytes.LastIndex(data, cells) {
		t.Fatalf("no pair sketch found in the container once (at %d)", off)
	}
	binary.LittleEndian.PutUint64(data[off:], binary.LittleEndian.Uint64(data[off:])+hash.Prime)
	binary.LittleEndian.PutUint64(data[len(data)-8:], uint64(crc32.Checksum(data[:len(data)-8], crc32.MakeTable(crc32.Castagnoli))))
	target, err := NewAKLYDynamic(shape(n, 5), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Load(bytes.NewReader(data), target); err == nil || !strings.Contains(err.Error(), at) {
		t.Fatalf("a sketch word past the prime not rejected by row (%q): %v", at, err)
	}
}
