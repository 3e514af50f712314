package harness

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/snapshot"
)

// FuzzLoadPastTheCRC edits payload words of every registered algorithm's
// valid full container and re-seals the CRC, so that the edit reaches the
// algorithm's loader instead of dying at the container check, then loads the
// result into a fresh instance at a fuzzed shape. The load must reject, or
// leave an instance that re-saves without error. edits is read in chunks of
// 10 bytes: a little-endian uint16 word index (its top bit set: assign the
// value, clear: add it) and a little-endian uint64 value.
func FuzzLoadPastTheCRC(f *testing.F) {
	names := AlgorithmNames()
	valid := make([][]byte, len(names))
	opts := make([]Options, len(names))
	for i, name := range names {
		live, opt := pinned(f, name, 1)
		var buf bytes.Buffer
		if err := snapshot.Save(&buf, live); err != nil {
			f.Fatal(err)
		}
		valid[i], opts[i] = buf.Bytes(), opt
		f.Add(uint8(i), uint8(7), []byte{})
		f.Add(uint8(i), uint8(15), []byte{4, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, algoByte, vpmByte uint8, edits []byte) {
		i := int(algoByte) % len(names)
		data := append([]byte(nil), valid[i]...)
		payload := data[24 : len(data)-8] // past magic, version and length; before the CRC
		for ; len(edits) >= 10; edits = edits[10:] {
			at := binary.LittleEndian.Uint16(edits)
			w := payload[8*(int(at&0x7fff)%(len(payload)/8)):]
			x := binary.LittleEndian.Uint64(edits[2:])
			if at&0x8000 == 0 {
				x += binary.LittleEndian.Uint64(w)
			}
			binary.LittleEndian.PutUint64(w, x)
		}
		binary.LittleEndian.PutUint64(data[len(data)-8:], uint64(crc32.Checksum(data[:len(data)-8], castagnoli)))

		algo, err := GetAlgorithm(names[i])
		if err != nil {
			t.Fatal(err)
		}
		opt := opts[i]
		opt.VerticesPerMachine = 1 + int(vpmByte)%opt.N
		inst, err := algo.New(opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := snapshot.Load(bytes.NewReader(data), inst); err != nil {
			return // rejected: fine, as long as it did not panic
		}
		var out bytes.Buffer
		if err := snapshot.Save(&out, inst); err != nil {
			t.Fatalf("%s: a loaded instance cannot re-save: %v", names[i], err)
		}
	})
}
