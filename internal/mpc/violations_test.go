package mpc_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/mpc"
	"repro/internal/snapshot"
)

// TestViolationsKeepACount breaks a machine's memory cap in every one of
// 1,000 rounds: the count reads 1,000, the first 16 messages are kept, and a
// checkpoint of the Stats is no longer after 1,000 violations than after 16
// and loads back to the same Stats.
func TestViolationsKeepACount(t *testing.T) {
	c := mpc.NewCluster(mpc.Config{Machines: 2, LocalMemory: 2})
	save := func(c *mpc.Cluster) *bytes.Buffer {
		e := snapshot.NewEncoder()
		e.Begin(1)
		snapshot.Put(e, snapshot.Stats(c))
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	var at16 int
	for round := 1; round <= 1000; round++ {
		c.Step(func(m *mpc.Machine, _ []mpc.Message) []mpc.Message {
			if m.ID == 0 {
				m.Set("big", mpc.U64s{1, 2, 3})
			}
			return nil
		})
		if round == 16 {
			at16 = save(c).Len()
		}
	}
	st := c.Stats()
	if want := "machine 0 stores 3 words (cap 2)"; st.ViolationCount != 1000 || len(st.Violations) != 16 || st.Violations[15] != want {
		t.Fatalf("%d violations, %d kept (%q); want 1000, 16 of %q", st.ViolationCount, len(st.Violations), st.Violations, want)
	}
	buf := save(c)
	if buf.Len() != at16 {
		t.Errorf("the Stats checkpoint holds %d bytes after 1,000 violations, %d after 16", buf.Len(), at16)
	}
	d, err := snapshot.NewDecoder(buf)
	if err != nil {
		t.Fatal(err)
	}
	d.Begin(1)
	loaded := mpc.NewCluster(mpc.Config{Machines: 2, LocalMemory: 2})
	if err := snapshot.Read(d, "stats", snapshot.Stats(loaded)); err != nil {
		t.Fatal(err)
	}
	if got := loaded.Stats(); !reflect.DeepEqual(got, st) {
		t.Errorf("loaded Stats %+v, want %+v", got, st)
	}
}
