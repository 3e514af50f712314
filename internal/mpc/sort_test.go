package mpc

import (
	"sort"
	"testing"
)

// runSort distributes keys round-robin, sorts, and returns the
// concatenation in machine order plus the stats.
func runSort(t *testing.T, machines, mem int, keys []uint64) ([]uint64, Stats) {
	t.Helper()
	c := NewCluster(Config{Machines: machines, LocalMemory: mem})
	shards := make([][]uint64, machines)
	for i, k := range keys {
		shards[i%machines] = append(shards[i%machines], k)
	}
	var result [][]uint64 = make([][]uint64, machines)
	c.SortByKey(
		func(m *Machine) []uint64 { return shards[m.ID] },
		func(m *Machine, ks []uint64) { result[m.ID] = ks },
		1,
	)
	var out []uint64
	for _, ks := range result {
		out = append(out, ks...)
	}
	return out, c.Stats()
}

func TestSortByKeyGlobalOrder(t *testing.T) {
	keys := []uint64{}
	for i := 0; i < 200; i++ {
		keys = append(keys, uint64((i*7919)%1000))
	}
	got, st := runSort(t, 8, 400, keys)
	if len(got) != len(keys) {
		t.Fatalf("lost items: %d of %d", len(got), len(keys))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("concatenated machine outputs not globally sorted")
	}
	want := append([]uint64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: got %d want %d", i, got[i], want[i])
		}
	}
	if st.Rounds != 3 {
		t.Errorf("sort took %d rounds, want 3 (sample, splitters, route)", st.Rounds)
	}
}

func TestSortByKeyEmpty(t *testing.T) {
	got, _ := runSort(t, 4, 100, nil)
	if len(got) != 0 {
		t.Errorf("sorted nothing into %v", got)
	}
}

func TestSortByKeyDuplicates(t *testing.T) {
	keys := make([]uint64, 50)
	for i := range keys {
		keys[i] = uint64(i % 3)
	}
	got, _ := runSort(t, 4, 200, keys)
	counts := map[uint64]int{}
	for _, k := range got {
		counts[k]++
	}
	for v := uint64(0); v < 3; v++ {
		want := 0
		for i := 0; i < 50; i++ {
			if uint64(i%3) == v {
				want++
			}
		}
		if counts[v] != want {
			t.Errorf("key %d: count %d, want %d", v, counts[v], want)
		}
	}
}

func TestSortByKeySingleMachine(t *testing.T) {
	got, _ := runSort(t, 1, 100, []uint64{5, 1, 3})
	if len(got) != 3 || got[0] != 1 || got[2] != 5 {
		t.Errorf("got %v", got)
	}
}

func TestSortByKeyBalancedLoad(t *testing.T) {
	// With uniform keys the sampling splitters must spread the output; no
	// machine should receive more than ~4x the average.
	keys := make([]uint64, 512)
	for i := range keys {
		keys[i] = uint64((i * 2654435761) % (1 << 30))
	}
	c := NewCluster(Config{Machines: 8, LocalMemory: 1024})
	shards := make([][]uint64, 8)
	for i, k := range keys {
		shards[i%8] = append(shards[i%8], k)
	}
	sizes := make([]int, 8)
	c.SortByKey(
		func(m *Machine) []uint64 { return shards[m.ID] },
		func(m *Machine, ks []uint64) { sizes[m.ID] = len(ks) },
		1,
	)
	avg := len(keys) / 8
	for id, s := range sizes {
		if s > 4*avg {
			t.Errorf("machine %d received %d items (avg %d)", id, s, avg)
		}
	}
	if v := c.Stats().Violations; len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
}
