package mpc_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mpc"
)

// sumCombine merges sorted [k, v] batches, adding values on equal keys.
func sumCombine(a, b *mpc.MessageBatch) *mpc.MessageBatch {
	return mpc.MergeSortedBatches(a, b, func(dst, src []uint64) { dst[1] += src[1] })
}

// decodeKV flattens a [k, v] frame batch into a map and releases it.
func decodeKV(b *mpc.MessageBatch) map[uint64]uint64 {
	out := map[uint64]uint64{}
	if b == nil {
		return out
	}
	for f := range b.Frames {
		out[f[0]] = f[1]
	}
	b.Release()
	return out
}

// TestAggregateBatchesSum checks the tree fold against a directly computed sum at
// several cluster shapes and parallelism levels, with overlapping key sets
// per machine.
func TestAggregateBatchesSum(t *testing.T) {
	for _, machines := range []int{1, 2, 5, 9} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("m=%d/p=%d", machines, par), func(t *testing.T) {
				cl := mpc.NewCluster(mpc.Config{Machines: machines, LocalMemory: 1 << 12, Parallelism: par})
				want := map[uint64]uint64{}
				for id := 0; id < machines; id++ {
					for k := uint64(0); k < 6; k++ {
						if (uint64(id)+k)%2 == 0 {
							want[k] += uint64(id) + 10*k
						}
					}
				}
				got := decodeKV(cl.AggregateBatches(machines-1,
					func(m *mpc.Machine) *mpc.MessageBatch {
						b := m.Batch(0)
						for k := uint64(0); k < 6; k++ {
							if (uint64(m.ID)+k)%2 == 0 {
								b.Append(k, uint64(m.ID)+10*k)
							}
						}
						return b
					}, sumCombine))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("aggregated %v, want %v", got, want)
				}
				if st := cl.Stats(); len(st.Violations) != 0 {
					t.Fatalf("violations: %v", st.Violations[0])
				}
			})
		}
	}
}

// TestAggregateBatchesEmpty covers the no-contribution and the
// single-contributor cases.
func TestAggregateBatchesEmpty(t *testing.T) {
	cl := mpc.NewCluster(mpc.Config{Machines: 4, LocalMemory: 1 << 12})
	if res := cl.AggregateBatches(0, func(m *mpc.Machine) *mpc.MessageBatch { return nil }, sumCombine); res != nil {
		t.Fatalf("empty aggregation returned %v frames", res.Len())
	}
	got := decodeKV(cl.AggregateBatches(0, func(m *mpc.Machine) *mpc.MessageBatch {
		if m.ID != 2 {
			return nil
		}
		b := m.Batch(0)
		b.Append(7, 42)
		return b
	}, sumCombine))
	if !reflect.DeepEqual(got, map[uint64]uint64{7: 42}) {
		t.Fatalf("single contributor: got %v", got)
	}
	if st := cl.Stats(); len(st.Violations) != 0 {
		t.Fatalf("violations: %v", st.Violations)
	}
}

// TestAggregateBatchesDeterministic pins the exact frame order of the final
// batch across parallelism levels: merge-joined frames must come back sorted
// by key regardless of how the tree was scheduled.
func TestAggregateBatchesDeterministic(t *testing.T) {
	run := func(par int) ([]uint64, mpc.Stats) {
		cl := mpc.NewCluster(mpc.Config{Machines: 7, LocalMemory: 1 << 12, Parallelism: par})
		res := cl.AggregateBatches(3, func(m *mpc.Machine) *mpc.MessageBatch {
			b := m.Batch(0)
			b.Append(uint64(m.ID%3), uint64(m.ID))
			b.Append(uint64(10+m.ID), 1)
			return b
		}, sumCombine)
		var flat []uint64
		for f := range res.Frames {
			flat = append(flat, f...)
		}
		res.Release()
		return flat, cl.Stats()
	}
	seqFlat, seqStats := run(1)
	parFlat, parStats := run(4)
	if !reflect.DeepEqual(seqFlat, parFlat) {
		t.Errorf("frame stream diverged across parallelism:\nseq %v\npar %v", seqFlat, parFlat)
	}
	if !reflect.DeepEqual(seqStats, parStats) || len(seqStats.Violations) != 0 {
		t.Errorf("stats diverged or recorded violations:\nseq %+v\npar %+v", seqStats, parStats)
	}
	for i := 2; i < len(seqFlat); i += 2 {
		if seqFlat[i] <= seqFlat[i-2] {
			t.Fatalf("final frames not strictly sorted by key: %v", seqFlat)
		}
	}
}

// TestMergeSortedBatchesNilCombine checks the keep-dst default and that
// wide frames pass through intact.
func TestMergeSortedBatchesNilCombine(t *testing.T) {
	m := mpc.NewCluster(mpc.Config{Machines: 1, LocalMemory: 64}).Machine(0)
	a, b := m.Batch(0), m.Batch(0)
	a.Append(1, 100, 101)
	a.Append(5, 500, 501)
	b.Append(1, 900, 901)
	b.Append(3, 300, 301)
	out := mpc.MergeSortedBatches(a, b, nil)
	var flat []uint64
	for f := range out.Frames {
		flat = append(flat, f...)
	}
	out.Release()
	want := []uint64{1, 100, 101, 3, 300, 301, 5, 500, 501}
	if !reflect.DeepEqual(flat, want) {
		t.Fatalf("merge got %v, want %v", flat, want)
	}
}
