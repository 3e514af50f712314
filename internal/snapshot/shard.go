package snapshot

import (
	"fmt"

	"repro/internal/mpc"
)

// The per-machine sections of the sharded states (core's forest and sketch
// shards, the greedy matching's, the maximal matcher's) open alike: the
// machine id, then whether the machine carries vertex state — every machine
// but the last, the coordinator, does — and, where the section holds
// per-vertex records, the vertex range [lo, hi) it covers. One writer and one
// reader of that opening serve all of them.

// WriteShardHeader opens machine i's section under tag; has says whether the
// machine carries vertex state.
func WriteShardHeader(e *Encoder, tag uint64, i int, has bool) {
	e.Begin(tag)
	e.Int(i)
	e.Bool(has)
}

// ReadShardHeader opens the section under tag that machine i of the fleet
// partitioned by src wrote (src.Machines vertex machines, then the
// coordinator), checks it is that machine's and agrees with the
// coordinator-last layout, and reports whether it carries vertex state.
func ReadShardHeader(d *Decoder, tag uint64, i int, src mpc.Partition) (bool, error) {
	d.Begin(tag)
	id := d.Int()
	has := d.Bool()
	if err := d.Err(); err != nil {
		return false, err
	}
	if id != i {
		return false, fmt.Errorf("snapshot: section %#x of machine %d where machine %d was expected", tag, id, i)
	}
	if has != (i != src.Machines) {
		return false, fmt.Errorf("snapshot: section %#x of machine %d of %d disagrees with the coordinator-last layout", tag, i, src.Machines+1)
	}
	return has, nil
}

// ReadShardRange reads the vertex range [lo, hi) that opens the records of
// machine i's section and checks it against the writer's partition.
func ReadShardRange(d *Decoder, i int, src mpc.Partition) (lo, hi int, err error) {
	lo, hi = d.Int(), d.Int()
	if err = d.Err(); err != nil {
		return 0, 0, err
	}
	if wantLo, wantHi := src.Range(i); lo != wantLo || hi != wantHi {
		return 0, 0, fmt.Errorf("snapshot: shard %d covers [%d,%d), source layout says [%d,%d)", i, lo, hi, wantLo, wantHi)
	}
	return lo, hi, nil
}
