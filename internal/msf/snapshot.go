package msf

// Checkpoint/restore of the MSF algorithms (see package snapshot). The
// exact MSF is its weighted forest plus driver-level counters; the
// approximate structures are their per-level connectivity instances (the
// thresholds are rederived from eps and validated by the level count).
// Each loads a full container written at any machine count (see
// core/reshard.go): the driver-level state is machine-count-independent and
// the underlying forest / connectivity instances hold no placement either;
// each installs its state under its own. An error of the first (or only)
// underlying instance leaves the target untouched; one of a later level
// leaves the earlier levels loaded, so the target must be discarded.

import (
	"fmt"

	"repro/internal/snapshot"
)

// Section tags of the msf layer.
const (
	tagExactMSF  = 0x20
	tagApproxMSF = 0x21
)

// Checkpoint serializes the exact-MSF state: the driver-level counters and
// the underlying weighted forest.
func (m *ExactMSF) Checkpoint(e *snapshot.Encoder) {
	e.Begin(tagExactMSF)
	e.Int(m.swapWaves)
	e.I64(m.weight)
	e.Bool(m.weightOK)
	m.f.Checkpoint(e)
}

// Restore loads a checkpoint written by Checkpoint, at any machine count,
// into this freshly constructed instance.
func (m *ExactMSF) Restore(d *snapshot.Decoder) error {
	d.Begin(tagExactMSF)
	swapWaves := d.Int()
	weight := d.I64()
	weightOK := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if err := m.f.Restore(d); err != nil {
		return err
	}
	m.swapWaves, m.weight, m.weightOK = swapWaves, weight, weightOK
	return nil
}

// Checkpoint serializes every level's connectivity instance.
func (a *ApproxMSFWeight) Checkpoint(e *snapshot.Encoder) {
	e.Begin(tagApproxMSF)
	e.Int(a.n)
	e.F64(a.eps)
	e.Int(len(a.levels))
	for _, dc := range a.levels {
		dc.Checkpoint(e)
	}
}

// Restore loads a checkpoint written by Checkpoint, at any machine count,
// re-sharding every level's connectivity instance. The instance must have
// been built with the same configuration (eps and maxWeight determine the
// level count, which is validated).
func (a *ApproxMSFWeight) Restore(d *snapshot.Decoder) error {
	d.Begin(tagApproxMSF)
	n := d.Int()
	eps := d.F64()
	levels := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n != a.n || eps != a.eps {
		return fmt.Errorf("msf: snapshot of (n=%d, eps=%v) restored into (n=%d, eps=%v)", n, eps, a.n, a.eps)
	}
	if levels != len(a.levels) {
		return fmt.Errorf("msf: snapshot of %d levels restored into %d", levels, len(a.levels))
	}
	for _, dc := range a.levels {
		if err := dc.Restore(d); err != nil {
			return err
		}
	}
	return d.Err()
}
