package msf

// Checkpoint/restore of the MSF algorithms (see package snapshot). The
// exact MSF is its cached weight readout plus its weighted forest, one image
// on the forest's fleet; the approximate structures are their per-level
// connectivity instances (the thresholds are rederived from eps and
// validated by the level count). Each loads a full container written at any
// machine count: the driver-level state is machine-count-independent and the
// underlying forest / connectivity instances hold no placement either; each
// installs its state under its own. An error of the exact MSF, or of the
// first level, leaves the target untouched; one of a later level leaves the
// earlier levels loaded, so the target must be discarded.

import (
	"repro/internal/mpc"
	"repro/internal/snapshot"
)

// Section tags of the msf layer. A layout that changes takes a new tag and
// the old one stays retired, rejected by tag, never migrated: 0x20 was the
// exact MSF's section while it counted its exchange waves.
const (
	tagExactMSF  = 0x22
	tagApproxMSF = 0x21
)

// image is the exact MSF's full image: a section of its driver-level
// weight readout ahead of the forest's (core.Forest.Image). The coordinator's cap
// check counts the weight readout the load installs (weightMeter).
func (m *ExactMSF) image() *snapshot.Image {
	img := m.f.Image()
	img.Pkg = "msf"
	weightOK := snapshot.Scalar("weight cached", &m.weightOK)
	img.Sections = append([]snapshot.Section{{Tag: tagExactMSF, Parts: []snapshot.Part{
		snapshot.Scalar("weight", &m.weight), weightOK,
	}}}, img.Sections...)
	staged := img.Staged
	img.Staged = func(i int, slot string) mpc.Sized {
		if slot == slotWeight {
			return weightMeter{&weightOK.Val}
		}
		return staged(i, slot)
	}
	return img
}

// Checkpoint serializes the exact-MSF state (image).
func (m *ExactMSF) Checkpoint(e *snapshot.Encoder) { m.image().Encode(e) }

// Restore loads a checkpoint written by Checkpoint, at any machine count,
// into this freshly constructed instance.
func (m *ExactMSF) Restore(d *snapshot.Decoder) error { return m.image().Load(d) }

// image is the approximate MSF's own section, the configuration its levels
// were built from, and then every level's connectivity instance.
func (a *ApproxMSF) image() *snapshot.Image {
	img := &snapshot.Image{Pkg: "msf", Sections: []snapshot.Section{{Tag: tagApproxMSF, Parts: []snapshot.Part{
		snapshot.Echo("n", a.n), snapshot.Echo("eps", a.eps), snapshot.Echo("levels", len(a.levels)),
	}}}}
	for _, dc := range a.levels {
		img.Then = append(img.Then, dc)
	}
	return img
}

// Checkpoint serializes every level's connectivity instance.
func (a *ApproxMSF) Checkpoint(e *snapshot.Encoder) { a.image().Encode(e) }

// Restore loads a checkpoint written by Checkpoint, at any machine count,
// re-sharding every level's connectivity instance. The instance must have
// been built with the same configuration (eps and maxWeight determine the
// level count, which is validated).
func (a *ApproxMSF) Restore(d *snapshot.Decoder) error { return a.image().Load(d) }
