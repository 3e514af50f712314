package workload

import (
	"fmt"

	"repro/internal/hash"
)

// MachineFaultSchedule is the machine-loss sibling of CrashSchedule: a
// seeded, deterministic choice of the batches during which one MPC machine
// "dies" mid-round, and of which machine it is. Like every generator in
// this package it is oblivious — fault points and victims are a fixed
// function of the seed, never of algorithm state — so a fault-decorated run
// of any scenario replays identically, and the differential harness can
// demand bit-identical results against an uninterrupted twin at the
// surviving machine count.
//
// A machine fault is recovered by re-sharding (see session.RecoverOnto):
// the poisoned round is discarded, the last checkpoint is restored onto the
// surviving fleet, and the in-flight batch is replayed.
type MachineFaultSchedule struct {
	prg   *hash.PRG
	every int
}

// NewMachineFaultSchedule returns a schedule killing a machine with
// probability 1/every per batch. every must be positive.
func NewMachineFaultSchedule(seed uint64, every int) *MachineFaultSchedule {
	if every < 1 {
		panic(fmt.Sprintf("workload: machine-fault schedule every %d batches", every))
	}
	return &MachineFaultSchedule{prg: hash.NewPRG(seed ^ 0xfa17), every: every}
}

// Fault draws the next batch's fault decision against a fleet of the given
// size: ok reports whether a machine dies during the batch, and victim is
// its id. The victim draw is consumed only when a fault fires, so the
// schedule's firing pattern is independent of the (shrinking) fleet size.
func (s *MachineFaultSchedule) Fault(machines int) (victim int, ok bool) {
	if s.prg.NextN(uint64(s.every)) != 0 {
		return 0, false
	}
	if machines < 1 {
		return 0, true
	}
	return int(s.prg.NextN(uint64(machines))), true
}
