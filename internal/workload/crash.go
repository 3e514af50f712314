package workload

import (
	"fmt"

	"repro/internal/hash"
)

// CrashSchedule is a seeded, deterministic choice of the batch indices at
// which a run's cluster is killed and restored from its latest checkpoint
// (experiment E16). Like every generator in this package it is oblivious —
// the crash points are a fixed function of the seed, never of algorithm
// state — so a crash-decorated run replays identically and can be held to
// an uninterrupted twin.
//
// Crash is drawn once per batch, in order; on average one crash fires
// every `every` batches.
type CrashSchedule struct {
	prg   *hash.PRG
	every int
}

// NewCrashSchedule returns a schedule crashing with probability 1/every
// per batch. every must be positive.
func NewCrashSchedule(seed uint64, every int) *CrashSchedule {
	if every < 1 {
		panic(fmt.Sprintf("workload: crash schedule every %d batches", every))
	}
	return &CrashSchedule{prg: hash.NewPRG(seed ^ 0xc4a5), every: every}
}

// Crash draws the next batch's fault decision.
func (s *CrashSchedule) Crash() bool {
	return s.prg.NextN(uint64(s.every)) == 0
}
