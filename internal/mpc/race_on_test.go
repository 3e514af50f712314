//go:build race

package mpc_test

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items on purpose, so pooled-buffer allocation budgets cannot hold.
const raceEnabled = true
