//go:build !race

package mpc_test

const raceEnabled = false
