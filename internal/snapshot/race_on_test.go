//go:build race

package snapshot

// raceEnabled reports that the race detector is on: an append of a made
// slice (bytes.Buffer.Grow, slices.Grow) then allocates the made slice too,
// so byte budgets for a round trip cannot hold.
const raceEnabled = true
