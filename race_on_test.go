//go:build race

package bpmax

// raceEnabled gates assertions that sync.Pool makes non-deterministic
// under the race detector (it intentionally drops a random fraction of
// Puts in race mode to widen interleaving coverage).
const raceEnabled = true
