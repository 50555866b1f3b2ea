//go:build !race

package bpmax

// See race_on_test.go.
const raceEnabled = false
