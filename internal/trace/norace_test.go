//go:build !race

package trace

// raceEnabled: see race_test.go.
const raceEnabled = false
