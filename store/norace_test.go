//go:build !race

package store_test

// raceEnabled: see race_test.go.
const raceEnabled = false
