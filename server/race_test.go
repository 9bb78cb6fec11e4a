//go:build race

package server

// raceEnabled mirrors stm's race_test.go: the race detector randomizes
// sync.Pool reuse, so allocation budgets are not meaningful under it and
// the gates skip. CI runs them in a dedicated non-race step.
const raceEnabled = true
