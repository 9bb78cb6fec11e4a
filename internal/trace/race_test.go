//go:build race

package trace

// raceEnabled: the race detector slows the codec about tenfold, so the
// wall-clock bound in TestServedScaleHistoryLoads applies without it.
const raceEnabled = true
