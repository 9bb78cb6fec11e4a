package stm

import (
	"sync"
	"testing"
)

// clocks returns one of each versionClock implementation.
func clocks() map[string]versionClock {
	return map[string]versionClock{
		"global":  &globalClock{},
		"striped": newStripedClock(),
	}
}

func TestClockTickExceedsRV(t *testing.T) {
	for name, c := range clocks() {
		rv := c.snapshot()
		for i := 0; i < 100; i++ {
			wv := c.tick(rv, i)
			if wv <= rv {
				t.Fatalf("%s: tick(rv=%d) = %d, want > rv", name, rv, wv)
			}
			rv = c.snapshot()
		}
	}
}

func TestClockSnapshotCoversCompletedTicks(t *testing.T) {
	for name, c := range clocks() {
		for slot := 0; slot < 2*maxStripes; slot++ {
			wv := c.tick(c.snapshot(), slot)
			if s := c.snapshot(); s < wv {
				t.Fatalf("%s: snapshot = %d after tick returned %d", name, s, wv)
			}
		}
	}
}

func TestStripedClockSpreadsShards(t *testing.T) {
	// A fixed 8-shard clock, independent of GOMAXPROCS.
	c := &stripedClock{shards: make([]paddedUint64, 8), mask: 7}
	for slot := 0; slot < 8; slot++ {
		c.tick(0, slot)
	}
	for i := range c.shards {
		if c.shards[i].v.Load() == 0 {
			t.Errorf("shard %d untouched by tick from its slot", i)
		}
	}
}

// TestStripedTickExceedsPriorSnapshots pins versionClock invariant 3: a
// tick must beat every snapshot that completed before it began, even
// when that snapshot's max came from a different shard than the tick's
// and the committer's rv is stale. (Without this, a reader whose rv was
// raised by shard B could accept a version just published through shard
// A at a timestamp ≤ rv — a torn snapshot.)
func TestStripedTickExceedsPriorSnapshots(t *testing.T) {
	c := &stripedClock{shards: make([]paddedUint64, 2), mask: 1}
	c.shards[1].v.Store(5)
	s := c.snapshot() // 5, via shard 1
	if wv := c.tick(0, 0); wv <= s {
		t.Fatalf("tick on shard 0 = %d, want > prior snapshot %d", wv, s)
	}
}

func TestStripedClockSizing(t *testing.T) {
	c := newStripedClock()
	n := len(c.shards)
	if n < 1 || n > maxStripes || n&(n-1) != 0 {
		t.Errorf("shard count %d: want a power of two in [1, %d]", n, maxStripes)
	}
	if c.mask != n-1 {
		t.Errorf("mask %d does not match %d shards", c.mask, n)
	}
}

func TestClockConcurrentMonotonic(t *testing.T) {
	for name, c := range clocks() {
		const goroutines = 8
		const ticks = 2000
		var wg sync.WaitGroup
		errs := make(chan string, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				for i := 0; i < ticks; i++ {
					rv := c.snapshot()
					wv := c.tick(rv, slot)
					if wv <= rv {
						errs <- name + ": tick not past rv"
						return
					}
					// The snapshot-covers-tick invariant, raced.
					if s := c.snapshot(); s < wv {
						errs <- name + ": snapshot behind own tick"
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}
