package stm

import "sync/atomic"

// versionClock abstracts TL2's version clock so engine variants can swap
// the contended single counter for a striped one. The contract both TL2
// engines rely on:
//
//  1. tick returns a commit timestamp strictly greater than the rv it is
//     given (so a committer's own reads, all at versions ≤ rv, stay
//     older than its writes);
//  2. any tick that completes before a snapshot begins is ≤ that
//     snapshot (so a reader's rv covers every write published before the
//     reader started);
//  3. tick returns a timestamp strictly greater than every snapshot
//     that completed before the tick began. This is what makes TL2's
//     per-read validation sound: a reader that took its snapshot before
//     a writer's commit window (write-locks held from before tick to
//     publish) sees version > rv on that writer's variables and never
//     mixes them with pre-commit values.
type versionClock interface {
	// snapshot returns the read timestamp rv for a starting transaction.
	snapshot() uint64
	// tick returns a fresh commit timestamp > rv. slot (the committing
	// attempt's, see counter.go) spreads concurrent committers across
	// shards where the clock is striped; unsharded clocks ignore it.
	tick(rv uint64, slot int) uint64
}

// globalClock is the classic TL2 clock (GV1): one fetch-and-add word.
// Every writing commit bumps the same cache line, which is exactly the
// non-disjoint-access-parallel hot spot the PCL theorem charges TL2 with.
type globalClock struct {
	c atomic.Uint64
}

func (g *globalClock) snapshot() uint64 { return g.c.Load() }

func (g *globalClock) tick(uint64, int) uint64 { return g.c.Add(1) }

// stripedClock spreads the version clock over per-shard padded counters.
// The logical clock value is the maximum over all shards:
//
//   - snapshot scans the shards and takes the max — read-only, so
//     concurrent snapshots share the cache lines instead of fighting
//     over one exclusively-owned word;
//   - tick re-scans the shards for the current max, then CASes the
//     committing slot's shard to past max(global, rv) — every committer
//     still *writes* only its own cache line, so disjoint commits no
//     longer serialize on one exclusively-owned word the way a
//     fetch-and-add clock makes them.
//
// All three clock invariants hold: shards are monotone and a tick stores
// its timestamp into a shard before returning, so later snapshots cover
// completed ticks (2); and tick's scan happens after the tick begins, so
// its result exceeds the global max any earlier-completed snapshot could
// have observed (3). The price of striping is snapshot/tick scans that
// grow with the shard count — which is why the stripe is sized to the
// machine — and reader snapshots that go stale faster as shards advance
// independently; the striped engine compensates for the latter with lazy
// snapshot extension (see tl2.go).
type stripedClock struct {
	shards []paddedUint64 // cache-line-padded, shared with counter.go
	mask   int
}

// newStripedClock sizes the stripe to the true parallelism available
// when the engine is built (StripeCount in counter.go: next power of
// two at or above min(GOMAXPROCS, NumCPU), capped at maxStripes).
// Striping only pays off when commits genuinely run in parallel, so a
// 1-core box gets a 1-shard clock that degenerates gracefully into a
// CAS-based global clock instead of a snapshot scan with nothing to
// amortize it.
func newStripedClock() *stripedClock {
	n := StripeCount()
	return &stripedClock{shards: make([]paddedUint64, n), mask: n - 1}
}

func (s *stripedClock) snapshot() uint64 {
	var max uint64
	for i := range s.shards {
		if v := s.shards[i].v.Load(); v > max {
			max = v
		}
	}
	return max
}

func (s *stripedClock) tick(rv uint64, slot int) uint64 {
	// floor is ≥ every snapshot completed before this tick began: such a
	// snapshot saw some prefix of the monotone shard values, so its max
	// is covered by the max scanned now (invariant 3).
	floor := s.snapshot()
	if rv > floor {
		floor = rv
	}
	sh := &s.shards[slot&s.mask].v
	for {
		cur := sh.Load()
		next := floor + 1
		if cur >= next {
			next = cur + 1
		}
		if sh.CompareAndSwap(cur, next) {
			return next
		}
	}
}
