package stm

func init() {
	registerEngine(EngineTL2Striped, "tl2s",
		"TL2 with a cache-line-padded striped version clock and lazy snapshot extension (DAP-friendly on disjoint workloads)",
		func() engine {
			return &tl2Engine{clock: newStripedClock(), extend: true, spill: spillThreshold()}
		})
}

// EngineTL2Striped is the tl2Engine of tl2.go running on the
// stripedClock of clock.go with lazy snapshot extension enabled.
//
// Classic TL2 pays for consistency with one fetch-and-add on a global
// counter per writing commit: under a fully disjoint workload — the "P
// corner" the PCL theorem is about — transactions that share no data
// still serialize on that cache line, which is precisely why TL2 is not
// disjoint-access-parallel. The striped variant spreads the clock over
// per-shard padded counters (commit bumps its slot's shard with a CAS
// to max(shard, rv)+1; a snapshot is the max over shards), so
// disjoint committers touch disjoint cache lines and the clock stops
// being a rendezvous point.
//
// Commit timestamps still respect the full TL2 clock contract — a tick
// re-scans the shards so its result exceeds every snapshot completed
// before it began (see versionClock invariant 3 in clock.go); only the
// *write* is striped. The trade is that reader snapshots go stale faster
// as shards advance independently; the engine compensates with lazy
// snapshot extension in the GV5 family's spirit: a read that observes a
// too-new version re-snapshots the clock and revalidates its read set
// instead of restarting. Note this does not make the engine
// disjoint-access-parallel in the strict sense the theorem uses — the
// snapshot still scans all shards — it only removes the write-side hot
// spot; the theorem survives, measurably.
