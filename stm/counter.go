package stm

import (
	"runtime"
	"sync/atomic"
)

// Per-slot bookkeeping: the same cache-line padding discipline as the
// striped version clock (clock.go) and the orec table (orec.go), applied
// to the words the hot path touches on every attempt — the engine-level
// commit/abort/retry/wait counters and the adaptive engine's window
// accounting. A fetch-and-add on one shared word is cheap until every
// core does it per transaction; then the word becomes the same
// rendezvous point the PCL theorem charges TL2's clock with, except this
// one is incidental.
//
// The stripe a word lands on is the attempt's slot: a small integer each
// pooled Tx handle gets round-robin when its engine creates it
// (Engine.AtomicallyAs) and keeps for life. sync.Pool hands a P back the
// handle it last put, so under steady load each core keeps its own slot
// and two cores share a stripe only when they share a slot — never
// because their handles happen to sit in one cache line, which is what
// an address-derived stripe gave two 24-byte handles in one 64-byte
// block every time.

// cacheLine is the coherence unit the padding below is sized to.
const cacheLine = 64

// maxStripes bounds the stripe count so sums and snapshot scans stay
// short on very wide machines.
const maxStripes = 64

// paddedUint64 keeps one shard's word on its own cache line. Shared by
// the striped counters here and the striped version clock (clock.go). A
// slice of them is one power-of-two-sized allocation, which Go's
// allocator aligns to its size, so no shard straddles a line.
type paddedUint64 struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// StripeCount is the stripe count of every per-slot structure this
// package builds, and of the store's per-slot partition locks: the next
// power of two at or above min(GOMAXPROCS, NumCPU) when called, capped
// at 64. Striping only pays off when the striped word is genuinely hit
// in parallel, so a 1-core box gets one stripe and every striped
// structure degenerates gracefully into its unstriped form.
func StripeCount() int {
	width := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < width {
		width = c
	}
	n := 1
	for n < width && n < maxStripes {
		n <<= 1
	}
	return n
}

// stripedCounter is a sharded uint64 accumulator. add is wait-free and
// touches the one cache line its slot selects; sum scans the shards and
// is only exact when concurrent adds are quiesced.
type stripedCounter struct {
	shards []paddedUint64
	mask   int
}

// newStripedCounter sizes the stripe via StripeCount; a 1-core box gets
// one shard and degenerates into a plain atomic counter.
func newStripedCounter() stripedCounter {
	n := StripeCount()
	return stripedCounter{shards: make([]paddedUint64, n), mask: n - 1}
}

// add applies delta to the slot's shard.
func (c *stripedCounter) add(slot int, delta uint64) {
	c.shards[slot&c.mask].v.Add(delta)
}

// sum folds the shards mod 2^64.
func (c *stripedCounter) sum() uint64 {
	var s uint64
	for i := range c.shards {
		s += c.shards[i].v.Load()
	}
	return s
}
