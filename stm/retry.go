package stm

import (
	"sync"
	"sync/atomic"
)

// retrySignal unwinds an attempt that called Retry; the engine blocks
// until some transaction commits writes, then re-runs the function.
type retrySignal struct{}

// notifier wakes blocked Retry-ers on every writing commit. The
// attempt-path operations are lock-free: snapshot is one atomic load,
// and bump takes the mutex only when a waiter is registered, so writing
// commits with nobody blocked pay a single fetch-and-add.
//
// seq is written by every writing commit and read by every attempt, so
// it gets a cache line to itself, padded on both sides: without the
// padding it shared a line with the Engine's impl and rec words, which
// every attempt reads, and each commit's add invalidated them on every
// other core. A striped seq was measured and not built: its snapshot
// would scan every stripe on every attempt (EXPERIMENTS.md E15).
type notifier struct {
	_       [cacheLine]byte
	seq     atomic.Uint64
	_       [cacheLine]byte
	waiters atomic.Int32
	mu      sync.Mutex
	cond    *sync.Cond
}

func (n *notifier) init() {
	n.cond = sync.NewCond(&n.mu)
}

// snapshot returns the current commit sequence number.
func (n *notifier) snapshot() uint64 {
	return n.seq.Load()
}

// bump signals that shared state changed. The seq bump (atomic RMW)
// precedes the waiter check; waitChange registers (RMW) before reading
// seq — so either the waiter sees the new seq and never sleeps, or this
// load sees the waiter and broadcasts under the mutex it sleeps on.
func (n *notifier) bump() {
	n.seq.Add(1)
	if n.waiters.Load() != 0 {
		n.mu.Lock()
		if n.cond != nil {
			n.cond.Broadcast()
		}
		n.mu.Unlock()
	}
}

// waitChange blocks until the sequence number moves past since.
func (n *notifier) waitChange(since uint64) {
	n.mu.Lock()
	if n.cond == nil {
		n.init()
	}
	n.waiters.Add(1)
	for n.seq.Load() == since {
		n.cond.Wait()
	}
	n.waiters.Add(-1)
	n.mu.Unlock()
}

// Retry abandons the current transaction attempt and blocks the calling
// Atomically until another transaction commits a write, then re-runs the
// transaction function from scratch — the STM idiom for waiting on a
// condition:
//
//	eng.Atomically(func(tx *stm.Tx) error {
//	    n := stm.Get(tx, queueLen)
//	    if n == 0 {
//	        stm.Retry(tx) // sleep until something is enqueued
//	    }
//	    ...
//	})
//
// Lock-based engines release everything they hold before sleeping, so
// writers can make the condition true.
func Retry(tx *Tx) {
	_ = tx // the transaction's state is discarded by the unwind
	panic(retrySignal{})
}
