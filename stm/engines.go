// The engine seam: every concurrency-control algorithm in this package
// plugs in behind the engine/txState pair below and registers itself in
// the engine table. The public API (stm.go, orelse.go, retry.go) only
// ever talks to these interfaces — adding an engine means adding a file,
// not editing dispatch sites.
package stm

import (
	"runtime"
	"time"
)

// engine is one concurrency-control algorithm behind an Engine: a factory
// for per-attempt transaction state. An implementation owns whatever
// engine-wide shared state its algorithm needs (version clocks, the
// global mutex) and is constructed once per Engine by its registered
// constructor.
type engine interface {
	// begin starts one transaction attempt. attempt counts restarts of
	// the same Atomically call, so implementations can back off. slot is
	// the calling Tx handle's slot (counter.go): implementations stripe
	// every per-attempt word they write by it. In steady state the
	// returned state comes from the engine's pool, so a conflict retry
	// reuses the previous attempt's storage.
	begin(attempt, slot int) txState
	// done hands a finished attempt's state back for reuse. The caller
	// guarantees cleanup has run (locks released, writes rolled back or
	// published) and that it will not touch st again; implementations
	// reset the state and return it to their pool.
	done(st txState)
}

// txState is the engine-specific state of one transaction attempt. The
// public Tx handle delegates every operation here; each engine keeps only
// the fields its algorithm needs instead of a union of all engines'
// fields.
type txState interface {
	// load performs a transactional read, returning the value in
	// raw-word form (value.go); the public API decodes it back to T.
	load(tv *tvar) vword
	// store performs a transactional write of an encoded value.
	store(tv *tvar, w vword)
	// commit publishes the attempt's writes; false means a conflict was
	// detected and the attempt must restart.
	commit() bool
	// abortCleanup rolls back after a user error or user panic.
	abortCleanup()
	// conflictCleanup unwinds an internal restart (conflict or Retry),
	// releasing anything held so other transactions can proceed.
	conflictCleanup()
	// wrote reports whether the committed attempt published any write
	// (drives Retry wakeups).
	wrote() bool
	// mark snapshots the attempt's write state and rollbackTo undoes all
	// writes performed after the mark — the bracket around an OrElse
	// alternative. Locks acquired since the mark are deliberately kept
	// (conservative and deadlock-free: they are released when the
	// transaction finishes either way), as are read-set entries (extra
	// validation can only make commit more conservative). A mark may
	// reference scratch storage pooled inside the attempt state (tl2's
	// markBuf), so it is valid only within the attempt that took it and
	// only in LIFO order — exactly the shape of OrElse's bracket, which
	// takes, uses and abandons marks strictly nested inside one attempt.
	mark() txMark
	rollbackTo(m txMark)
	// reset truncates the attempt's collections (read set, write set,
	// undo log, lock set) for reuse by a later attempt, zeroing dropped
	// references so pooled state pins nothing. Called by the engine's
	// done before pooling; leaking any entry across reset is the classic
	// pooling bug the conformance harness convicts (see
	// NewLeakyPoolEngineForTest).
	reset()
}

// txMark is an engine-specific snapshot of a transaction's write state;
// see txState.mark. It is a small concrete struct passed by value — an
// interface here would box the mark on every OrElse, the one allocation
// the bracket used to pay even when nothing had been written. n is the
// undo-log or write-set length at the mark; off is the engine's offset
// into its pooled mark scratch (unused by the in-place engines).
type txMark struct {
	n, off int
}

// lockFailCounter is the optional engine interface behind
// Stats.LockFails: engines that can fail a lock acquisition (2PL's
// encounter-time try-locks, TL2's commit-time versioned locks) expose a
// cumulative count of those failures. The adaptive engine samples the
// counter's deltas as its contention signal.
type lockFailCounter interface {
	lockFailCount() uint64
}

// retryCleaner is the optional txState interface distinguishing an
// explicit Retry unwind from a conflict: engines that sample their own
// conflict rate implement it so a blocked waiter doesn't read as
// contention. Atomically falls back to conflictCleanup when absent —
// the two paths must release the same resources.
type retryCleaner interface {
	retryCleanup()
}

// engineEntry is one row of the engine registry.
type engineEntry struct {
	name string
	doc  string
	make func() engine
}

// engineTable maps EngineKind to its registration, filled in by each
// engine file's init. EngineKinds, EngineByName and NewEngine all read
// this table, so the engine files are the single source of truth.
var engineTable [engineKindCount]engineEntry

// registerEngine is called from each engine file's init.
func registerEngine(kind EngineKind, name, doc string, make func() engine) {
	if kind < 0 || kind >= engineKindCount {
		panic("stm: registerEngine: kind out of range")
	}
	if engineTable[kind].make != nil {
		panic("stm: registerEngine: duplicate registration for " + name)
	}
	for _, e := range engineTable {
		if e.make != nil && e.name == name {
			panic("stm: registerEngine: duplicate engine name " + name)
		}
	}
	engineTable[kind] = engineEntry{name: name, doc: doc, make: make}
}

// backoff sleeps progressively longer on repeated restarts of a
// lock-based transaction, defusing livelock between symmetric retriers.
func backoff(attempt int) {
	switch {
	case attempt == 0:
	case attempt < 4:
		runtime.Gosched()
	default:
		d := time.Duration(attempt)
		if d > 64 {
			d = 64
		}
		time.Sleep(d * time.Microsecond)
	}
}

// undoEntry is one in-place write to roll back, with the overwritten
// value in raw-word form — buffering it allocates nothing, and the
// vword's pointer slot keeps boxed or string payloads alive for the GC.
type undoEntry struct {
	tv   *tvar
	prev vword
}

// undoLog records in-place writes for the lock-based engines, newest
// last. It lives in pooled attempt state: reset keeps the backing array
// and zeroes the entries.
type undoLog []undoEntry

// push records tv's current value before it is overwritten. Every
// caller holds the variable's write authority (orec, global mutex), so
// the bare loadWords is a consistent snapshot — no seqlock validation.
func (u *undoLog) push(tv *tvar) {
	*u = append(*u, undoEntry{tv: tv, prev: tv.loadWords()})
}

// rollbackTo restores everything written after the log had n entries.
func (u *undoLog) rollbackTo(n int) {
	log := *u
	for i := len(log) - 1; i >= n; i-- {
		log[i].tv.publish(log[i].prev)
		log[i] = undoEntry{}
	}
	*u = log[:n]
}

// rollback restores everything.
func (u *undoLog) rollback() { u.rollbackTo(0) }

// reset empties the log for reuse.
func (u *undoLog) reset() {
	clear(*u)
	*u = (*u)[:0]
}
