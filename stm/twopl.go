package stm

import (
	"sync"
	"sync/atomic"
)

func init() {
	registerEngine(EngineTwoPL, "twopl",
		"encounter-time try-locking on a sharded orec table, restart on lock failure (consistent, DAP, blocking)",
		func() engine { return newTwoPLEngine() })
}

// twoPLEngine is encounter-time two-phase locking: every access try-locks
// the ownership record covering the variable, writes go in place with an
// undo log, and a failed try-lock restarts the whole transaction
// (deadlock avoidance by abort). Locks live in a sharded orec table
// (orec.go) rather than on the variables, so per-variable memory stays
// flat and the shard count is a striping knob; only the accessed
// variables' records are ever touched, so the engine remains
// disjoint-access-parallel up to hash aliasing. The corner it gives up
// is liveness: a preempted lock holder stalls every conflicting
// transaction.
type twoPLEngine struct {
	orecs     *orecTable
	spill     int
	pool      sync.Pool
	lockFails atomic.Uint64
}

func newTwoPLEngine() *twoPLEngine {
	return &twoPLEngine{orecs: newOrecTable(OrecShards), spill: spillThreshold()}
}

func (e *twoPLEngine) lockFailCount() uint64 { return e.lockFails.Load() }

// twoPLTx is one 2PL attempt: the held ownership records (small-set
// lockSet, acquisition order) and the undo log of in-place writes.
type twoPLTx struct {
	eng    *twoPLEngine
	locked lockSet
	undo   undoLog
}

func (e *twoPLEngine) begin(attempt, _ int) txState {
	backoff(attempt)
	tx, _ := e.pool.Get().(*twoPLTx)
	if tx == nil {
		tx = &twoPLTx{eng: e}
		tx.locked.init(e.spill)
	}
	return tx
}

func (e *twoPLEngine) done(st txState) {
	st.reset()
	e.pool.Put(st)
}

// reset truncates the lock set and undo log for reuse. The locks
// themselves were released on every terminal path before done runs.
func (tx *twoPLTx) reset() {
	tx.locked.reset()
	tx.undo.reset()
}

// acquire try-locks the variable's ownership record at first access;
// failure restarts the whole transaction. Two variables covered by the
// same record share one acquisition.
func (tx *twoPLTx) acquire(tv *tvar) {
	o := tx.eng.orecs.of(tv)
	if tx.locked.contains(o) {
		return
	}
	if !o.mu.TryLock() {
		tx.eng.lockFails.Add(1)
		panic(conflict{})
	}
	tx.locked.add(o)
}

func (tx *twoPLTx) load(tv *tvar) vword {
	tx.acquire(tv)
	return tv.read()
}

func (tx *twoPLTx) store(tv *tvar, v vword) {
	tx.acquire(tv)
	tx.undo.push(tv)
	tv.publish(v)
}

// commit releases the locks; the in-place writes are already visible.
// The undo log is kept so wrote() can answer after commit.
func (tx *twoPLTx) commit() bool {
	tx.releaseLocks()
	return true
}

func (tx *twoPLTx) abortCleanup() {
	tx.undo.rollback()
	tx.releaseLocks()
}

func (tx *twoPLTx) conflictCleanup() {
	tx.undo.rollback()
	tx.releaseLocks()
}

func (tx *twoPLTx) releaseLocks() {
	held := tx.locked.held
	for i := len(held) - 1; i >= 0; i-- {
		held[i].mu.Unlock()
	}
	tx.locked.reset()
}

func (tx *twoPLTx) wrote() bool { return len(tx.undo) > 0 }

func (tx *twoPLTx) mark() txMark { return txMark{n: len(tx.undo)} }

func (tx *twoPLTx) rollbackTo(m txMark) { tx.undo.rollbackTo(m.n) }
