package stm

import "sync"

func init() {
	registerEngine(EngineGlobalLock, "glock",
		"one global mutex around every transaction (consistent, live, zero parallelism)",
		func() engine { return &glockEngine{} })
}

// glockEngine serializes all transactions on one mutex: trivially
// consistent and non-interfering, with zero parallelism — the third
// corner of the PCL triangle surrendered outright.
type glockEngine struct {
	mu   sync.Mutex
	pool sync.Pool
}

// glockTx is one global-lock attempt: the lock is held from begin to
// commit, writes go in place with an undo log for aborts.
type glockTx struct {
	eng  *glockEngine
	undo undoLog
}

func (e *glockEngine) begin(int, int) txState {
	tx, _ := e.pool.Get().(*glockTx)
	if tx == nil {
		tx = &glockTx{eng: e}
	}
	e.mu.Lock()
	return tx
}

func (e *glockEngine) done(st txState) {
	st.reset()
	e.pool.Put(st)
}

func (tx *glockTx) reset() { tx.undo.reset() }

func (tx *glockTx) load(tv *tvar) vword {
	return tv.read()
}

func (tx *glockTx) store(tv *tvar, v vword) {
	tx.undo.push(tv)
	tv.publish(v)
}

func (tx *glockTx) commit() bool {
	tx.eng.mu.Unlock()
	return true
}

func (tx *glockTx) abortCleanup() {
	tx.undo.rollback()
	tx.eng.mu.Unlock()
}

// conflictCleanup: the global engine never conflicts, but an explicit
// Retry unwinds through here and must release the lock so writers can
// make the awaited condition true.
func (tx *glockTx) conflictCleanup() {
	tx.undo.rollback()
	tx.eng.mu.Unlock()
}

func (tx *glockTx) wrote() bool { return len(tx.undo) > 0 }

func (tx *glockTx) mark() txMark { return txMark{n: len(tx.undo)} }

func (tx *glockTx) rollbackTo(m txMark) { tx.undo.rollbackTo(m.n) }
