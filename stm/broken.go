package stm

import "sync"

// This file holds the deliberately broken engines behind the conformance
// harness's self-tests: unregistered algorithms whose specific bugs the
// recorded-history checkers must convict, proving the harness catches
// real violations rather than vacuously passing. Neither may ever be
// used outside tests.

// NewBrokenEngineForTest returns an engine running a deliberately
// inconsistent algorithm, used by the conformance harness's self-test to
// prove the recorded-history checkers actually catch violations.
//
// The algorithm is the global-lock engine with a stale read cache bolted
// on: the first load of each variable caches the value it observed, and
// every later load — in any transaction, forever — returns the cached
// value, ignoring committed writes. A single process that reads x, then
// commits a write to x, then reads x again observes its own write lost,
// which violates every condition down to PRAM; the mutex keeps the
// breakage deterministic and data-race-free so the harness can assert on
// it under -race.
func NewBrokenEngineForTest(opts ...Option) *Engine {
	return newEngineShell(-1, &brokenEngine{stale: make(map[*tvar]vword)}, opts...)
}

// brokenEngine is glockEngine plus the poisoned read cache.
type brokenEngine struct {
	mu    sync.Mutex
	stale map[*tvar]vword
}

type brokenTx struct {
	eng  *brokenEngine
	undo undoLog
}

func (e *brokenEngine) begin(int, int) txState {
	e.mu.Lock()
	return &brokenTx{eng: e}
}

// done: the broken engine doesn't pool — its job is determinism, not
// speed.
func (e *brokenEngine) done(st txState) { st.reset() }

func (tx *brokenTx) reset() { tx.undo.reset() }

// load returns the first value this engine ever saw for tv — stale the
// moment anyone commits a newer one.
func (tx *brokenTx) load(tv *tvar) vword {
	if v, ok := tx.eng.stale[tv]; ok {
		return v
	}
	v := tv.read()
	tx.eng.stale[tv] = v
	return v
}

func (tx *brokenTx) store(tv *tvar, v vword) {
	tx.undo.push(tv)
	tv.publish(v)
}

func (tx *brokenTx) commit() bool {
	tx.eng.mu.Unlock()
	return true
}

func (tx *brokenTx) abortCleanup() {
	tx.undo.rollback()
	tx.eng.mu.Unlock()
}

func (tx *brokenTx) conflictCleanup() {
	tx.undo.rollback()
	tx.eng.mu.Unlock()
}

func (tx *brokenTx) wrote() bool { return len(tx.undo) > 0 }

func (tx *brokenTx) mark() txMark { return txMark{n: len(tx.undo)} }

func (tx *brokenTx) rollbackTo(m txMark) { tx.undo.rollbackTo(m.n) }

// NewLeakyPoolEngineForTest returns an engine with the classic pooling
// bug built in: it writes in place with an undo log and pools its
// attempt state like every production engine — but its reset "forgets"
// to truncate the undo log. The next pooled attempt that rolls back
// (user abort) then re-applies its predecessor's undo entries too,
// resurrecting values that committed transactions had overwritten; a
// later read observes a history no serialization order can justify. The
// conformance harness must convict it (see internal/conformance's
// pooling tests), which is the self-test that the pool-hygiene sweep
// would catch the same truncation bug in a production engine's reset.
func NewLeakyPoolEngineForTest(opts ...Option) *Engine {
	return newEngineShell(-1, &leakyEngine{}, opts...)
}

// leakyEngine serializes on one mutex (so the leak, not concurrency, is
// the only bug) and recycles leakyTx state through an explicit LIFO
// free list rather than a sync.Pool: the fixture's value is
// determinism, and the race detector deliberately drops sync.Pool puts,
// which would make the planted leak probabilistic under -race.
type leakyEngine struct {
	mu     sync.Mutex
	poolMu sync.Mutex
	free   []*leakyTx
}

type leakyTx struct {
	eng  *leakyEngine
	undo undoLog
}

func (e *leakyEngine) begin(int, int) txState {
	e.poolMu.Lock()
	var tx *leakyTx
	if n := len(e.free); n > 0 {
		tx, e.free = e.free[n-1], e.free[:n-1]
	} else {
		tx = &leakyTx{eng: e}
	}
	e.poolMu.Unlock()
	e.mu.Lock()
	return tx
}

func (e *leakyEngine) done(st txState) {
	st.reset()
	e.poolMu.Lock()
	e.free = append(e.free, st.(*leakyTx))
	e.poolMu.Unlock()
}

// reset is the planted bug: it keeps the undo log instead of truncating
// it, so the entries survive into the state's next attempt.
func (tx *leakyTx) reset() {}

func (tx *leakyTx) load(tv *tvar) vword {
	return tv.read()
}

func (tx *leakyTx) store(tv *tvar, v vword) {
	tx.undo.push(tv)
	tv.publish(v)
}

func (tx *leakyTx) commit() bool {
	// Correct engines truncate here or in reset; this one leaves the
	// committed writes' undo entries in the pooled log.
	tx.eng.mu.Unlock()
	return true
}

// abortCleanup rolls back the whole log — including entries leaked from
// the state's previous attempts, which resurrects their old values.
func (tx *leakyTx) abortCleanup() {
	tx.undo.rollback()
	tx.eng.mu.Unlock()
}

func (tx *leakyTx) conflictCleanup() {
	tx.undo.rollback()
	tx.eng.mu.Unlock()
}

func (tx *leakyTx) wrote() bool { return len(tx.undo) > 0 }

func (tx *leakyTx) mark() txMark { return txMark{n: len(tx.undo)} }

func (tx *leakyTx) rollbackTo(m txMark) { tx.undo.rollbackTo(m.n) }

// NewWordCorruptingEngineForTest returns an engine with a planted
// raw-word bug: every publish of a single-word (kindWord) value zeroes
// the word's high 32 bits, as if the value had been squeezed through a
// 32-bit register on its way to the tvar. A committed write of a value
// that needs the high bits is then observed by later reads as a value no
// transaction ever wrote, which no serialization can justify — the
// conformance harness must convict it (internal/conformance's word
// corruption test), proving the checkers would catch a real encode/
// decode or publish bug in the word pipeline the same way.
func NewWordCorruptingEngineForTest(opts ...Option) *Engine {
	return newEngineShell(-1, &corruptEngine{}, opts...)
}

// corruptEngine is the glock algorithm with the planted word truncation;
// the mutex keeps the corruption deterministic and data-race-free.
type corruptEngine struct {
	mu sync.Mutex
}

type corruptTx struct {
	eng  *corruptEngine
	undo undoLog
}

func (e *corruptEngine) begin(int, int) txState {
	e.mu.Lock()
	return &corruptTx{eng: e}
}

func (e *corruptEngine) done(st txState) { st.reset() }

func (tx *corruptTx) reset() { tx.undo.reset() }

func (tx *corruptTx) load(tv *tvar) vword {
	return tv.read()
}

// store is the planted bug: kindWord payloads lose their high 32 bits.
func (tx *corruptTx) store(tv *tvar, v vword) {
	tx.undo.push(tv)
	if tv.kind == kindWord {
		v.w0 &= 0xFFFFFFFF
	}
	tv.publish(v)
}

func (tx *corruptTx) commit() bool {
	tx.eng.mu.Unlock()
	return true
}

func (tx *corruptTx) abortCleanup() {
	tx.undo.rollback()
	tx.eng.mu.Unlock()
}

func (tx *corruptTx) conflictCleanup() {
	tx.undo.rollback()
	tx.eng.mu.Unlock()
}

func (tx *corruptTx) wrote() bool { return len(tx.undo) > 0 }

func (tx *corruptTx) mark() txMark { return txMark{n: len(tx.undo)} }

func (tx *corruptTx) rollbackTo(m txMark) { tx.undo.rollbackTo(m.n) }
