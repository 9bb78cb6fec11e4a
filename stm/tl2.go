package stm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

func init() {
	registerEngine(EngineTL2, "tl2",
		"speculative TL2: versioned locks, one global version clock (consistent, non-blocking, not DAP)",
		func() engine { return &tl2Engine{clock: &globalClock{}, spill: spillThreshold()} })
}

// tl2Engine is speculative TL2 (Dice/Shalev/Shavit): reads are validated
// against a version clock, writes are buffered and published under
// short-lived versioned locks at commit. The clock implementation is the
// only difference between EngineTL2 (one global counter) and
// EngineTL2Striped (per-shard counters with lazy snapshot extension, see
// tl2striped.go).
type tl2Engine struct {
	clock versionClock
	// extend enables lazy snapshot extension: a read that observes a
	// version newer than rv re-snapshots the clock and revalidates the
	// read set instead of restarting outright. Off for classic TL2,
	// whose single clock makes stale snapshots rare; on for the striped
	// clock, whose reused timestamps make them common.
	extend bool
	// spill is the small-set threshold captured at construction.
	spill int
	// pool recycles tl2Tx attempt state (see engine.done).
	pool sync.Pool
	// lockFails counts commit-time versioned-lock acquisitions that
	// exhausted their spin budget (see Stats.LockFails).
	lockFails atomic.Uint64
}

func (e *tl2Engine) lockFailCount() uint64 { return e.lockFails.Load() }

// tl2Tx is one TL2 transaction attempt: a read snapshot, a validated
// read set, a buffered small-set write set in first-write order, the
// pooled scratch OrElse marks copy their prefixes into, and the slot
// whose clock shard a commit ticks.
type tl2Tx struct {
	eng     *tl2Engine
	rv      uint64
	slot    int
	reads   []readEntry
	ws      writeSet
	markBuf []writeEntry
}

type readEntry struct {
	tv  *tvar
	ver uint64
}

func (e *tl2Engine) begin(_, slot int) txState {
	tx, _ := e.pool.Get().(*tl2Tx)
	if tx == nil {
		tx = &tl2Tx{eng: e}
		tx.ws.init(e.spill)
	}
	tx.rv, tx.slot = e.clock.snapshot(), slot
	return tx
}

func (e *tl2Engine) done(st txState) {
	st.reset()
	e.pool.Put(st)
}

// reset truncates the read and write sets and the mark scratch for
// reuse, keeping their backing storage.
func (tx *tl2Tx) reset() {
	clear(tx.reads)
	tx.reads = tx.reads[:0]
	tx.ws.reset()
	clear(tx.markBuf)
	tx.markBuf = tx.markBuf[:0]
	tx.rv = 0
}

// load implements TL2's versioned read: a lock-stable value whose version
// does not postdate the transaction's read snapshot. The word loads are
// bare — the l1/l2 bracket on the versioned lock already rejects any
// value a concurrent commit was publishing, wide kinds included.
func (tx *tl2Tx) load(tv *tvar) vword {
	if v, ok := tx.ws.get(tv); ok {
		return v
	}
	for {
		l1 := tv.lock.Load()
		if isLocked(l1) {
			runtime.Gosched()
			continue
		}
		v := tv.loadWords()
		l2 := tv.lock.Load()
		if l1 != l2 {
			continue
		}
		if version(l1) > tx.rv {
			if !tx.eng.extend || !tx.extendSnapshot() {
				panic(conflict{}) // snapshot too old: restart with a fresh rv
			}
			continue // rv advanced past the version; re-read
		}
		tx.reads = append(tx.reads, readEntry{tv, version(l1)})
		return v
	}
}

// extendSnapshot advances rv to the current clock if every read so far is
// still at its recorded version — TinySTM/LSA-style lazy extension. On
// success the attempt keeps running with the newer snapshot; on failure
// it is doomed and the caller restarts it.
func (tx *tl2Tx) extendSnapshot() bool {
	newRV := tx.eng.clock.snapshot()
	for _, r := range tx.reads {
		l := r.tv.lock.Load()
		if version(l) != r.ver || isLocked(l) {
			return false
		}
	}
	tx.rv = newRV
	return true
}

func (tx *tl2Tx) store(tv *tvar, v vword) {
	tx.ws.put(tv, v)
}

// commit implements TL2's commit: sort the write set in id order in
// place, lock it, take a commit timestamp, validate the read set,
// publish, release. The locked prefix is tracked by index into the
// sorted entries — no second slice, no sort closure.
func (tx *tl2Tx) commit() bool {
	if tx.ws.len() == 0 {
		// Read-only transactions validated every read against rv; done.
		return true
	}
	tx.ws.sortByID()
	es := tx.ws.entries
	nlocked := 0
	for i := range es {
		tv := es[i].tv
		acquired := false
		for spin := 0; spin < 64; spin++ {
			l := tv.lock.Load()
			if isLocked(l) {
				runtime.Gosched()
				continue
			}
			if tv.lock.CompareAndSwap(l, l|lockedBit) {
				acquired = true
				break
			}
		}
		if !acquired {
			tx.eng.lockFails.Add(1)
			releaseLocked(es[:nlocked])
			return false
		}
		nlocked++
	}

	wv := tx.eng.clock.tick(tx.rv, tx.slot)

	for _, r := range tx.reads {
		l := r.tv.lock.Load()
		if version(l) != r.ver || (isLocked(l) && !tx.ws.containsSorted(r.tv)) {
			releaseLocked(es)
			return false
		}
	}

	for i := range es {
		es[i].tv.publishLocked(es[i].v)
		es[i].tv.lock.Store(wv) // publish new version and release
	}
	return true
}

// releaseLocked unlocks the given prefix of the write set without
// advancing versions.
func releaseLocked(es []writeEntry) {
	for i := range es {
		tv := es[i].tv
		tv.lock.Store(tv.lock.Load() &^ lockedBit)
	}
}

// abortCleanup: writes were buffered; nothing to roll back.
func (tx *tl2Tx) abortCleanup() {}

// conflictCleanup: nothing held between operations.
func (tx *tl2Tx) conflictCleanup() {}

func (tx *tl2Tx) wrote() bool { return tx.ws.len() > 0 }

// mark snapshots the buffered write set for OrElse: the entry count plus
// a copy of the prefix (an alternative may overwrite a pre-mark entry in
// place), appended to the attempt's pooled markBuf. An empty write set
// copies nothing and a warmed markBuf has capacity, so marking is
// allocation-free in steady state. Nested marks stack LIFO in markBuf;
// rollbackTo pops back to its own offset, which also invalidates every
// mark taken after it — exactly OrElse's bracket discipline (see
// txState.mark in engines.go).
func (tx *tl2Tx) mark() txMark {
	n := tx.ws.len()
	off := len(tx.markBuf)
	tx.markBuf = append(tx.markBuf, tx.ws.entries[:n]...)
	return txMark{n: n, off: off}
}

func (tx *tl2Tx) rollbackTo(m txMark) {
	tx.ws.truncate(m.n, tx.markBuf[m.off:m.off+m.n])
	clear(tx.markBuf[m.off:])
	tx.markBuf = tx.markBuf[:m.off]
}
