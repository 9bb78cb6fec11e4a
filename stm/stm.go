// Package stm is a software transactional memory library for Go under
// real parallelism — the production-facing counterpart of the simulated
// protocols this repository uses to mechanize the PCL theorem (Bushkov,
// Dziuma, Fatourou, Guerraoui, SPAA 2014).
//
// The theorem proves that no TM can combine strict
// disjoint-access-parallelism, weak adaptive consistency and
// obstruction-freedom; every practical STM therefore picks a corner to
// give up, and this package ships one engine per corner so the tradeoff
// can be measured instead of argued:
//
//   - EngineTL2 — speculative versioned locks with a global version clock
//     (Dice/Shalev/Shavit's TL2): consistent (strictly serializable) and
//     non-blocking in the common path, but the shared clock makes it not
//     disjoint-access-parallel.
//   - EngineTL2Striped — TL2 with a cache-line-padded striped version
//     clock and lazy snapshot extension: the same speculative algorithm
//     with the single-counter hot spot spread over per-shard counters, so
//     disjoint transactions no longer serialize on one cache line.
//   - EngineTwoPL — encounter-time try-locking on a sharded ownership-
//     record table (orec.go) with whole-transaction restart on lock
//     failure: strictly serializable and disjoint-access-parallel up to
//     orec aliasing (only the accessed variables' records are touched),
//     but blocking — a preempted lock holder stalls conflicting
//     transactions.
//   - EngineGlobalLock — one global mutex: trivially consistent and
//     non-interfering, with zero parallelism.
//   - EngineAdaptive — the PCL theorem made operational: since no engine
//     can win every regime, this one samples its own contention in
//     windows and hands each epoch to the delegate whose trade-off fits
//     (speculative when conflicts are rare, locking when writes fight,
//     serial as the livelock escape hatch).
//
// Each engine lives in its own file (tl2.go, tl2striped.go, twopl.go,
// glock.go, adaptive.go) behind the engine/txState interfaces of
// engines.go and registers itself in the engine table; nothing outside
// an engine's file knows its algorithm.
//
// # Allocation contract
//
// The attempt hot path is allocation-free in steady state, values
// included. Attempt state (the Tx handle and each engine's txState,
// including read sets, write sets, undo logs, lock sets and OrElse mark
// scratch) is pooled per engine and reset between attempts, so a warmed
// transaction — including every conflict retry and every OrElse bracket
// — performs Get, Set, commit and rollback without touching the
// allocator. Write and lock sets use a small-set fast path
// (append-ordered slice, linear scan) and only allocate a map index past
// stm.SmallSetSpill entries. Every word an attempt writes for
// bookkeeping — the engine counters, the tl2s clock shard, the adaptive
// engine's window accounting — is striped by the Tx handle's slot, a
// small integer each pooled handle is given round-robin when its engine
// creates it (counter.go): the pool hands a core back the handle it last
// used, so cores keep to their own cache lines instead of contending on
// a shared or mutex-guarded word.
//
// Values flow through the engines as raw machine words (value.go), not
// as `any`: NewTVar classifies the element type once, and Set/Get move
// word-representable values with unsafe word copies instead of interface
// boxing. Zero allocations per operation for:
//
//   - word kinds: ints of every width, floats, bool, and pointer-free
//     structs or arrays up to 8 bytes;
//   - pair kinds: pointer-free types of 9..16 bytes (two-word structs,
//     complex128);
//   - strings (data pointer + length, no copy of the bytes);
//   - pointer kinds: *T, unsafe.Pointer, map, chan, func;
//   - mixed pointer+scalar structs up to 16 bytes whose pointer map is
//     exactly one pointer word (e.g. struct{P *T; N int}, either field
//     order): the pointer rides the GC slot, the scalars ride a data
//     word.
//
// The boxed fallback — interface-kind element types (TVar[any],
// TVar[error]) and types the words cannot carry (multi-pointer or
// >16-byte structs, slices) — keeps exactly the pre-word semantics and
// allocates one box per Set; it is the contract's only exemption, and it
// is per-TVar-type, never per engine. stm/alloc_test.go pins the
// contract per engine and per value kind with testing.AllocsPerRun.
//
// Usage:
//
//	eng := stm.NewEngine(stm.EngineTL2)
//	x := stm.NewTVar[int](0)
//	err := eng.Atomically(func(tx *stm.Tx) error {
//	    v := stm.Get(tx, x)
//	    stm.Set(tx, x, v+1)
//	    return nil
//	})
//
// Transactions retry automatically on conflicts; an error returned by the
// transaction function aborts the transaction (all writes rolled back)
// and is returned to the caller.
package stm

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// EngineKind selects a concurrency-control algorithm.
type EngineKind int

const (
	// EngineTL2 is the speculative global-version-clock engine.
	EngineTL2 EngineKind = iota
	// EngineTL2Striped is TL2 with a striped version clock.
	EngineTL2Striped
	// EngineTwoPL is the encounter-time locking engine.
	EngineTwoPL
	// EngineGlobalLock serializes all transactions on one mutex.
	EngineGlobalLock
	// EngineAdaptive samples its own contention and delegates each
	// epoch to the engine whose PCL trade-off fits the current regime.
	EngineAdaptive

	engineKindCount // sentinel: keep last
)

// String returns the engine's short name.
func (k EngineKind) String() string {
	if k < 0 || k >= engineKindCount || engineTable[k].make == nil {
		return "unknown"
	}
	return engineTable[k].name
}

// Doc returns a one-line description of the engine's algorithm and the
// PCL corner it gives up.
func (k EngineKind) Doc() string {
	if k < 0 || k >= engineKindCount {
		return ""
	}
	return engineTable[k].doc
}

// EngineKinds lists all registered engines in declaration order.
func EngineKinds() []EngineKind {
	out := make([]EngineKind, 0, engineKindCount)
	for k := EngineKind(0); k < engineKindCount; k++ {
		if engineTable[k].make != nil {
			out = append(out, k)
		}
	}
	return out
}

// EngineByName resolves a short name; ok=false if unknown.
func EngineByName(name string) (EngineKind, bool) {
	for _, k := range EngineKinds() {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// Stats counts engine activity. All fields are cumulative.
type Stats struct {
	// Commits is the number of committed transactions.
	Commits uint64
	// Aborts is the number of user-error aborts.
	Aborts uint64
	// Retries is the number of attempts a conflict unwound and re-ran:
	// contention, and nothing else.
	Retries uint64
	// Waits is the number of attempts that parked in Retry until another
	// commit woke them — a consumer idling on an empty queue, not a
	// conflict.
	Waits uint64
	// LockFails is the number of failed lock acquisitions (2PL
	// encounter-time try-locks, TL2 commit-time versioned locks) — the
	// raw contention signal the adaptive engine switches on. Zero for
	// engines that never fail an acquisition.
	LockFails uint64
}

// Engine executes transactions under one concurrency-control algorithm.
// Engines are safe for concurrent use; TVars may be shared between
// engines only if every access goes through the same engine.
type Engine struct {
	kind EngineKind
	impl engine    // the algorithm (owns clocks, locks, shared state)
	rec  *Recorder // attempt-log sink (record.go); nil when not recording
	// txPool recycles the public Tx handles; each engine pools its own
	// txStates behind engine.done. A new handle takes the next of
	// slotMask+1 slots round-robin from nextSlot, and the counters are
	// striped by slot so disjoint committers don't rendezvous on a stats
	// word (counter.go).
	txPool   sync.Pool
	nextSlot atomic.Uint64
	slotMask int
	commits  stripedCounter
	aborts   stripedCounter
	retries  stripedCounter
	waits    stripedCounter
	notif    notifier // wakes Retry-blocked transactions; seq on its own line
}

// newEngineShell wires the engine-independent parts (counters, notifier,
// options); shared by NewEngine and the unregistered test engines in
// broken.go.
func newEngineShell(kind EngineKind, impl engine, opts ...Option) *Engine {
	e := &Engine{kind: kind, impl: impl}
	e.commits = newStripedCounter()
	e.aborts = newStripedCounter()
	e.retries = newStripedCounter()
	e.waits = newStripedCounter()
	e.slotMask = e.commits.mask
	e.notif.init()
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// NewEngine creates an engine of the given kind. It panics on a kind that
// is not registered (i.e. not returned by EngineKinds). Options such as
// WithRecorder configure the engine before first use.
func NewEngine(kind EngineKind, opts ...Option) *Engine {
	if kind < 0 || kind >= engineKindCount || engineTable[kind].make == nil {
		panic("stm: NewEngine: unknown engine kind")
	}
	return newEngineShell(kind, engineTable[kind].make(), opts...)
}

// Kind returns the engine's algorithm.
func (e *Engine) Kind() EngineKind { return e.kind }

// Stats returns a snapshot of the engine's counters. The striped sums are
// exact when the engine is quiescent and at most momentarily stale under
// concurrent load.
func (e *Engine) Stats() Stats {
	st := Stats{
		Commits: e.commits.sum(),
		Aborts:  e.aborts.sum(),
		Retries: e.retries.sum(),
		Waits:   e.waits.sum(),
	}
	if c, ok := e.impl.(lockFailCounter); ok {
		st.LockFails = c.lockFailCount()
	}
	return st
}

// RegimeStats is one delegate engine's share of an adaptive engine's
// work.
type RegimeStats struct {
	// Engine is the delegate's short name.
	Engine string `json:"engine"`
	// Commits and Conflicts count attempts finished while the delegate
	// was active.
	Commits   uint64 `json:"commits"`
	Conflicts uint64 `json:"conflicts"`
	// LockFails is the delegate's failed lock acquisitions.
	LockFails uint64 `json:"lock_fails"`
	// Windows is the number of sampling windows closed under the
	// delegate.
	Windows uint64 `json:"windows"`
}

// AdaptiveStats reports an adaptive engine's regime history.
type AdaptiveStats struct {
	// Current is the active delegate's short name.
	Current string `json:"current"`
	// Epoch counts committed regime switches plus one; Switches counts
	// the switches alone.
	Epoch    uint64 `json:"epoch"`
	Switches uint64 `json:"switches"`
	// Regimes breaks the engine's work down per delegate, in ladder
	// order (speculative → locking → serial).
	Regimes []RegimeStats `json:"regimes"`
}

// AdaptiveStats returns the per-regime breakdown of an EngineAdaptive
// engine; ok is false for every other kind.
func (e *Engine) AdaptiveStats() (AdaptiveStats, bool) {
	a, ok := e.impl.(*adaptiveEngine)
	if !ok {
		return AdaptiveStats{}, false
	}
	return a.snapshotStats(), true
}

// tvar is the untyped transactional variable all engines share: an
// allocation-ordered id (stable lock and orec-hash input), a TL2
// versioned lock word, and the current value in raw-word form — two
// inline atomic data words plus one GC-visible pointer slot, interpreted
// per the variable's valueKind (value.go). Publishing a
// word-representable value overwrites the words in place; nothing
// allocates.
//
// Consistency of multi-word ("wide": pair and string kinds) values is a
// seqlock discipline with two guards, one per publication regime:
//
//   - TL2 commits publish while the versioned lock's locked bit is set
//     and release by storing a fresh version, so any unlocked reader
//     whose before/after loads of the lock word agree saw untorn words.
//   - In-place engines (2PL, glock, undo rollbacks) publish inside an
//     odd/even bracket on the dedicated seq word. They cannot reuse the
//     versioned lock for this: restoring the same version would let a
//     reader's before/after check pass across a write (ABA), and minting
//     a new version would push the variable past the TL2 clock — after
//     an adaptive regime switch back to tl2s, every read of the variable
//     would fail validation forever.
//
// Narrow kinds are immune by construction: their single word is stored
// and loaded with one atomic op.
type tvar struct {
	id   uint64
	kind valueKind
	lock atomic.Uint64 // bit 63 = locked, low bits = version (TL2 engines)
	seq  atomic.Uint64 // wide-value seqlock for in-place publishes (odd = mid-write)
	w0   atomic.Uint64
	w1   atomic.Uint64
	p    atomic.Pointer[byte] // GC-visible slot: string data / pointer / *any box
}

const lockedBit = uint64(1) << 63

func version(word uint64) uint64 { return word &^ lockedBit }
func isLocked(word uint64) bool  { return word&lockedBit != 0 }

var tvarIDs atomic.Uint64

func newTVar(kind valueKind, initial vword) *tvar {
	tv := &tvar{id: tvarIDs.Add(1), kind: kind}
	tv.storeWords(initial)
	return tv
}

// storeWords writes only the words the kind uses, with no tearing guard;
// callers wrap it in whichever discipline their regime requires.
func (tv *tvar) storeWords(w vword) {
	switch tv.kind {
	case kindWord:
		tv.w0.Store(w.w0)
	case kindPair:
		tv.w0.Store(w.w0)
		tv.w1.Store(w.w1)
	case kindString, kindPtrLo, kindPtrHi:
		tv.p.Store((*byte)(w.p))
		tv.w0.Store(w.w0)
	default: // kindPointer, kindBoxed
		tv.p.Store((*byte)(w.p))
	}
}

// loadWords reads the words with no tearing guard; callers either hold
// write authority or bracket the call with a seqlock validation.
func (tv *tvar) loadWords() vword {
	switch tv.kind {
	case kindWord:
		return vword{w0: tv.w0.Load()}
	case kindPair:
		return vword{w0: tv.w0.Load(), w1: tv.w1.Load()}
	case kindString, kindPtrLo, kindPtrHi:
		return vword{w0: tv.w0.Load(), p: unsafe.Pointer(tv.p.Load())}
	default:
		return vword{p: unsafe.Pointer(tv.p.Load())}
	}
}

// publish stores w as the variable's current value from an in-place
// engine (2PL, glock, an undo rollback, the broken test engines). The
// caller holds the variable's write authority (orec or global mutex), so
// the only concurrent readers are unsynchronized ones (Peek); wide kinds
// bracket the stores with the seq word so those readers detect tearing,
// narrow kinds are one atomic store. TL2 commits use publishLocked.
func (tv *tvar) publish(w vword) {
	if !tv.kind.wide() {
		tv.storeWords(w)
		return
	}
	tv.seq.Add(1) // odd: write in progress
	tv.storeWords(w)
	tv.seq.Add(1) // even: complete
}

// publishLocked stores w while the caller holds the variable's versioned
// lock (TL2 commit). The locked bit is already visible to every reader
// and the release will publish a fresh version, so the words go in bare.
func (tv *tvar) publishLocked(w vword) {
	tv.storeWords(w)
}

// read returns the variable's current value as a consistent word
// snapshot, from any context — including outside every lock (Peek). Wide
// kinds validate both seqlock guards around the loads; narrow kinds are
// a single atomic load.
func (tv *tvar) read() vword {
	if !tv.kind.wide() {
		return tv.loadWords()
	}
	for {
		s1 := tv.seq.Load()
		l1 := tv.lock.Load()
		if s1&1 != 0 || isLocked(l1) {
			runtime.Gosched()
			continue
		}
		w := tv.loadWords()
		if tv.seq.Load() == s1 && tv.lock.Load() == l1 {
			return w
		}
		runtime.Gosched()
	}
}

// TVar is a typed transactional variable.
type TVar[T any] struct {
	inner *tvar
}

// NewTVar allocates a transactional variable holding initial. The
// element type is classified here, once: word-representable types (see
// value.go) flow through Get/Set as raw machine words and never box;
// interface kinds and types the words cannot carry use the boxed
// fallback, with exactly the pre-word semantics and cost.
func NewTVar[T any](initial T) *TVar[T] {
	kind := classify(reflect.TypeFor[T]())
	return &TVar[T]{inner: newTVar(kind, encode(kind, &initial))}
}

// Get reads the variable inside a transaction. The op is recorded after
// the load returns, so the logged value is exactly the one observed; the
// value is rematerialized for the record only when recording is on, so
// the off path stays free of interface traffic.
func Get[T any](tx *Tx, tv *TVar[T]) T {
	v := decode[T](tv.inner.kind, tx.st.load(tv.inner))
	if tx.rec != nil {
		tx.rec.note(false, tv.inner.id, v)
	}
	return v
}

// Set writes the variable inside a transaction, encoding the value into
// raw-word form at the API boundary — word-representable types cross the
// engine pipeline (write set, undo log, publication) without touching
// the allocator. The op is recorded after the store returns, so an
// encounter-time lock failure (which unwinds the attempt from inside
// store) leaves no half-completed write in the log.
func Set[T any](tx *Tx, tv *TVar[T], v T) {
	tx.st.store(tv.inner, encode(tv.inner.kind, &v))
	if tx.rec != nil {
		tx.rec.note(true, tv.inner.id, v)
	}
}

// Peek reads the variable outside any transaction. The value is a
// consistent single-variable snapshot (wide values go through the
// seqlock read protocol); cross-variable invariants need a transaction.
func (tv *TVar[T]) Peek() T {
	return decode[T](tv.inner.kind, tv.inner.read())
}

// Tx is one transaction attempt handle. It is only valid inside the
// function passed to Atomically and must not be retained or shared: the
// handle and the engine state behind it are pooled and reused by later
// attempts. All operations delegate to the engine-specific txState.
type Tx struct {
	st   txState
	rec  *AttemptRecord // op log of this attempt; nil when not recording
	slot int            // stripe of every bookkeeping word its attempts write
	// Every attempt writes st and rec, and handles of different engines
	// are allocated side by side, so a handle fills its cache line.
	_ [cacheLine - 32]byte
}

// conflict is panicked to unwind a doomed transaction attempt; Atomically
// recovers it and retries.
type conflict struct{}

// Atomically runs fn as a transaction, retrying on conflicts until it
// commits or fn returns an error (which aborts and is returned).
func (e *Engine) Atomically(fn func(*Tx) error) error {
	return e.AtomicallyAs(0, fn)
}

// AtomicallyAs is Atomically with the calling process named: proc tags
// the attempt records when a Recorder is attached, giving the stamped
// history its per-process structure (the PRAM and processor-consistency
// checkers group transactions by process). Without a recorder, proc is
// ignored.
//
// The Tx handle is taken from the engine's pool once per call and reused
// across conflict retries; each attempt's engine state is likewise pooled
// (engine.done/txState.reset), so the retry loop runs allocation-free in
// steady state. A handle gets its slot when it is created and keeps it.
func (e *Engine) AtomicallyAs(proc int, fn func(*Tx) error) error {
	tx, _ := e.txPool.Get().(*Tx)
	if tx == nil {
		tx = &Tx{slot: int(e.nextSlot.Add(1)-1) & e.slotMask}
	}
	slot := tx.slot
	for attempt := 0; ; attempt++ {
		err, again := e.once(tx, fn, attempt, proc)
		switch again {
		case conflicted:
			e.retries.add(slot, 1)
			continue
		case woken:
			e.waits.add(slot, 1)
			continue
		}
		tx.st, tx.rec = nil, nil
		e.txPool.Put(tx)
		if err != nil {
			e.aborts.add(slot, 1)
			return err
		}
		e.commits.add(slot, 1)
		return nil
	}
}

// rerun says why an attempt has to run again, if it has to.
type rerun uint8

const (
	finished   rerun = iota // committed, or aborted with the user's error
	conflicted              // unwound by a conflict
	woken                   // parked in Retry, then woken by a commit
)

// once runs a single attempt and reports whether a conflict or an
// explicit Retry unwound it. Recording hooks bracket the attempt: the
// begin stamp is taken before the engine snapshots or locks anything, the end stamp
// after a successful commit has published (or after cleanup rolled back),
// so stamped real-time precedence is always genuine (see record.go).
// Every terminal path hands the attempt state back to the engine's pool
// via engine.done — after cleanup has released what the state held, and
// after the last read of it (wrote) — except a user panic, which drops
// the state rather than risk pooling mid-unwind.
func (e *Engine) once(tx *Tx, fn func(*Tx) error, attempt, proc int) (err error, again rerun) {
	seq0 := e.notif.snapshot()
	var ar *AttemptRecord
	if e.rec != nil {
		ar = e.rec.beginAttempt(proc, attempt)
	}
	tx.st, tx.rec = e.impl.begin(attempt, tx.slot), ar

	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case conflict:
				tx.st.conflictCleanup()
				ar.finish(AttemptConflicted)
				e.impl.done(tx.st)
				tx.st = nil
				err, again = nil, conflicted
			case retrySignal:
				// Drop everything, then sleep until shared state moves.
				if rc, ok := tx.st.(retryCleaner); ok {
					rc.retryCleanup()
				} else {
					tx.st.conflictCleanup()
				}
				ar.finish(AttemptWaited)
				e.impl.done(tx.st)
				tx.st = nil
				e.notif.waitChange(seq0)
				err, again = nil, woken
			default:
				tx.st.abortCleanup()
				ar.finish(AttemptAborted)
				tx.st = nil
				panic(r)
			}
		}
	}()

	if ferr := fn(tx); ferr != nil {
		tx.st.abortCleanup()
		ar.finish(AttemptAborted)
		e.impl.done(tx.st)
		tx.st = nil
		return ferr, finished
	}
	if !tx.st.commit() {
		ar.finish(AttemptConflicted)
		e.impl.done(tx.st)
		tx.st = nil
		return nil, conflicted
	}
	ar.finish(AttemptCommitted)
	wrote := tx.st.wrote()
	e.impl.done(tx.st)
	tx.st = nil
	if wrote {
		e.notif.bump()
	}
	return nil, finished
}
