package stm

import (
	"sync"
	"sync/atomic"
)

func init() {
	registerEngine(EngineAdaptive, "adaptive",
		"contention-sampled delegation: tl2s when conflicts are rare, twopl under write contention, glock as livelock escape",
		func() engine { return newAdaptiveEngine() })
}

// The PCL theorem says no single engine wins every regime, so this one
// changes engine with the regime: it runs every transaction through a
// delegate and samples its own behavior — conflict rate, the read/write
// operation mix, and lock-acquire failure deltas — in fixed-size
// windows of finished attempts. A regime policy with hysteresis turns those windows
// into a position on the delegate ladder:
//
//	regimeLow    EngineTL2Striped  low contention / read-dominated
//	regimeHigh   EngineTwoPL       sustained write contention
//	regimeSerial EngineGlobalLock  livelock escape hatch
//
// Delegates share the tvars but not a synchronization protocol (TL2
// validates version words that 2PL never bumps; 2PL writes in place
// where TL2 buffers), so two delegates must never run concurrently.
// Switches are therefore epoch-based: a decided switch first drains —
// in-flight attempts finish on the old delegate while new begins block —
// and only commits (epoch++, delegate swapped) once the engine is idle.
// Within an epoch exactly one delegate runs, and each delegate is
// internally consistent, so the composition stays strictly serializable.
const (
	regimeLow = iota
	regimeHigh
	regimeSerial
	regimeCount
)

// regimeKinds maps ladder positions to delegate engines.
var regimeKinds = [regimeCount]EngineKind{EngineTL2Striped, EngineTwoPL, EngineGlobalLock}

// windowMetrics summarizes one closed sampling window.
type windowMetrics struct {
	// attempts = commits + conflicts + user aborts + waits.
	attempts uint64
	// commits and conflicts count finished attempts by outcome.
	commits, conflicts uint64
	// loads and stores count transactional operations, for the
	// read/write mix.
	loads, stores uint64
	// lockFails is the delegate's failed-acquisition delta over the
	// window.
	lockFails uint64
}

// conflictRate is the fraction of attempts that died to a conflict —
// the policy's primary signal.
func (m windowMetrics) conflictRate() float64 {
	if m.attempts == 0 {
		return 0
	}
	return float64(m.conflicts) / float64(m.attempts)
}

// writeFraction is the share of operations that were stores.
func (m windowMetrics) writeFraction() float64 {
	if m.loads+m.stores == 0 {
		return 0
	}
	return float64(m.stores) / float64(m.loads+m.stores)
}

// lockFailRate is failed lock acquisitions per attempt; it can exceed 1
// when one attempt bounces off several records, which is exactly the
// try-lock failure storm the escalation rule looks for.
func (m windowMetrics) lockFailRate() float64 {
	if m.attempts == 0 {
		return 0
	}
	return float64(m.lockFails) / float64(m.attempts)
}

// regimePolicy turns a stream of window metrics into ladder moves. It is
// deterministic given the window sequence, which is what the synthetic-
// window tests rely on.
type regimePolicy struct {
	// window is the number of finished attempts per sampling window.
	window uint64
	// high and low are the conflict-rate water marks; the gap between
	// them is the hysteresis band where streaks reset and nothing moves.
	high, low float64
	// minWriteFrac keeps read-dominated workloads on the speculative
	// engine even when conflicted: stale-read conflicts are what lazy
	// snapshot extension is for, and locking every read would serialize
	// the readers 2PL is worst at.
	minWriteFrac float64
	// escalate is the contention level — conflict rate or try-lock
	// failures per attempt, whichever is higher — at which the locking
	// regime is judged to be livelocking (symmetric try-lock failure
	// storms) and flees to the serial engine.
	escalate float64
	// needUp / needDown are the consecutive-window streaks required to
	// move up / down the ladder — the other half of the hysteresis.
	needUp, needDown int
	// cooldown is the number of windows ignored after a committed
	// switch, so the new delegate's warm-up doesn't trigger the next
	// move.
	cooldown int

	hot, cold, fleeing, settle int
}

// defaultPolicy's constants: windows small enough to react within a few
// hundred transactions; moving up needs two bad windows, moving down
// four good ones (switching down is cheap to regret, thrashing is not).
func defaultPolicy() regimePolicy {
	return regimePolicy{
		window:       128,
		high:         0.35,
		low:          0.05,
		minWriteFrac: 0.10,
		escalate:     0.90,
		needUp:       2,
		needDown:     4,
		cooldown:     2,
	}
}

// reset clears the streaks and starts the post-switch cooldown; the
// engine calls it when a switch commits.
func (p *regimePolicy) reset() {
	p.hot, p.cold, p.fleeing = 0, 0, 0
	p.settle = p.cooldown
}

// decide consumes one window and returns the regime to run next; a
// return equal to cur means stay.
func (p *regimePolicy) decide(cur int, m windowMetrics) int {
	if p.settle > 0 {
		p.settle--
		return cur
	}
	cr := m.conflictRate()
	switch {
	case cr > p.high && (m.writeFraction() >= p.minWriteFrac || cur != regimeLow):
		p.hot++
		p.cold = 0
	case cr < p.low:
		p.cold++
		p.hot, p.fleeing = 0, 0
	default:
		p.hot, p.cold, p.fleeing = 0, 0, 0
	}
	if cur == regimeHigh && (cr > p.escalate || m.lockFailRate() > p.escalate) {
		p.fleeing++
	} else {
		p.fleeing = 0
	}
	switch cur {
	case regimeLow:
		if p.hot >= p.needUp {
			return regimeHigh
		}
	case regimeHigh:
		if p.fleeing >= p.needUp {
			return regimeSerial
		}
		if p.cold >= p.needDown {
			return regimeLow
		}
	case regimeSerial:
		// The serial engine never conflicts, so every window is cold and
		// the ladder probes back down after needDown windows.
		if p.cold >= p.needDown {
			return regimeHigh
		}
	}
	return cur
}

// slotRecord is one slot's share of the window accounting: every
// counter an attempt bumps, together, on cache lines no other slot's
// record touches (counter.go). All fields are cumulative; inflight is
// begun minus finished, and a begin and its finish always land on the
// same record, so the sum over records is the epoch's in-flight count.
type slotRecord struct {
	inflight, attempts, loads, stores atomic.Uint64
	// commits and conflicts are split by the regime that was active when
	// the attempt began.
	commits, conflicts [regimeCount]atomic.Uint64
	// Pad to two full lines; a slice of records is one power-of-two-
	// sized allocation, which Go's allocator aligns to its size.
	_ [2*cacheLine - (4+2*regimeCount)*8]byte
}

// regimeTotals is the part of one delegate's share of the engine's work
// that is charged at window close, under the engine mutex; its commits
// and conflicts live in the slot records.
type regimeTotals struct {
	lockFails, windows uint64
}

// The window accounting is the adaptive engine's own hot path: every
// begin and finish used to take the engine mutex, which made the engine
// that exists to exploit disjoint-access parallelism serialize all its
// attempts on one lock. Begin and finish now touch only the attempt's
// own slot record:
//
//   - begin increments its record's inflight count, then re-checks for
//     a pending switch; the increment-before-check pairs with the switch
//     committer's decide-then-sum (both seq-cst), so either the beginner
//     sees the pending switch and backs out, or the drain sees the
//     beginner and waits — the epoch invariant survives without a lock.
//   - finish bumps its record's cumulative counters (attempts, loads,
//     stores, per-regime commits/conflicts) and decrements inflight.
//     Window metrics are deltas of the sums over records against bases
//     snapped at the last close, so no per-attempt mutable window
//     struct exists at all. Every `every` attempts of its own record
//     (window / records), finish sums the attempts over all records to
//     see whether the window is full: a window closes at most a few
//     checks past its boundary however the attempts spread over slots,
//     and no attempt scans the other records on the way.
//
// The mutex remains on the cold paths only: committing a switch,
// closing a window (once per `window` attempts, elected by a CAS so the
// scan-and-close never stampedes), and stats snapshots. Because the
// deltas are read while other attempts finish, a window's metrics can be
// off by the handful of attempts in flight at close time — noise well
// under the policy's hysteresis, and the price of a lock-free hot path.
type adaptiveEngine struct {
	mu   sync.Mutex // cold paths: switch commit, window close, stats
	cond *sync.Cond

	delegates [regimeCount]engine
	// cur is the active regime; target != cur means a switch is decided
	// and draining.
	cur, target atomic.Int32

	// slots holds the hot-path counters, one record per slot (mask+1 of
	// them); finish checks the window boundary every `every` attempts of
	// its own record.
	slots   []slotRecord
	mask    int
	every   uint64
	regimes [regimeCount]regimeTotals

	// baseAttempts is read racily by finish for the boundary check, so
	// it is atomic; the remaining bases are only touched under mu.
	baseAttempts               atomic.Uint64
	baseCommits, baseConflicts uint64
	baseLoads, baseStores      uint64
	lockFailBase               uint64
	closing                    atomic.Bool // window-close election
	policy                     regimePolicy
	epoch, switches            uint64

	pool sync.Pool
}

func newAdaptiveEngine() *adaptiveEngine {
	n := StripeCount()
	a := &adaptiveEngine{policy: defaultPolicy(), slots: make([]slotRecord, n), mask: n - 1}
	a.every = max(1, a.policy.window/uint64(n))
	a.cond = sync.NewCond(&a.mu)
	for r, kind := range regimeKinds {
		a.delegates[r] = engineTable[kind].make()
	}
	return a
}

// inflight and attempts sum one counter over the slot records (mod
// 2^64) for the drain and the window-boundary check.
func (a *adaptiveEngine) inflight() uint64 {
	var n uint64
	for i := range a.slots {
		n += a.slots[i].inflight.Load()
	}
	return n
}

func (a *adaptiveEngine) attempts() uint64 {
	var n uint64
	for i := range a.slots {
		n += a.slots[i].attempts.Load()
	}
	return n
}

// slotTotals is the sum of the slot records' cumulative counters.
type slotTotals struct {
	attempts, loads, stores uint64
	commits, conflicts      [regimeCount]uint64
}

// totals sums every slot record, for the cold paths (window close,
// switch, stats).
func (a *adaptiveEngine) totals() slotTotals {
	var t slotTotals
	for i := range a.slots {
		s := &a.slots[i]
		t.attempts += s.attempts.Load()
		t.loads += s.loads.Load()
		t.stores += s.stores.Load()
		for r := range t.commits {
			t.commits[r] += s.commits[r].Load()
			t.conflicts[r] += s.conflicts[r].Load()
		}
	}
	return t
}

// lockFailsOf reads a delegate's cumulative failed acquisitions (0 for
// delegates without the counter).
func (a *adaptiveEngine) lockFailsOf(r int) uint64 {
	if c, ok := a.delegates[r].(lockFailCounter); ok {
		return c.lockFailCount()
	}
	return 0
}

// lockFailCount implements lockFailCounter by summing the delegates.
func (a *adaptiveEngine) lockFailCount() uint64 {
	var sum uint64
	for r := range a.delegates {
		sum += a.lockFailsOf(r)
	}
	return sum
}

// begin enters the current epoch. The fast path is lock-free: announce
// the attempt in its slot record's inflight count, then confirm no
// switch is pending. If one is, back out and block until the last
// old-epoch attempt finishes; the first begin to observe the drained
// engine commits the switch.
func (a *adaptiveEngine) begin(attempt, slot int) txState {
	tx, _ := a.pool.Get().(*adaptiveTx)
	if tx == nil {
		tx = &adaptiveTx{a: a}
	}
	rec := &a.slots[slot&a.mask]
	for {
		rec.inflight.Add(1)
		// Triple read: cur, target, cur again — proceed only if all
		// three agree. Two reads are not enough: a drain whose record
		// scan raced (and missed) our increment can commit its switch at
		// any later moment, and after a full window on the new delegate
		// the policy may store a target pointing back at our stale cur,
		// making a cur/target pair look quiescent across two committed
		// epochs. The re-read of cur closes that: once our increment is
		// visible, every subsequent drain scan sees it and blocks, so at
		// most the one racing switch can commit over us — and it flips
		// cur, which one of the two cur reads must then observe (cur
		// cannot flip away and back across the re-read, because the
		// return trip's drain would need our own inflight to reach 0).
		cur := a.cur.Load()
		if a.target.Load() == cur && a.cur.Load() == cur {
			// No switch pending at a point after our announcement: a
			// switch decided from here on must drain past our inflight
			// increment, so running on delegates[cur] is epoch-safe.
			tx.regime, tx.rec = int(cur), rec
			// The delegate's begin may block (glock) or sleep (2PL
			// backoff); it runs outside any engine lock.
			tx.st = a.delegates[cur].begin(attempt, slot)
			return tx
		}
		rec.inflight.Add(^uint64(0))
		a.awaitSwitch()
	}
}

// awaitSwitch blocks while a decided switch drains, and commits it once
// the epoch is empty.
func (a *adaptiveEngine) awaitSwitch() {
	a.mu.Lock()
	for a.target.Load() != a.cur.Load() && a.inflight() > 0 {
		a.cond.Wait()
	}
	if t := a.target.Load(); t != a.cur.Load() {
		// Drained: commit the switch. The old delegate is idle, so the
		// new one takes over a quiescent heap.
		a.cur.Store(t)
		a.epoch++
		a.switches++
		a.resetWindowLocked(int(t))
		a.policy.reset()
		a.cond.Broadcast()
	}
	a.mu.Unlock()
}

// resetWindowLocked discards the open window by re-basing every delta at
// the counters' current sums. Called with mu held.
func (a *adaptiveEngine) resetWindowLocked(r int) {
	t := a.totals()
	a.baseAttempts.Store(t.attempts)
	a.baseCommits, a.baseConflicts = t.commits[r], t.conflicts[r]
	a.baseLoads, a.baseStores = t.loads, t.stores
	a.lockFailBase = a.lockFailsOf(r)
}

// outcomes of one finished attempt. Only commits and conflicts move the
// policy's signals; aborts (user errors) and waits (explicit Retry)
// count as attempts alone, so a Retry-blocked consumer never reads as
// contention.
const (
	outcomeCommit = iota
	outcomeConflict
	outcomeAbort
	outcomeWait
)

// finish retires one attempt: cumulative bumps on its slot record, the
// epoch exit, and — every `every` attempts of that record, when the
// window boundary is crossed with no switch pending — an elected window
// close.
func (a *adaptiveEngine) finish(tx *adaptiveTx, outcome int) {
	rec := tx.rec
	switch outcome {
	case outcomeCommit:
		rec.commits[tx.regime].Add(1)
	case outcomeConflict:
		rec.conflicts[tx.regime].Add(1)
	}
	rec.loads.Add(tx.loads)
	rec.stores.Add(tx.stores)
	n := rec.attempts.Add(1)
	rec.inflight.Add(^uint64(0))
	if a.target.Load() != a.cur.Load() {
		// A switch is draining; if this was the last in-flight attempt,
		// wake the begins blocked on the epoch boundary.
		a.mu.Lock()
		if a.inflight() == 0 {
			a.cond.Broadcast()
		}
		a.mu.Unlock()
		return
	}
	if n%a.every == 0 && a.attempts()-a.baseAttempts.Load() >= a.policy.window {
		a.tryCloseWindow()
	}
}

// tryCloseWindow elects one closer by CAS, re-checks the boundary under
// the mutex and closes the window. Losing the election is fine: the
// winner is about to close it.
func (a *adaptiveEngine) tryCloseWindow() {
	if !a.closing.CompareAndSwap(false, true) {
		return
	}
	a.mu.Lock()
	if a.target.Load() == a.cur.Load() &&
		a.attempts()-a.baseAttempts.Load() >= a.policy.window {
		a.closeWindowLocked()
	}
	a.mu.Unlock()
	a.closing.Store(false)
}

// closeWindowLocked seals the open window (deltas of the cumulative
// sums against the bases), charges it to the active regime, and asks the
// policy for a move. Called with a.mu held and no switch pending.
func (a *adaptiveEngine) closeWindowLocked() {
	cur := int(a.cur.Load())
	t := a.totals()
	lf := a.lockFailsOf(cur)
	m := windowMetrics{
		attempts:  t.attempts - a.baseAttempts.Load(),
		commits:   t.commits[cur] - a.baseCommits,
		conflicts: t.conflicts[cur] - a.baseConflicts,
		loads:     t.loads - a.baseLoads,
		stores:    t.stores - a.baseStores,
		lockFails: lf - a.lockFailBase,
	}
	a.regimes[cur].lockFails += m.lockFails
	a.regimes[cur].windows++
	a.baseAttempts.Store(t.attempts)
	a.baseCommits, a.baseConflicts = t.commits[cur], t.conflicts[cur]
	a.baseLoads, a.baseStores = t.loads, t.stores
	a.lockFailBase = lf
	if next := a.policy.decide(cur, m); next != cur {
		// Decided, not committed: the switch takes effect at the first
		// begin after the epoch drains.
		a.target.Store(int32(next))
	}
}

// snapshotStats backs Engine.AdaptiveStats.
func (a *adaptiveEngine) snapshotStats() AdaptiveStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := AdaptiveStats{
		Current:  regimeKinds[a.cur.Load()].String(),
		Epoch:    a.epoch + 1,
		Switches: a.switches,
	}
	t := a.totals()
	for r := range a.regimes {
		rt := &a.regimes[r]
		out.Regimes = append(out.Regimes, RegimeStats{
			Engine:    regimeKinds[r].String(),
			Commits:   t.commits[r],
			Conflicts: t.conflicts[r],
			LockFails: rt.lockFails,
			Windows:   rt.windows,
		})
	}
	return out
}

// done returns an attempt's state: the delegate's inner state to the
// delegate's pool, the wrapper to this engine's.
func (a *adaptiveEngine) done(st txState) {
	tx := st.(*adaptiveTx)
	a.delegates[tx.regime].done(tx.st)
	tx.reset()
	a.pool.Put(tx)
}

// adaptiveTx wraps one delegate attempt, counting its operations for the
// sampling window and retiring it from the epoch on every terminal path.
type adaptiveTx struct {
	a      *adaptiveEngine
	st     txState
	regime int
	rec    *slotRecord // the attempt's slot record, from begin
	loads  uint64
	stores uint64
}

func (tx *adaptiveTx) reset() {
	tx.st = nil
	tx.loads, tx.stores = 0, 0
}

func (tx *adaptiveTx) load(tv *tvar) vword {
	tx.loads++
	return tx.st.load(tv)
}

func (tx *adaptiveTx) store(tv *tvar, v vword) {
	tx.stores++
	tx.st.store(tv, v)
}

func (tx *adaptiveTx) commit() bool {
	ok := tx.st.commit()
	if ok {
		tx.a.finish(tx, outcomeCommit)
	} else {
		tx.a.finish(tx, outcomeConflict)
	}
	return ok
}

func (tx *adaptiveTx) abortCleanup() {
	tx.st.abortCleanup()
	tx.a.finish(tx, outcomeAbort)
}

func (tx *adaptiveTx) conflictCleanup() {
	tx.st.conflictCleanup()
	tx.a.finish(tx, outcomeConflict)
}

// retryCleanup unwinds an explicit Retry: the delegate releases exactly
// as for a conflict, but the window records a wait, not contention.
func (tx *adaptiveTx) retryCleanup() {
	tx.st.conflictCleanup()
	tx.a.finish(tx, outcomeWait)
}

func (tx *adaptiveTx) wrote() bool { return tx.st.wrote() }

func (tx *adaptiveTx) mark() txMark { return tx.st.mark() }

func (tx *adaptiveTx) rollbackTo(m txMark) { tx.st.rollbackTo(m) }
