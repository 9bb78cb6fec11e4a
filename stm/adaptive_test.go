package stm

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// syntheticWindow builds a windowMetrics with the given conflict rate
// and write fraction out of 100 attempts / 1000 operations.
func syntheticWindow(conflictRate, writeFraction float64) windowMetrics {
	conflicts := uint64(conflictRate * 100)
	stores := uint64(writeFraction * 1000)
	return windowMetrics{
		attempts:  100,
		commits:   100 - conflicts,
		conflicts: conflicts,
		loads:     1000 - stores,
		stores:    stores,
	}
}

// TestAdaptivePolicySwitchAndHysteresis drives the regime policy with
// synthetic windows: one hot window must not switch (hysteresis), a
// sustained streak must, and the post-switch cooldown plus the needDown
// streak govern the way back.
func TestAdaptivePolicySwitchAndHysteresis(t *testing.T) {
	p := defaultPolicy()
	hot := syntheticWindow(0.6, 0.4)
	cold := syntheticWindow(0.0, 0.4)
	mid := syntheticWindow((p.high+p.low)/2, 0.4)

	if got := p.decide(regimeLow, hot); got != regimeLow {
		t.Fatalf("one hot window switched immediately: got %d", got)
	}
	// A mid-band window resets the streak: the next hot window counts as
	// the first again.
	if got := p.decide(regimeLow, mid); got != regimeLow {
		t.Fatalf("mid-band window moved the regime: got %d", got)
	}
	if got := p.decide(regimeLow, hot); got != regimeLow {
		t.Fatalf("hot streak survived a mid-band window: got %d", got)
	}
	if got := p.decide(regimeLow, hot); got != regimeHigh {
		t.Fatalf("%d consecutive hot windows did not switch up", p.needUp)
	}

	// The engine resets the policy when the switch commits.
	p.reset()

	// Cooldown: the first windows after a switch are ignored outright.
	for i := 0; i < p.cooldown; i++ {
		if got := p.decide(regimeHigh, cold); got != regimeHigh {
			t.Fatalf("cooldown window %d moved the regime: got %d", i, got)
		}
	}
	// Then needDown cold windows walk back down.
	for i := 0; i < p.needDown-1; i++ {
		if got := p.decide(regimeHigh, cold); got != regimeHigh {
			t.Fatalf("cold window %d switched early: got %d", i, got)
		}
	}
	if got := p.decide(regimeHigh, cold); got != regimeLow {
		t.Fatalf("%d cold windows did not switch back down", p.needDown)
	}
}

// TestAdaptivePolicyReadDominatedStaysSpeculative: conflicts on a
// read-dominated workload are what lazy snapshot extension is for;
// the policy must not flee to locking.
func TestAdaptivePolicyReadDominatedStaysSpeculative(t *testing.T) {
	p := defaultPolicy()
	readHot := syntheticWindow(0.6, p.minWriteFrac/2)
	for i := 0; i < 10; i++ {
		if got := p.decide(regimeLow, readHot); got != regimeLow {
			t.Fatalf("read-dominated hot window %d left the speculative regime: got %d", i, got)
		}
	}
}

// TestAdaptivePolicyEscalatesToSerialAndProbesBack: a try-lock failure
// storm on the locking regime (conflict rate above escalate) must reach
// the serial escape hatch, and the serial regime's conflict-free windows
// must eventually probe back down the ladder.
func TestAdaptivePolicyEscalatesToSerialAndProbesBack(t *testing.T) {
	p := defaultPolicy()
	storm := syntheticWindow(0.95, 0.5)
	calm := syntheticWindow(0, 0.5)

	for i := 0; i < p.needUp-1; i++ {
		if got := p.decide(regimeHigh, storm); got != regimeHigh {
			t.Fatalf("storm window %d escalated early: got %d", i, got)
		}
	}
	if got := p.decide(regimeHigh, storm); got != regimeSerial {
		t.Fatalf("%d storm windows did not escalate to serial", p.needUp)
	}

	p.reset()
	steps := 0
	for ; steps < p.cooldown+p.needDown+1; steps++ {
		if got := p.decide(regimeSerial, calm); got == regimeHigh {
			break
		} else if got != regimeSerial {
			t.Fatalf("serial regime moved to %d, want %d", got, regimeHigh)
		}
	}
	if want := p.cooldown + p.needDown - 1; steps != want {
		t.Fatalf("serial regime probed back after %d windows, want %d", steps+1, want+1)
	}
}

// TestAdaptivePolicyEscalatesOnLockFailStorm: try-lock failures per
// attempt are an escalation signal in their own right, even when the
// per-attempt conflict rate stays below the escalate mark (one attempt
// can bounce off several records before dying once).
func TestAdaptivePolicyEscalatesOnLockFailStorm(t *testing.T) {
	p := defaultPolicy()
	storm := syntheticWindow(0.5, 0.5)
	storm.lockFails = storm.attempts * 2 // lockFailRate 2.0 > escalate
	for i := 0; i < p.needUp-1; i++ {
		if got := p.decide(regimeHigh, storm); got != regimeHigh {
			t.Fatalf("lock-fail storm window %d escalated early: got %d", i, got)
		}
	}
	if got := p.decide(regimeHigh, storm); got != regimeSerial {
		t.Fatalf("%d lock-fail storm windows did not escalate to serial", p.needUp)
	}
}

// TestAdaptiveRetryNotCountedAsConflict: an explicit Retry is a wait,
// not contention — a Retry-blocked consumer must not push the policy's
// conflict rate and trigger spurious switches.
func TestAdaptiveRetryNotCountedAsConflict(t *testing.T) {
	e := NewEngine(EngineAdaptive)
	a := e.impl.(*adaptiveEngine)
	flag := NewTVar[bool](false)
	other := NewTVar[int](0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = e.Atomically(func(tx *Tx) error {
			if !Get(tx, flag) {
				Retry(tx)
			}
			return nil
		})
	}()
	// Wake the waiter repeatedly without satisfying its condition, then
	// satisfy it. The consumer never reads `other`, so none of its
	// attempts can genuinely conflict.
	for i := 0; i < 5; i++ {
		_ = e.Atomically(func(tx *Tx) error { Set(tx, other, i); return nil })
		time.Sleep(time.Millisecond)
	}
	_ = e.Atomically(func(tx *Tx) error { Set(tx, flag, true); return nil })
	<-done
	var conflicts uint64
	for _, n := range a.totals().conflicts {
		conflicts += n
	}
	if conflicts != 0 {
		t.Fatalf("Retry waits were counted as %d conflicts", conflicts)
	}
}

// TestAdaptiveEpochDrainBlocksSwitch checks the handoff invariant: once
// a switch is decided, in-flight transactions finish on the old
// delegate, new begins block, and the switch commits (epoch bump,
// delegate swap) only when the engine is idle — never mid-epoch.
func TestAdaptiveEpochDrainBlocksSwitch(t *testing.T) {
	a := newAdaptiveEngine()
	tx1 := a.begin(0, 0).(*adaptiveTx)
	if tx1.regime != regimeLow {
		t.Fatalf("fresh engine began on regime %d, want %d", tx1.regime, regimeLow)
	}

	// Decide a switch while tx1 is in flight.
	a.mu.Lock()
	a.target.Store(regimeHigh)
	epoch0 := a.epoch
	a.mu.Unlock()

	began := make(chan *adaptiveTx)
	go func() { began <- a.begin(0, a.mask).(*adaptiveTx) }()

	select {
	case <-began:
		t.Fatal("begin crossed a draining epoch boundary")
	case <-time.After(50 * time.Millisecond):
	}

	// The pending switch must not have taken effect mid-epoch.
	a.mu.Lock()
	if a.cur.Load() != regimeLow || a.epoch != epoch0 {
		t.Fatalf("switch committed mid-epoch: cur=%d epoch=%d", a.cur.Load(), a.epoch)
	}
	a.mu.Unlock()

	// Finishing the in-flight transaction drains the epoch; the blocked
	// begin commits the switch and runs on the new delegate.
	if !tx1.commit() {
		t.Fatal("solo transaction failed to commit")
	}
	var tx2 *adaptiveTx
	select {
	case tx2 = <-began:
	case <-time.After(2 * time.Second):
		t.Fatal("begin still blocked after the epoch drained")
	}
	if tx2.regime != regimeHigh {
		t.Fatalf("post-switch begin ran on regime %d, want %d", tx2.regime, regimeHigh)
	}
	a.mu.Lock()
	if a.cur.Load() != regimeHigh || a.epoch != epoch0+1 || a.switches != 1 {
		t.Fatalf("switch bookkeeping: cur=%d epoch=%d switches=%d", a.cur.Load(), a.epoch, a.switches)
	}
	a.mu.Unlock()
	tx2.commit()
}

// TestAdaptiveWindowCadence: finish checks the window boundary only
// every window/slots attempts of its own slot record, so it must still
// close a window about every `window` attempts — when every attempt
// comes from one slot (that slot's checks are the only ones) and when
// attempts spread over every slot (each slot's count reaches a check
// long before the window is full). The engine gets eight slots whatever
// the box, so the spread case is never the one-slot case in disguise.
func TestAdaptiveWindowCadence(t *testing.T) {
	const slots, windows = 8, 20
	for name, slotOf := range map[string]func(i int) int{
		"one slot":  func(int) int { return 3 },
		"all slots": func(i int) int { return i % slots },
	} {
		t.Run(name, func(t *testing.T) {
			a := newAdaptiveEngine()
			a.slots, a.mask = make([]slotRecord, slots), slots-1
			a.every = a.policy.window / slots
			n := int(a.policy.window) * windows
			for i := 0; i < n; i++ {
				tx := a.begin(0, slotOf(i))
				if !tx.commit() {
					t.Fatal("solo empty transaction failed to commit")
				}
				a.done(tx)
				// A window closes only once it is full, and by the next
				// check after: at most `window` attempts later.
				closed := a.regimes[regimeLow].windows
				if full := uint64(i+1) / a.policy.window; closed > full || closed+1 < full {
					t.Fatalf("after %d attempts %d windows closed, want %d (or one fewer)", i+1, closed, full)
				}
			}
			if got := a.regimes[regimeLow].windows; got != windows {
				t.Errorf("%d attempts closed %d windows, want %d", n, got, windows)
			}
		})
	}
}

// TestAdaptiveRegimeSwitchUnderContentionRamp is the end-to-end ramp:
// a disjoint phase must keep the engine speculative, then a hot-variable
// phase must drive a TL2Striped → TwoPL switch, and no update may be
// lost across the handoffs (the sum invariant holds under -race).
func TestAdaptiveRegimeSwitchUnderContentionRamp(t *testing.T) {
	const workers = 8
	const disjointOps = 200
	const hotOps = 400

	e := NewEngine(EngineAdaptive)

	// Phase 1 — disjoint: one private variable per worker, zero
	// conflicts, the engine must stay on the speculative delegate.
	private := make([]*TVar[int64], workers)
	for i := range private {
		private[i] = NewTVar[int64](0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < disjointOps; i++ {
				_ = e.Atomically(func(tx *Tx) error {
					Set(tx, private[w], Get(tx, private[w])+1)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()

	as, ok := e.AdaptiveStats()
	if !ok {
		t.Fatal("AdaptiveStats not available on the adaptive engine")
	}
	if as.Current != EngineTL2Striped.String() || as.Switches != 0 {
		t.Fatalf("disjoint phase left the speculative regime: current=%s switches=%d",
			as.Current, as.Switches)
	}

	// Phase 2 — contention ramp: every worker hammers one hot variable,
	// yielding between read and write so attempts overlap even on one
	// core. The conflict windows must drive the policy onto TwoPL.
	hot := NewTVar[int64](0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < hotOps; i++ {
				_ = e.Atomically(func(tx *Tx) error {
					v := Get(tx, hot)
					runtime.Gosched()
					Set(tx, hot, v+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()

	as, _ = e.AdaptiveStats()
	if as.Switches == 0 {
		t.Fatalf("contention ramp produced no regime switch: %+v", as)
	}
	var twopl RegimeStats
	for _, r := range as.Regimes {
		if r.Engine == EngineTwoPL.String() {
			twopl = r
		}
	}
	if twopl.Commits == 0 {
		t.Fatalf("TwoPL regime never committed work under contention: %+v", as)
	}

	// No lost updates across the regime handoffs.
	if got := hot.Peek(); got != workers*hotOps {
		t.Fatalf("hot counter = %d, want %d (lost updates across a switch)", got, workers*hotOps)
	}
	for w, tv := range private {
		if got := tv.Peek(); got != disjointOps {
			t.Fatalf("private[%d] = %d, want %d", w, got, disjointOps)
		}
	}
	st := e.Stats()
	if st.Commits != uint64(workers*(disjointOps+hotOps)) {
		t.Fatalf("commits = %d, want %d", st.Commits, workers*(disjointOps+hotOps))
	}
}

// TestAdaptiveStatsOnOtherEngines: the per-regime breakdown is only for
// the adaptive kind.
func TestAdaptiveStatsOnOtherEngines(t *testing.T) {
	if _, ok := NewEngine(EngineTL2).AdaptiveStats(); ok {
		t.Fatal("AdaptiveStats succeeded on a non-adaptive engine")
	}
}
