package store_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pcltm/internal/certify"
	"pcltm/internal/conformance"
	"pcltm/internal/core"
	"pcltm/internal/wal"
	"pcltm/stm"
	"pcltm/store"
)

// TestCrossScopedLocking checks the tentpole property directly: a Cross
// whose footprint is partitions {0, 1} blocks traffic on those
// partitions and on NO others. The body parks while holding its locks;
// a single-partition write to an untouched partition must complete
// while it is parked, and a write to a touched partition must not.
func TestCrossScopedLocking(t *testing.T) {
	s := store.New[int64, int64](store.Config{Partitions: 4})
	k0 := mustKeyIn(s, 0, 1)
	k1 := mustKeyIn(s, 1, 1)
	k2 := mustKeyIn(s, 2, 1)

	locked := make(chan struct{})
	release := make(chan struct{})
	var calls int32
	done := make(chan error, 1)
	go func() {
		done <- s.Cross(func(ct *store.CrossTx[int64, int64]) error {
			ct.Put(k0, 1)
			ct.Put(k1, 2)
			if atomic.AddInt32(&calls, 1) == 2 {
				// Second run = validation under the footprint's locks.
				close(locked)
				<-release
			}
			return nil
		})
	}()
	<-locked

	// Untouched partition: must proceed while the Cross holds its locks.
	okCh := make(chan struct{})
	go func() {
		s.Put(k2, 42)
		close(okCh)
	}()
	select {
	case <-okCh:
	case <-time.After(5 * time.Second):
		t.Fatal("single-partition write to untouched partition blocked behind scoped Cross")
	}

	// Touched partition: must wait for the Cross to finish.
	var blockedDone int32
	go func() {
		s.Put(k0, 99)
		atomic.StoreInt32(&blockedDone, 1)
	}()
	time.Sleep(20 * time.Millisecond)
	if atomic.LoadInt32(&blockedDone) != 0 {
		// Not yet released: the write raced ahead of the exclusive lock.
		t.Fatal("single-partition write to touched partition proceeded under scoped Cross locks")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Cross: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); atomic.LoadInt32(&blockedDone) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("blocked write never completed after Cross released")
		}
		time.Sleep(time.Millisecond)
	}
	if v, _ := s.Get(k2); v != 42 {
		t.Errorf("untouched-partition write lost: %d", v)
	}
	if v, _ := s.Get(k0); v != 99 {
		t.Errorf("touched-partition write lost: %d", v)
	}
}

// TestCrossFootprintGrows drives the re-lock loop: the body's footprint
// expands on every run (as if the data moved between discovery and
// locking), so Cross must release, re-lock the union, and re-run until
// the footprint stabilizes — and escalate to every partition past
// crossMaxGrows rounds rather than loop forever.
func TestCrossFootprintGrows(t *testing.T) {
	const parts = 8
	s := store.New[int64, int64](store.Config{Partitions: parts})
	keys := make([]int64, parts)
	for p := range keys {
		keys[p] = mustKeyIn(s, p, 1)
	}
	var calls int32
	err := s.Cross(func(ct *store.CrossTx[int64, int64]) error {
		n := int(atomic.AddInt32(&calls, 1))
		if n > parts {
			n = parts
		}
		for p := 0; p < n; p++ {
			ct.Put(keys[p], int64(p))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Cross: %v", err)
	}
	// The final run's buffer is what applied; it covered some prefix of
	// the partitions, growing each round. Every partition the final run
	// wrote must hold its value.
	final := int(atomic.LoadInt32(&calls))
	if final > parts {
		final = parts
	}
	if final < 2 {
		t.Fatalf("body ran %d times; growth loop never engaged", final)
	}
	for p := 0; p < final; p++ {
		if v, ok := s.Get(keys[p]); !ok || v != int64(p) {
			t.Errorf("partition %d: got %d,%v want %d", p, v, ok, p)
		}
	}
}

// TestCrossEmptyFootprint checks a read-nothing write-nothing body
// terminates (the scoped loop must not spin waiting for a footprint
// that never appears).
func TestCrossEmptyFootprint(t *testing.T) {
	s := store.New[int64, int64](store.Config{Partitions: 4})
	if err := s.Cross(func(ct *store.CrossTx[int64, int64]) error { return nil }); err != nil {
		t.Fatalf("empty Cross: %v", err)
	}
}

// TestUpdateOnBothPaths checks the read-modify-write primitive agrees
// between a partition transaction and a Cross: fn sees the current
// value and presence (its own earlier writes included), the result is
// stored and returned, and an absent key is inserted.
func TestUpdateOnBothPaths(t *testing.T) {
	s := store.New[int64, int64](store.Config{Partitions: 4})
	s.Put(1, 10)
	add := func(d int64, wantOK bool) func(int64, bool) int64 {
		return func(v int64, ok bool) int64 {
			if ok != wantOK {
				t.Errorf("fn saw ok = %v, want %v (value %d)", ok, wantOK, v)
			}
			return v + d
		}
	}
	if err := s.Atomically(s.PartitionOf(1), func(tx *stm.Tx, p *store.Part[int64, int64]) error {
		if got := p.Update(tx, 1, add(5, true)); got != 15 {
			t.Errorf("Part.Update returned %d, want 15", got)
		}
		if got := p.Update(tx, 1, add(1, true)); got != 16 {
			t.Errorf("second Part.Update returned %d, want 16", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	absent := int64(2)
	for s.PartitionOf(absent) == s.PartitionOf(1) {
		absent++
	}
	if err := s.Cross(func(ct *store.CrossTx[int64, int64]) error {
		if got := ct.Update(1, add(4, true)); got != 20 {
			t.Errorf("CrossTx.Update returned %d, want 20", got)
		}
		if got := ct.Update(absent, add(7, false)); got != 7 {
			t.Errorf("CrossTx.Update of an absent key returned %d, want 7", got)
		}
		if got := ct.Update(absent, add(1, true)); got != 8 {
			t.Errorf("CrossTx.Update of a key it just wrote returned %d, want 8", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[int64]int64{1: 20, absent: 8} {
		if v, ok := s.Get(k); !ok || v != want {
			t.Errorf("key %d = %d,%v after the updates, want %d", k, v, ok, want)
		}
	}
}

// TestCrossSweepEquivalent checks the scoped path, the full sweep and a
// CrossOn that declares every partition agree on results — the sweep is
// that CrossOn — and that under the sweep the body runs exactly once.
func TestCrossSweepEquivalent(t *testing.T) {
	s := store.New[int64, int64](store.Config{Partitions: 4})
	for k := int64(0); k < 32; k++ {
		s.Put(k, 100)
	}
	type crossFn = func(fn func(ct *store.CrossTx[int64, int64]) error) error
	xfer := func(run crossFn, from, to int64) (runs int) {
		if err := run(func(ct *store.CrossTx[int64, int64]) error {
			runs++
			a, _ := ct.Get(from)
			b, _ := ct.Get(to)
			ct.Put(from, a-7)
			ct.Put(to, b+7)
			return nil
		}); err != nil {
			t.Fatalf("transfer: %v", err)
		}
		return runs
	}
	onAll := func(fn func(ct *store.CrossTx[int64, int64]) error) error {
		return s.CrossOn([]int{3, 1, 0, 2}, fn)
	}
	for i := int64(0); i < 16; i++ {
		xfer(s.Cross, i, 31-i)
		if runs := xfer(s.CrossSweep, 31-i, i); runs != 1 {
			t.Fatalf("CrossSweep ran the body %d times, want 1", runs)
		}
		xfer(onAll, i, 31-i)
		if runs := xfer(onAll, 31-i, i); runs != 1 {
			t.Fatalf("CrossOn(all) ran the body %d times, want 1", runs)
		}
	}
	for k := int64(0); k < 32; k++ {
		if v, _ := s.Get(k); v != 100 {
			t.Errorf("key %d drifted to %d", k, v)
		}
	}
}

// TestCrossOnDeclared pins the declared footprint: a body that stays
// inside what was declared executes exactly once, under locks on the
// declared partitions and no others; a body that strays re-runs under
// the grown footprint, exactly as an undeclared one does; and a failing
// body changes nothing and leaves nothing locked.
func TestCrossOnDeclared(t *testing.T) {
	s := store.New[int64, int64](store.Config{Partitions: 4})
	k0, k1, k2, k3 := mustKeyIn(s, 0, 1), mustKeyIn(s, 1, 1), mustKeyIn(s, 2, 1), mustKeyIn(s, 3, 1)

	t.Run("sufficient footprint runs once under scoped locks", func(t *testing.T) {
		inBody, release := make(chan struct{}), make(chan struct{})
		runs := 0
		done := make(chan error, 1)
		go func() {
			// Partition 2 is declared and never touched: over-declaring only
			// locks more, it does not cost a run.
			done <- s.CrossOn([]int{1, 0, 2}, func(ct *store.CrossTx[int64, int64]) error {
				runs++
				ct.Put(k0, 10)
				v, _ := ct.Get(k1)
				ct.Put(k1, v+20)
				close(inBody)
				<-release
				return nil
			})
		}()
		<-inBody

		// The undeclared partition stays writable while the body holds its
		// locks; a declared one does not.
		s.Put(k3, 33)
		blocked := make(chan struct{})
		go func() {
			s.Put(k2, 22)
			close(blocked)
		}()
		select {
		case <-blocked:
			t.Fatal("a write to a declared partition went through while the cross held it")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		<-blocked
		if runs != 1 {
			t.Errorf("body ran %d times, want exactly 1", runs)
		}
		for k, want := range map[int64]int64{k0: 10, k1: 20, k2: 22, k3: 33} {
			if v, _ := s.Get(k); v != want {
				t.Errorf("key %d = %d, want %d", k, v, want)
			}
		}
	})

	t.Run("straying re-runs and grows", func(t *testing.T) {
		runs := 0
		err := s.CrossOn([]int{0}, func(ct *store.CrossTx[int64, int64]) error {
			runs++
			a, _ := ct.Get(k0)
			b, _ := ct.Get(k3) // undeclared
			ct.Put(k0, a-1)
			ct.Put(k3, b+1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if runs != 2 {
			t.Errorf("body ran %d times, want 2: once straying, once covered", runs)
		}
		if a, _ := s.Get(k0); a != 9 {
			t.Errorf("k0 = %d, want 9", a)
		}
		if b, _ := s.Get(k3); b != 34 {
			t.Errorf("k3 = %d, want 34", b)
		}
	})

	t.Run("undeclared is declared-nothing", func(t *testing.T) {
		var runsCross, runsOn int
		body := func(runs *int) func(ct *store.CrossTx[int64, int64]) error {
			return func(ct *store.CrossTx[int64, int64]) error {
				*runs++
				ct.Put(k1, 1)
				ct.Put(k2, 2)
				return nil
			}
		}
		if err := s.Cross(body(&runsCross)); err != nil {
			t.Fatal(err)
		}
		if err := s.CrossOn(nil, body(&runsOn)); err != nil {
			t.Fatal(err)
		}
		if runsCross != 2 || runsOn != 2 {
			t.Errorf("Cross ran the body %d times, CrossOn(nil) %d; want 2 and 2 (discovery, then the locked run)", runsCross, runsOn)
		}
	})

	t.Run("failing body changes nothing and unlocks", func(t *testing.T) {
		boom := errors.New("boom")
		err := s.CrossOn([]int{0, 1}, func(ct *store.CrossTx[int64, int64]) error {
			ct.Put(k0, -1)
			ct.Delete(k1)
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("error %v, want boom", err)
		}
		if a, _ := s.Get(k0); a != 9 {
			t.Errorf("k0 = %d after a failed cross, want 9", a)
		}
		if _, ok := s.Get(k1); !ok {
			t.Error("k1 deleted by a failed cross")
		}
		s.Put(k0, 9) // would hang were partition 0 still locked
	})
}

// TestCrossLargeWriteSet buffers more keys than a recycled handle keeps
// (so the buffer and its index are dropped afterwards): overwrites,
// deletes and reads of the body's own writes must match a plain map
// through a discovery run and the re-run, and the next transaction on
// the recycled handle must see none of it.
func TestCrossLargeWriteSet(t *testing.T) {
	const keys = 1500
	s := store.New[int64, int64](store.Config{Partitions: 4})
	for k := int64(0); k < keys; k += 3 {
		s.Put(k, -k)
	}
	model := make(map[int64]int64)
	for k := int64(0); k < keys; k += 3 {
		model[k] = -k
	}
	apply := func(get func(int64) (int64, bool), put func(k, v int64), del func(int64) bool) {
		for round := int64(0); round < 3; round++ {
			for k := int64(0); k < keys; k++ {
				switch v, ok := get(k); {
				case (k+round)%5 == 0:
					if del(k) != ok {
						t.Errorf("round %d: Delete(%d) disagrees with Get's presence %v", round, k, ok)
					}
				case ok:
					put(k, v+round+1)
				default:
					put(k, k)
				}
			}
		}
	}
	apply(func(k int64) (int64, bool) { v, ok := model[k]; return v, ok },
		func(k, v int64) { model[k] = v },
		func(k int64) bool { _, ok := model[k]; delete(model, k); return ok })
	if err := s.Cross(func(ct *store.CrossTx[int64, int64]) error {
		apply(ct.Get, ct.Put, ct.Delete)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != len(model) {
		t.Errorf("store holds %d keys, model %d", got, len(model))
	}
	for k, want := range model {
		if v, ok := s.Get(k); !ok || v != want {
			t.Errorf("key %d = %d,%v; model says %d", k, v, ok, want)
		}
	}
	// A deleted key stays deleted for the next transaction: nothing of
	// the big buffer survives in the handle it recycled.
	if err := s.Cross(func(ct *store.CrossTx[int64, int64]) error {
		if v, ok := ct.Get(3); ok { // deleted in the last round
			t.Errorf("key 3 = %d in the next cross, want it deleted", v)
		}
		ct.Put(1, 7)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get(1); v != 7 {
		t.Errorf("key 1 = %d after the follow-up cross, want 7", v)
	}
}

// TestCrossAllocBudget is the cross path's allocation gate: on a durable
// store, a two-partition transfer — lock, run, apply per partition, log
// two records and a decision, wait for the acknowledgement — allocates
// only the log's queue array in steady state (the writer takes it whole
// with every batch, so three enqueued records regrow it in 3 steps),
// whether the footprint is declared or discovered: the handle, its
// buffers, the log's requests and its bookkeeping are all recycled. The
// budget is fixed: a fresh map for the write buffer or the by-partition
// grouping costs 2 allocations or more, per-call lock closures 2, a
// participant-list copy in the log 1.
func TestCrossAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, _, err := store.OpenDurable(durCfg(wal.NewMemBackend(), 4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseWAL()
	from, to := mustKeyIn(s, 1, 1), mustKeyIn(s, 3, 1)
	parts := []int{1, 3}
	transfer := func(ct *store.CrossTx[int64, int64]) error {
		a, _ := ct.Get(from)
		ct.Put(from, a-1)
		b, _ := ct.Get(to)
		ct.Put(to, b+1)
		return nil
	}
	for name, run := range map[string]func(){
		"declared":   func() { _ = s.CrossOn(parts, transfer) },
		"discovered": func() { _ = s.Cross(transfer) },
	} {
		for i := 0; i < 64; i++ {
			run()
		}
		if got := testing.AllocsPerRun(500, run); got > 3 {
			t.Errorf("%s footprint: %.1f allocs/op, budget 3", name, got)
		}
	}
}

// TestDurableCrossSinglePartitionNoDecision checks a Cross whose whole
// footprint lands in one partition is logged as a plain record: no
// decision record, no cross accounting.
func TestDurableCrossSinglePartitionNoDecision(t *testing.T) {
	b := wal.NewMemBackend()
	s, _, err := store.OpenDurable(durCfg(b, 4))
	if err != nil {
		t.Fatalf("store.OpenDurable: %v", err)
	}
	k := mustKeyIn(s, 2, 1)
	k2 := mustKeyIn(s, 2, k+1)
	if err := s.Cross(func(ct *store.CrossTx[int64, int64]) error {
		ct.Put(k, 1)
		ct.Put(k2, 2)
		return nil
	}); err != nil {
		t.Fatalf("Cross: %v", err)
	}
	if st, ok := s.WALStats(); !ok || st.Crosses != 0 {
		t.Errorf("single-partition Cross counted as cross: %+v", st)
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}
	s2, scan, err := store.OpenDurable(durCfg(b, 4))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if scan.CrossReplayed != 0 {
		t.Errorf("scan found %d cross transactions, want 0", scan.CrossReplayed)
	}
	if v, _ := s2.Get(k); v != 1 {
		t.Errorf("key %d lost", k)
	}
	_ = s2.CloseWAL()
}

// TestDurableCrossCrashPointSweep is the cross-partition analogue of
// TestDurableCrashPointSweepCertified, and the pin on the PR's
// durability claim: a crash is armed at EVERY backend operation of a
// workload whose commits are multi-partition cross transfers, and after
// each crash the recovered state must show every cross transaction
// either fully applied or fully absent — never half — with acked
// crosses always fully applied, and the recovery history of every
// partition certified strictly serializable.
func TestDurableCrossCrashPointSweep(t *testing.T) {
	const parts = 4
	const rounds = 10
	type ranResult struct {
		acked []int // cross indices whose Cross returned nil
	}
	// Cross i writes marker i+1 under one key in each of three
	// partitions: i%4, (i+1)%4, (i+2)%4.
	keysOf := func(s *store.Store[int64, int64], i int) []int64 {
		ks := make([]int64, 0, 3)
		for j := 0; j < 3; j++ {
			p := (i + j) % parts
			ks = append(ks, mustKeyIn(s, p, int64(100*i+1)))
		}
		return ks
	}
	workload := func(backend wal.Backend) (ranResult, error) {
		var res ranResult
		cfg := durCfg(backend, parts)
		cfg.SegmentBytes = 512
		s, _, err := store.OpenDurable(cfg)
		if err != nil {
			return res, err
		}
		for i := 0; i < rounds; i++ {
			ks := keysOf(s, i)
			err := s.Cross(func(ct *store.CrossTx[int64, int64]) error {
				for _, k := range ks {
					ct.Put(k, int64(i+1))
				}
				return nil
			})
			if err != nil {
				return res, err
			}
			res.acked = append(res.acked, i)
		}
		return res, s.CloseWAL()
	}

	probe := wal.NewFailBackend(wal.NewMemBackend())
	if _, err := workload(probe); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	total := probe.Ops()
	if total < rounds {
		t.Fatalf("workload exposes only %d crash points", total)
	}

	for _, shape := range crashShapes {
		t.Run(shape.name, func(t *testing.T) {
			for n := uint64(1); n <= total; n++ {
				mem := wal.NewMemBackend()
				fb := wal.NewFailBackend(mem)
				fb.Arm(wal.FailPoint{Kind: shape.kind, N: n, TearBytes: 64})
				ran, err := workload(fb)
				if err == nil {
					if fb.Crashed() {
						t.Fatalf("crash point %d fired but workload succeeded", n)
					}
					continue
				}

				img := mem.Clone(shape.keep)
				recs := make([]*stm.Recorder, 0, parts)
				cfg := durCfg(img, parts)
				cfg.Store.EngineOptions = func(part int) []stm.Option {
					r := stm.NewRecorder()
					recs = append(recs, r)
					return []stm.Option{stm.WithRecorder(r)}
				}
				s2, scan, err := store.OpenDurable(cfg)
				if err != nil {
					t.Fatalf("crash point %d: recovery refused: %v", n, err)
				}

				acked := map[int]bool{}
				for _, i := range ran.acked {
					acked[i] = true
				}
				for i := 0; i < rounds; i++ {
					ks := keysOf(s2, i)
					present := 0
					for _, k := range ks {
						if v, ok := s2.Get(k); ok {
							if v != int64(i+1) {
								t.Fatalf("crash point %d: cross %d key %d holds %d", n, i, k, v)
							}
							present++
						}
					}
					switch {
					case present != 0 && present != len(ks):
						t.Fatalf("crash point %d: cross %d HALF-APPLIED after recovery: %d/%d keys (horizons %v, cross replayed %d voided %d)",
							n, i, present, len(ks), scan.Horizon, scan.CrossReplayed, scan.CrossVoided)
					case acked[i] && present == 0:
						t.Fatalf("crash point %d: acked cross %d lost (horizons %v)", n, i, scan.Horizon)
					}
					// An UNacked cross may legitimately be recovered whole: a
					// crash can land after the fsync that covered the decision
					// (e.g. a mid-batch segment rotation's sync) but before the
					// acknowledgement reached the committer — the classic
					// commit-outcome ambiguity every WAL has. The invariants are
					// atomicity (never half) and acked ⇒ applied, both above.
				}

				// The recovered store takes new cross traffic.
				ks := keysOf(s2, rounds)
				if err := s2.Cross(func(ct *store.CrossTx[int64, int64]) error {
					for _, k := range ks {
						ct.Put(k, int64(rounds+1))
					}
					return nil
				}); err != nil {
					t.Fatalf("crash point %d: post-recovery cross: %v", n, err)
				}
				_ = s2.CloseWAL()

				itemOf := func(id uint64) (core.Item, bool) {
					return core.Item(fmt.Sprintf("t%d", id)), true
				}
				for pi, r := range recs {
					attempts := r.Take()
					if len(attempts) == 0 {
						continue
					}
					exec, err := conformance.StampInterned(attempts, itemOf, 1)
					if err != nil {
						t.Fatalf("crash point %d: stamp partition %d: %v", n, pi, err)
					}
					rep := certify.Check(certify.FromExecution(exec), certify.StrictSerializability)
					if rep.Verdict == certify.Violated {
						t.Fatalf("crash point %d: partition %d recovery history violated: %s", n, pi, rep)
					}
				}
			}
		})
	}

}
