package stm

import (
	"sync"
	"testing"
	"time"
)

// TestRetryBlocksUntilCondition: a consumer Retry-waits on an empty slot
// until the producer fills it, for every engine.
func TestRetryBlocksUntilCondition(t *testing.T) {
	for _, kind := range EngineKinds() {
		e := NewEngine(kind)
		slot := NewTVar[int](0)
		got := make(chan int, 1)

		go func() {
			var v int
			_ = e.Atomically(func(tx *Tx) error {
				v = Get(tx, slot)
				if v == 0 {
					Retry(tx)
				}
				Set(tx, slot, 0) // consume
				return nil
			})
			got <- v
		}()

		// Give the consumer a chance to park, then produce.
		time.Sleep(5 * time.Millisecond)
		if err := e.Atomically(func(tx *Tx) error {
			Set(tx, slot, 42)
			return nil
		}); err != nil {
			t.Fatalf("%v: produce: %v", kind, err)
		}

		select {
		case v := <-got:
			if v != 42 {
				t.Errorf("%v: consumed %d, want 42", kind, v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%v: consumer never woke up", kind)
		}
		if v := slot.Peek(); v != 0 {
			t.Errorf("%v: slot not consumed: %d", kind, v)
		}
	}
}

// TestWaitsCountedApartFromRetries: an attempt that parks in Retry is a
// wait, not a conflict retry. One consumer parks on an empty slot and one
// producer, started only after the consumer's first attempt has run,
// fills it: nothing conflicts, so on every engine the counters must read
// exactly one wait and no retries.
func TestWaitsCountedApartFromRetries(t *testing.T) {
	for _, kind := range EngineKinds() {
		e := NewEngine(kind)
		slot := NewTVar[int](0)
		sawEmpty := make(chan struct{})
		var once sync.Once
		got := make(chan int, 1)
		go func() {
			var v int
			_ = e.Atomically(func(tx *Tx) error {
				v = Get(tx, slot)
				if v == 0 {
					once.Do(func() { close(sawEmpty) })
					Retry(tx)
				}
				return nil
			})
			got <- v
		}()
		<-sawEmpty
		_ = e.Atomically(func(tx *Tx) error {
			Set(tx, slot, 42)
			return nil
		})
		if v := <-got; v != 42 {
			t.Fatalf("%v: consumer read %d, want 42", kind, v)
		}
		if st := e.Stats(); st.Waits != 1 || st.Retries != 0 || st.Commits != 2 {
			t.Errorf("%v: waits=%d retries=%d commits=%d, want 1/0/2", kind, st.Waits, st.Retries, st.Commits)
		}
	}
}

// TestRetryProducerConsumerPipeline: a bounded queue built from TVars,
// with blocking put (queue full) and take (queue empty), under real
// concurrency on every engine.
func TestRetryProducerConsumerPipeline(t *testing.T) {
	const items = 200
	const capacity = 4
	for _, kind := range EngineKinds() {
		e := NewEngine(kind)
		buf := NewTVar[[]int](nil)

		put := func(v int) {
			_ = e.Atomically(func(tx *Tx) error {
				q := Get(tx, buf)
				if len(q) >= capacity {
					Retry(tx)
				}
				Set(tx, buf, append(append([]int(nil), q...), v))
				return nil
			})
		}
		take := func() int {
			var v int
			_ = e.Atomically(func(tx *Tx) error {
				q := Get(tx, buf)
				if len(q) == 0 {
					Retry(tx)
				}
				v = q[0]
				Set(tx, buf, append([]int(nil), q[1:]...))
				return nil
			})
			return v
		}

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= items; i++ {
				put(i)
			}
		}()

		sum := 0
		for i := 0; i < items; i++ {
			sum += take()
		}
		wg.Wait()
		want := items * (items + 1) / 2
		if sum != want {
			t.Errorf("%v: sum = %d, want %d (lost or duplicated items)", kind, sum, want)
		}
		if q := buf.Peek(); len(q) != 0 {
			t.Errorf("%v: queue not drained: %v", kind, q)
		}
	}
}

// TestRetryDoesNotMissWakeups: many waiters, one writer; everyone must
// eventually proceed.
func TestRetryDoesNotMissWakeups(t *testing.T) {
	e := NewEngine(EngineTL2)
	gate := NewTVar[int](0)
	const waiters = 16
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = e.Atomically(func(tx *Tx) error {
				if Get(tx, gate) == 0 {
					Retry(tx)
				}
				return nil
			})
		}()
	}
	time.Sleep(5 * time.Millisecond)
	_ = e.Atomically(func(tx *Tx) error {
		Set(tx, gate, 1)
		return nil
	})
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiters never woke up")
	}
}
