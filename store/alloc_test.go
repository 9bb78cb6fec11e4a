package store_test

import (
	"runtime"
	"testing"
	"time"

	"pcltm/internal/wal"
	"pcltm/stm"
	"pcltm/store"
)

// TestZeroAllocStoreAtomically is the allocation gate of the embedded
// commit path: a warmed Store.Atomically — a four-key read body and a
// four-key read-modify-write body, the shapes embedded_hot sends —
// allocates nothing on any engine (adaptive keeps stm's 0.5 budget for
// its amortized paths). The Part handle the body receives comes from
// the store's pool; a handle that escapes again costs 1 per call. On a
// durable store a one-key write allocates only the log's queue array,
// which the writer takes whole with every batch (1): the handle owns
// its write-set buffer.
func TestZeroAllocStoreAtomically(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	bump := func(v int64, _ bool) int64 { return v + 1 }
	measure := func(t *testing.T, run func()) float64 {
		t.Helper()
		for i := 0; i < 200; i++ {
			run()
		}
		return testing.AllocsPerRun(200, run)
	}
	for _, kind := range stm.EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			s := store.New[int64, int64](store.Config{Partitions: 4, Engine: kind, Buckets: 8})
			var keys [4]int64
			for i := range keys {
				keys[i] = mustKeyIn(s, 1, int64(i)*1000)
				s.Put(keys[i], 1)
			}
			budget := 0.0
			if kind == stm.EngineAdaptive {
				budget = 0.5
			}
			var sum int64
			bodies := map[string]func(*stm.Tx, *store.Part[int64, int64]) error{
				"read": func(tx *stm.Tx, p *store.Part[int64, int64]) error {
					sum = 0
					for _, k := range keys {
						v, _ := p.Get(tx, k)
						sum += v
					}
					return nil
				},
				"write": func(tx *stm.Tx, p *store.Part[int64, int64]) error {
					for _, k := range keys {
						p.Update(tx, k, bump)
					}
					return nil
				},
			}
			for name, body := range bodies {
				got := measure(t, func() {
					if err := s.Atomically(1, body); err != nil {
						t.Fatal(err)
					}
				})
				if got > budget {
					t.Errorf("%s body: %.2f allocs/op, budget %.1f", name, got, budget)
				}
			}
		})
	}
	t.Run("durable", func(t *testing.T) {
		s, _, err := store.OpenDurable(durCfg(wal.NewMemBackend(), 4))
		if err != nil {
			t.Fatal(err)
		}
		defer s.CloseWAL()
		k := mustKeyIn(s, 1, 1)
		if got := measure(t, func() { s.Update(k, bump) }); got > 1 {
			t.Errorf("durable one-key write: %.2f allocs/op, budget 1", got)
		}
	})
}

// TestDroppedStoreIsCollected: pooling the Part handles must not keep a
// store alive after its last user drops it. sync.Pool's global registry
// keeps a used pool, and whatever it holds, reachable until the second
// collection after its last use; a pool embedded in the Store, or a
// pooled handle pointing back at it, kept each dropped store — maps,
// engines, log — through the next collection, whose marking the next
// store's set-up then paid for.
func TestDroppedStoreIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		s := store.New[int64, int64](store.Config{Partitions: 4})
		for k := int64(0); k < 64; k++ {
			s.Put(k, k)
		}
		runtime.SetFinalizer(s, func(*store.Store[int64, int64]) { close(collected) })
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("a dropped store survived the first collection after its last transaction")
	}
}
