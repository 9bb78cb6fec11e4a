package tstructs

import (
	"testing"

	"pcltm/stm"
)

// The structure library's allocation regression gates: the package doc
// promises get, overwrite-put, update, miss-delete, contains and take are
// allocation-free in steady state, on every engine. The pattern mirrors
// stm/alloc_test.go — warm the pools and structures first, then pin
// AllocsPerRun — and shares its adaptive-budget rationale.

func allocBudget(kind stm.EngineKind) float64 {
	if kind == stm.EngineAdaptive {
		return 0.5
	}
	return 0
}

const allocWarmup = 200

func measureAllocs(t *testing.T, e *stm.Engine, fn func(tx *stm.Tx) error) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; alloc counts are gated in the non-race CI step")
	}
	for i := 0; i < allocWarmup; i++ {
		if err := e.Atomically(fn); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(200, func() {
		if err := e.Atomically(fn); err != nil {
			t.Fatal(err)
		}
	})
}

// seededMap returns a warmed TMap holding keys 0..n-1 with int64 values.
func seededMap(e *stm.Engine, n int) *TMap[int64, int64] {
	m := NewTMap[int64, int64](64)
	_ = e.Atomically(func(tx *stm.Tx) error {
		for k := int64(0); k < int64(n); k++ {
			m.Put(tx, k, k)
		}
		return nil
	})
	return m
}

// TestZeroAllocTMapGet: a steady-state get of an existing key — hash,
// bucket scan, value read, commit — allocates nothing.
func TestZeroAllocTMapGet(t *testing.T) {
	for _, kind := range stm.EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			e := stm.NewEngine(kind)
			m := seededMap(e, 32)
			var sink int64
			k := int64(0)
			fn := func(tx *stm.Tx) error {
				v, ok := m.Get(tx, k%32)
				if !ok {
					t.Fatal("seeded key missing")
				}
				sink += v
				k++
				return nil
			}
			if got := measureAllocs(t, e, fn); got > allocBudget(kind) {
				t.Errorf("%s: TMap get allocates %.2f allocs/op in steady state, budget %.1f",
					kind, got, allocBudget(kind))
			}
			_ = sink
		})
	}
}

// TestZeroAllocTMapPutOverwrite: overwriting an existing key writes one
// value TVar and allocates nothing — no slot, no boxing, no new bucket
// array.
func TestZeroAllocTMapPutOverwrite(t *testing.T) {
	for _, kind := range stm.EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			e := stm.NewEngine(kind)
			m := seededMap(e, 32)
			i := int64(0)
			fn := func(tx *stm.Tx) error {
				m.Put(tx, i%32, i)
				i++
				return nil
			}
			if got := measureAllocs(t, e, fn); got > allocBudget(kind) {
				t.Errorf("%s: TMap overwrite-put allocates %.2f allocs/op in steady state, budget %.1f",
					kind, got, allocBudget(kind))
			}
		})
	}
}

// TestZeroAllocTMapDeleteMiss: deleting an absent key is a read-only
// bucket scan and allocates nothing.
func TestZeroAllocTMapDeleteMiss(t *testing.T) {
	for _, kind := range stm.EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			e := stm.NewEngine(kind)
			m := seededMap(e, 32)
			fn := func(tx *stm.Tx) error {
				if m.Delete(tx, 1<<40) {
					t.Fatal("absent key reported deleted")
				}
				return nil
			}
			if got := measureAllocs(t, e, fn); got > allocBudget(kind) {
				t.Errorf("%s: TMap miss-delete allocates %.2f allocs/op in steady state, budget %.1f",
					kind, got, allocBudget(kind))
			}
		})
	}
}

// TestZeroAllocTMapUpdate: a read-modify-write of an existing key is
// one lookup, one value read and one value write, and allocates nothing
// — the closure does not escape and the bucket array is not touched.
func TestZeroAllocTMapUpdate(t *testing.T) {
	for _, kind := range stm.EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			e := stm.NewEngine(kind)
			m := seededMap(e, 32)
			k := int64(0)
			fn := func(tx *stm.Tx) error {
				m.Update(tx, k%32, func(v int64, _ bool) int64 { return v + k })
				k++
				return nil
			}
			if got := measureAllocs(t, e, fn); got > allocBudget(kind) {
				t.Errorf("%s: TMap update allocates %.2f allocs/op in steady state, budget %.1f",
					kind, got, allocBudget(kind))
			}
		})
	}
}

// TestZeroAllocTMapDeleteReinsertCycle pins what a structural change
// allocates, as a fixed number rather than zero, so per-op growth in
// the lookup itself still fails the gate. In a bucket that keeps other
// keys, an insert allocates four objects — the value TVar's handle and
// its engine cell, the new bucket array, and the slice header the head
// points to — and a delete the last two. The measured function
// alternates them, so the steady state is their mean, three.
func TestZeroAllocTMapDeleteReinsertCycle(t *testing.T) {
	const cycleMean = 3 // (4 insert + 2 delete) / 2
	for _, kind := range stm.EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			e := stm.NewEngine(kind)
			m := NewTMapFunc[int64, int64](1, func(int64) uint64 { return 0 })
			_ = e.Atomically(func(tx *stm.Tx) error {
				for k := int64(0); k < 8; k++ {
					m.Put(tx, k, k)
				}
				return nil
			})
			del := true
			fn := func(tx *stm.Tx) error {
				if del {
					if !m.Delete(tx, 7) {
						t.Fatal("present key not deleted")
					}
				} else {
					m.Put(tx, 7, 7)
				}
				del = !del
				return nil
			}
			if got := measureAllocs(t, e, fn); got > cycleMean+allocBudget(kind) {
				t.Errorf("%s: TMap delete/reinsert cycle allocates %.2f allocs/op, want %d",
					kind, got, cycleMean)
			}
		})
	}
}

// TestZeroAllocTMapStringKeys: the derived string hasher walks the key
// bytes in place, so string-keyed gets are allocation-free too.
func TestZeroAllocTMapStringKeys(t *testing.T) {
	keys := [4]string{"alpha", "beta", "gamma", "delta"}
	for _, kind := range stm.EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			e := stm.NewEngine(kind)
			m := NewTMap[string, int64](16)
			_ = e.Atomically(func(tx *stm.Tx) error {
				for i, k := range keys {
					m.Put(tx, k, int64(i))
				}
				return nil
			})
			i := 0
			var sink int64
			fn := func(tx *stm.Tx) error {
				v, ok := m.Get(tx, keys[i%len(keys)])
				if !ok {
					t.Fatal("seeded string key missing")
				}
				sink += v
				i++
				return nil
			}
			if got := measureAllocs(t, e, fn); got > allocBudget(kind) {
				t.Errorf("%s: string-keyed TMap get allocates %.2f allocs/op in steady state, budget %.1f",
					kind, got, allocBudget(kind))
			}
			_ = sink
		})
	}
}

// TestZeroAllocTQueueTake: a take from a non-empty queue — head read,
// unlink, size update — allocates nothing. The queue is topped up
// outside the measured transaction (puts allocate their node by design).
func TestZeroAllocTQueueTake(t *testing.T) {
	for _, kind := range stm.EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			e := stm.NewEngine(kind)
			q := NewTQueue[int64]()
			refill := func() {
				_ = e.Atomically(func(tx *stm.Tx) error {
					for i := int64(0); i < 4; i++ {
						q.Put(tx, i)
					}
					return nil
				})
			}
			refill()
			var sink int64
			fn := func(tx *stm.Tx) error {
				v, ok := q.TryTake(tx)
				if !ok {
					return nil // refilled outside; measured op stays take-shaped
				}
				sink += v
				return nil
			}
			if raceEnabled {
				t.Skip("race detector randomizes sync.Pool reuse; alloc counts are gated in the non-race CI step")
			}
			for i := 0; i < allocWarmup; i++ {
				refill()
				for j := 0; j < 4; j++ {
					if err := e.Atomically(fn); err != nil {
						t.Fatal(err)
					}
				}
			}
			refill()
			got := testing.AllocsPerRun(4, func() {
				if err := e.Atomically(fn); err != nil {
					t.Fatal(err)
				}
			})
			if got > allocBudget(kind) {
				t.Errorf("%s: TQueue take allocates %.2f allocs/op in steady state, budget %.1f",
					kind, got, allocBudget(kind))
			}
			_ = sink
		})
	}
}

// TestZeroAllocTSetContains: a membership probe walks the chain prefix
// and allocates nothing.
func TestZeroAllocTSetContains(t *testing.T) {
	for _, kind := range stm.EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			e := stm.NewEngine(kind)
			s := NewTSet[int64]()
			_ = e.Atomically(func(tx *stm.Tx) error {
				for k := int64(0); k < 16; k++ {
					s.Insert(tx, k)
				}
				return nil
			})
			k := int64(0)
			var sink bool
			fn := func(tx *stm.Tx) error {
				sink = s.Contains(tx, k%16)
				k++
				return nil
			}
			if got := measureAllocs(t, e, fn); got > allocBudget(kind) {
				t.Errorf("%s: TSet contains allocates %.2f allocs/op in steady state, budget %.1f",
					kind, got, allocBudget(kind))
			}
			_ = sink
		})
	}
}
