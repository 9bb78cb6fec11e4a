package tstructs

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pcltm/stm"
)

// engines returns one fresh engine per registered kind.
func engines(t *testing.T) []*stm.Engine {
	t.Helper()
	var out []*stm.Engine
	for _, kind := range stm.EngineKinds() {
		out = append(out, stm.NewEngine(kind))
	}
	return out
}

// TestTMapBasicOps drives the map's whole surface sequentially on every
// engine against a plain Go map as the model.
func TestTMapBasicOps(t *testing.T) {
	for _, e := range engines(t) {
		t.Run(e.Kind().String(), func(t *testing.T) {
			m := NewTMap[string, int64](8)
			model := map[string]int64{}
			r := rand.New(rand.NewSource(1))
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("key-%d", r.Intn(64))
				switch r.Intn(10) {
				case 0, 1: // delete
					var got bool
					_ = e.Atomically(func(tx *stm.Tx) error {
						got = m.Delete(tx, k)
						return nil
					})
					_, want := model[k]
					if got != want {
						t.Fatalf("Delete(%q) = %v, model %v", k, got, want)
					}
					delete(model, k)
				case 2, 3, 4: // get
					var got int64
					var ok bool
					_ = e.Atomically(func(tx *stm.Tx) error {
						got, ok = m.Get(tx, k)
						return nil
					})
					want, wantOK := model[k]
					if ok != wantOK || got != want {
						t.Fatalf("Get(%q) = %d,%v, model %d,%v", k, got, ok, want, wantOK)
					}
				default: // put
					v := int64(i)
					_ = e.Atomically(func(tx *stm.Tx) error {
						m.Put(tx, k, v)
						return nil
					})
					model[k] = v
				}
			}
			var n int
			snapshot := map[string]int64{}
			_ = e.Atomically(func(tx *stm.Tx) error {
				n = m.Len(tx)
				m.ForEach(tx, func(k string, v int64) bool {
					snapshot[k] = v
					return true
				})
				return nil
			})
			if n != len(model) {
				t.Fatalf("Len = %d, model %d", n, len(model))
			}
			if len(snapshot) != len(model) {
				t.Fatalf("ForEach visited %d entries, model %d", len(snapshot), len(model))
			}
			for k, v := range model {
				if snapshot[k] != v {
					t.Fatalf("snapshot[%q] = %d, model %d", k, snapshot[k], v)
				}
			}
		})
	}
}

// TestTMapAliasedKeysShareBucket forces every key into one bucket and
// checks the chain handles arbitrarily aliased keys: the correctness
// property the sharding must never depend on.
func TestTMapAliasedKeysShareBucket(t *testing.T) {
	e := stm.NewEngine(stm.EngineTL2)
	m := NewTMapFunc[int, int](4, func(int) uint64 { return 7 }) // all keys alias
	_ = e.Atomically(func(tx *stm.Tx) error {
		for k := 0; k < 32; k++ {
			m.Put(tx, k, k*10)
		}
		return nil
	})
	_ = e.Atomically(func(tx *stm.Tx) error {
		for k := 0; k < 32; k++ {
			if v, ok := m.Get(tx, k); !ok || v != k*10 {
				t.Errorf("aliased Get(%d) = %d,%v want %d,true", k, v, ok, k*10)
			}
		}
		if got := m.Len(tx); got != 32 {
			t.Errorf("aliased Len = %d, want 32", got)
		}
		// Delete from the middle of the shared chain.
		for k := 0; k < 32; k += 2 {
			if !m.Delete(tx, k) {
				t.Errorf("aliased Delete(%d) = false", k)
			}
		}
		for k := 0; k < 32; k++ {
			want := k%2 == 1
			if got := m.Contains(tx, k); got != want {
				t.Errorf("after deletes Contains(%d) = %v, want %v", k, got, want)
			}
		}
		return nil
	})
}

// TestTMapConcurrentDisjointKeys hammers the map from parallel workers
// on disjoint key ranges on every engine and checks every write landed:
// the commit-parallelism contract, validated for correctness here and
// for throughput in tmbench.
func TestTMapConcurrentDisjointKeys(t *testing.T) {
	const workers, opsPer = 4, 300
	for _, e := range engines(t) {
		t.Run(e.Kind().String(), func(t *testing.T) {
			m := NewTMap[int, int64](64)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(worker int) {
					defer wg.Done()
					base := worker * opsPer
					for i := 0; i < opsPer; i++ {
						k := base + i
						_ = e.Atomically(func(tx *stm.Tx) error {
							m.Put(tx, k, int64(k))
							return nil
						})
						// Increment through a read-modify-write.
						_ = e.Atomically(func(tx *stm.Tx) error {
							v, _ := m.Get(tx, k)
							m.Put(tx, k, v+1)
							return nil
						})
					}
				}(w)
			}
			wg.Wait()
			_ = e.Atomically(func(tx *stm.Tx) error {
				if got := m.Len(tx); got != workers*opsPer {
					t.Errorf("Len = %d, want %d", got, workers*opsPer)
				}
				for k := 0; k < workers*opsPer; k++ {
					if v, ok := m.Get(tx, k); !ok || v != int64(k)+1 {
						t.Errorf("Get(%d) = %d,%v want %d,true", k, v, ok, k+1)
					}
				}
				return nil
			})
		})
	}
}

// TestTMapContendedCounter runs conflicting read-modify-writes of one
// hot key from many workers; the final value must equal the increment
// count on every engine (atomicity under real conflicts).
func TestTMapContendedCounter(t *testing.T) {
	const workers, opsPer = 4, 200
	for _, e := range engines(t) {
		t.Run(e.Kind().String(), func(t *testing.T) {
			m := NewTMap[string, int64](4)
			_ = e.Atomically(func(tx *stm.Tx) error {
				m.Put(tx, "hot", 0)
				return nil
			})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < opsPer; i++ {
						_ = e.Atomically(func(tx *stm.Tx) error {
							v, _ := m.Get(tx, "hot")
							m.Put(tx, "hot", v+1)
							return nil
						})
					}
				}()
			}
			wg.Wait()
			var got int64
			_ = e.Atomically(func(tx *stm.Tx) error {
				got, _ = m.Get(tx, "hot")
				return nil
			})
			if got != workers*opsPer {
				t.Errorf("hot counter = %d, want %d", got, workers*opsPer)
			}
		})
	}
}

// TestTMapAbortRollsBackStructure aborts transactions mid-mutation and
// checks no structural change leaks (insert, overwrite and delete all
// undone), on every engine.
func TestTMapAbortRollsBackStructure(t *testing.T) {
	errBoom := fmt.Errorf("deliberate abort")
	for _, e := range engines(t) {
		t.Run(e.Kind().String(), func(t *testing.T) {
			m := NewTMap[int, string](8)
			_ = e.Atomically(func(tx *stm.Tx) error {
				m.Put(tx, 1, "one")
				m.Put(tx, 2, "two")
				return nil
			})
			if err := e.Atomically(func(tx *stm.Tx) error {
				m.Put(tx, 3, "three") // insert, to be undone
				m.Put(tx, 1, "uno")   // overwrite, to be undone
				m.Delete(tx, 2)       // delete, to be undone
				return errBoom
			}); err != errBoom {
				t.Fatalf("abort err = %v", err)
			}
			_ = e.Atomically(func(tx *stm.Tx) error {
				if v, ok := m.Get(tx, 1); !ok || v != "one" {
					t.Errorf("after abort Get(1) = %q,%v want \"one\",true", v, ok)
				}
				if v, ok := m.Get(tx, 2); !ok || v != "two" {
					t.Errorf("after abort Get(2) = %q,%v want \"two\",true", v, ok)
				}
				if _, ok := m.Get(tx, 3); ok {
					t.Errorf("after abort Get(3) present, want absent")
				}
				if n := m.Len(tx); n != 2 {
					t.Errorf("after abort Len = %d, want 2", n)
				}
				return nil
			})
		})
	}
}

// TestTMapKeyKinds exercises the derived hashers across key layouts:
// strings, ints, pointer keys, small structs with padding, and arrays.
func TestTMapKeyKinds(t *testing.T) {
	e := stm.NewEngine(stm.EngineTL2)

	t.Run("padded-struct-key", func(t *testing.T) {
		type padded struct {
			A uint8
			B uint64 // 7 bytes of padding before B
		}
		m := NewTMap[padded, int](8)
		_ = e.Atomically(func(tx *stm.Tx) error {
			m.Put(tx, padded{A: 1, B: 2}, 12)
			m.Put(tx, padded{A: 3, B: 4}, 34)
			return nil
		})
		_ = e.Atomically(func(tx *stm.Tx) error {
			if v, ok := m.Get(tx, padded{A: 1, B: 2}); !ok || v != 12 {
				t.Errorf("padded Get = %d,%v want 12,true", v, ok)
			}
			return nil
		})
	})

	t.Run("pointer-key", func(t *testing.T) {
		m := NewTMap[*int, string](8)
		k1, k2 := new(int), new(int)
		_ = e.Atomically(func(tx *stm.Tx) error {
			m.Put(tx, k1, "one")
			m.Put(tx, k2, "two")
			return nil
		})
		_ = e.Atomically(func(tx *stm.Tx) error {
			if v, ok := m.Get(tx, k1); !ok || v != "one" {
				t.Errorf("pointer Get(k1) = %q,%v", v, ok)
			}
			if v, ok := m.Get(tx, k2); !ok || v != "two" {
				t.Errorf("pointer Get(k2) = %q,%v", v, ok)
			}
			return nil
		})
	})

	t.Run("array-key", func(t *testing.T) {
		m := NewTMap[[3]uint16, int](8)
		_ = e.Atomically(func(tx *stm.Tx) error {
			m.Put(tx, [3]uint16{1, 2, 3}, 123)
			return nil
		})
		_ = e.Atomically(func(tx *stm.Tx) error {
			if v, ok := m.Get(tx, [3]uint16{1, 2, 3}); !ok || v != 123 {
				t.Errorf("array Get = %d,%v want 123,true", v, ok)
			}
			if _, ok := m.Get(tx, [3]uint16{3, 2, 1}); ok {
				t.Errorf("array Get of absent key reported present")
			}
			return nil
		})
	})

	t.Run("underivable-key-panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatalf("NewTMap with interface key did not panic")
			}
		}()
		_ = NewTMap[any, int](8)
	})
}

// TestHasherSpread sanity-checks the derived hashers: equal keys hash
// equal, and a few thousand distinct keys spread over the table without
// catastrophic clustering.
func TestHasherSpread(t *testing.T) {
	hInt := hasherFor[int]()
	hStr := hasherFor[string]()
	if hInt == nil || hStr == nil {
		t.Fatal("derived hashers missing for int/string")
	}
	if hInt(42) != hInt(42) || hStr("x") != hStr("x") {
		t.Fatal("hash not deterministic")
	}
	const n, buckets = 4096, 64
	var shift uint = 64 - 6
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[fibIndex(hInt(i), shift)]++
	}
	for b, c := range counts {
		if c == 0 || c > 4*n/buckets {
			t.Fatalf("int hash clusters: bucket %d has %d of %d keys", b, c, n)
		}
	}
	counts = make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[fibIndex(hStr(fmt.Sprintf("key-%d", i)), shift)]++
	}
	for b, c := range counts {
		if c == 0 || c > 4*n/buckets {
			t.Fatalf("string hash clusters: bucket %d has %d of %d keys", b, c, n)
		}
	}
}

// TestAliasedTMapFixtureLosesKeys pins the planted bug's observable
// symptom (the conformance harness convicts it from recorded histories;
// this is the direct view): putting a second key destroys the first.
func TestAliasedTMapFixtureLosesKeys(t *testing.T) {
	e := stm.NewEngine(stm.EngineGlobalLock)
	m := NewAliasedTMapForTest[int, int64]()
	_ = e.Atomically(func(tx *stm.Tx) error {
		m.Put(tx, 1, 100)
		return nil
	})
	_ = e.Atomically(func(tx *stm.Tx) error {
		m.Put(tx, 2, 200)
		return nil
	})
	_ = e.Atomically(func(tx *stm.Tx) error {
		if _, ok := m.Get(tx, 1); ok {
			t.Errorf("aliased fixture kept key 1; the planted bug is gone and the conformance self-test is vacuous")
		}
		return nil
	})
}

// TestTMapGrows checks the bucket table doubles past the load-factor
// threshold and that nothing is lost or misrouted across generations:
// every key inserted before, during and after growth stays readable,
// and lookups keep agreeing with a model map.
func TestTMapGrows(t *testing.T) {
	for _, e := range engines(t) {
		t.Run(e.Kind().String(), func(t *testing.T) {
			m := NewTMap[int64, int64](1) // smallest start: growth must engage fast
			if got := m.Buckets(); got != 1 {
				t.Fatalf("initial buckets = %d, want 1", got)
			}
			const keys = 4096
			for k := int64(0); k < keys; k++ {
				if err := e.Atomically(func(tx *stm.Tx) error {
					m.Put(tx, k, k*3)
					return nil
				}); err != nil {
					t.Fatalf("put %d: %v", k, err)
				}
			}
			grown := m.Buckets()
			if grown < keys/(2*growChainLen) {
				t.Fatalf("table did not grow: %d buckets for %d keys", grown, keys)
			}
			// Mean chain length stays at or under the trigger.
			if lf := keys / grown; lf > growChainLen {
				t.Fatalf("load factor %d exceeds growth threshold %d (buckets %d)", lf, growChainLen, grown)
			}
			if err := e.Atomically(func(tx *stm.Tx) error {
				if n := m.Len(tx); n != keys {
					return fmt.Errorf("Len = %d, want %d", n, keys)
				}
				for k := int64(0); k < keys; k++ {
					v, ok := m.Get(tx, k)
					if !ok || v != k*3 {
						return fmt.Errorf("key %d = %d,%v after growth", k, v, ok)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			// Deletes still route correctly in the grown generation.
			for k := int64(0); k < keys; k += 2 {
				if err := e.Atomically(func(tx *stm.Tx) error {
					if !m.Delete(tx, k) {
						return fmt.Errorf("delete %d missed", k)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			if n := m.LenQuiesced(); n != keys/2 {
				t.Fatalf("LenQuiesced = %d after deletes, want %d", n, keys/2)
			}
		})
	}
}

// TestTMapGrowsUnderConcurrentReaders races growth against readers and
// disjoint-key writers: reader transactions either serialize before a
// table swap (old generation, whole) or after it (new generation,
// whole), so every committed read must still see exactly the model's
// value. Run with -race in CI.
func TestTMapGrowsUnderConcurrentReaders(t *testing.T) {
	for _, e := range engines(t) {
		t.Run(e.Kind().String(), func(t *testing.T) {
			m := NewTMap[int64, int64](1)
			const seeded = 64
			for k := int64(0); k < seeded; k++ {
				_ = e.Atomically(func(tx *stm.Tx) error {
					m.Put(tx, k, k+1000)
					return nil
				})
			}
			start := m.Buckets()
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) { // readers over the seeded range
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						k := int64(r.Intn(seeded))
						var v int64
						var ok bool
						_ = e.AtomicallyAs(w, func(tx *stm.Tx) error {
							v, ok = m.Get(tx, k)
							return nil
						})
						if !ok || v != k+1000 {
							t.Errorf("reader saw key %d = %d,%v across growth", k, v, ok)
							return
						}
					}
				}(w)
			}
			// Writer drives growth by inserting fresh keys.
			for k := int64(seeded); k < seeded+2048; k++ {
				if err := e.AtomicallyAs(5, func(tx *stm.Tx) error {
					m.Put(tx, k, k+1000)
					return nil
				}); err != nil {
					t.Fatalf("grow put %d: %v", k, err)
				}
			}
			close(stop)
			wg.Wait()
			if got := m.Buckets(); got <= start {
				t.Fatalf("no growth under load: %d -> %d buckets", start, got)
			}
			for k := int64(0); k < seeded+2048; k++ {
				_ = e.Atomically(func(tx *stm.Tx) error {
					if v, ok := m.Get(tx, k); !ok || v != k+1000 {
						t.Errorf("key %d = %d,%v after concurrent growth", k, v, ok)
					}
					return nil
				})
			}
		})
	}
}

// TestTMapPreloadFromDefaultBuckets loads 262144 keys into a map that
// starts at the default size, so it grows through thirteen generations,
// the last rehash writing 262144 bucket variables in one transaction.
// That commit sorts its write set; with a quadratic sort and a pooled
// attempt state that kept the giant set's index, this loop took 57 s.
func TestTMapPreloadFromDefaultBuckets(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("timing test")
	}
	const keys = 262144
	e := stm.NewEngine(stm.EngineTL2)
	m := NewTMap[int64, int64](0)
	start := time.Now()
	for k := int64(0); k < keys; k++ {
		_ = e.Atomically(func(tx *stm.Tx) error {
			m.Put(tx, k, k)
			return nil
		})
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("preloading %d keys took %v", keys, d)
	}
	if n := m.LenQuiesced(); n != keys {
		t.Fatalf("LenQuiesced = %d, want %d", n, keys)
	}
}
