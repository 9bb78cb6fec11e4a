package tstructs

import (
	"fmt"
	"maps"
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

// modelMap pairs a TMap with the plain Go map it must agree with, and
// checks every operation's result against that model as it goes.
type modelMap struct {
	m     *TMap[string, int64]
	model map[string]int64
}

// The operations modelMap.apply knows, in the order the random test
// draws them.
const (
	opGet = iota
	opContains
	opPut
	opUpdate
	opDelete
	opLen
	opForEach
	numOps
)

// apply runs one operation, picked by op, on the map inside tx and on
// the model, and returns a description of the first disagreement.
func (mm *modelMap) apply(tx *stm.Tx, op int, k string, v int64) error {
	want, wantOK := mm.model[k]
	switch op {
	case opGet:
		if got, ok := mm.m.Get(tx, k); got != want || ok != wantOK {
			return fmt.Errorf("Get(%q) = %d,%v, model %d,%v", k, got, ok, want, wantOK)
		}
	case opContains:
		if got := mm.m.Contains(tx, k); got != wantOK {
			return fmt.Errorf("Contains(%q) = %v, model %v", k, got, wantOK)
		}
	case opPut:
		mm.m.Put(tx, k, v)
		mm.model[k] = v
	case opUpdate:
		var seen int64
		var seenOK bool
		got := mm.m.Update(tx, k, func(cur int64, ok bool) int64 {
			seen, seenOK = cur, ok
			return cur + v
		})
		if seen != want || seenOK != wantOK || got != want+v {
			return fmt.Errorf("Update(%q) saw %d,%v and returned %d, model %d,%v -> %d",
				k, seen, seenOK, got, want, wantOK, want+v)
		}
		mm.model[k] = want + v
	case opDelete:
		if got := mm.m.Delete(tx, k); got != wantOK {
			return fmt.Errorf("Delete(%q) = %v, model %v", k, got, wantOK)
		}
		delete(mm.model, k)
	case opLen:
		if got := mm.m.Len(tx); got != len(mm.model) {
			return fmt.Errorf("Len = %d, model %d", got, len(mm.model))
		}
	case opForEach:
		seen := map[string]int64{}
		mm.m.ForEach(tx, func(k string, v int64) bool {
			seen[k] = v
			return true
		})
		if !maps.Equal(seen, mm.model) {
			return fmt.Errorf("ForEach visited %v, model %v", seen, mm.model)
		}
	}
	return nil
}

// TestTMapModel is the model-based property test: seeded random
// multi-operation transactions over the map's whole surface, checked
// operation by operation against a plain Go map, on every engine. The
// table starts at two buckets under 48 keys, so transactions keep
// inserting into occupied buckets, growing the table mid-transaction
// and deleting buckets down to empty. A third of the transactions abort
// and a third of the rest run part of their operations in an OrElse
// branch that then retries: both must leave no trace in the map.
func TestTMapModel(t *testing.T) {
	errAbort := fmt.Errorf("deliberate abort")
	for _, e := range engines(t) {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", e.Kind(), seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				mm := &modelMap{m: NewTMap[string, int64](2), model: map[string]int64{}}
				for step := 0; step < 600; step++ {
					type op struct {
						kind int
						key  string
						val  int64
					}
					ops := make([]op, 1+r.Intn(6))
					for i := range ops {
						ops[i] = op{r.Intn(numOps), fmt.Sprintf("key-%d", r.Intn(48)), int64(r.Intn(1000))}
						if ops[i].kind >= opLen && r.Intn(4) != 0 {
							ops[i].kind = opPut + r.Intn(3) // keep the whole-table reads rare
						}
					}
					abort := r.Intn(3) == 0
					branch := 0 // ops[:branch] run in an OrElse branch that retries
					if !abort && r.Intn(3) == 0 {
						branch = 1 + r.Intn(len(ops))
					}
					committed := maps.Clone(mm.model)
					err := e.Atomically(func(tx *stm.Tx) error {
						mm.model = maps.Clone(committed)
						run := func(tx *stm.Tx, ops []op) error {
							for _, o := range ops {
								if err := mm.apply(tx, o.kind, o.key, o.val); err != nil {
									return err
								}
							}
							return nil
						}
						if branch > 0 {
							err := stm.OrElse(tx, func(tx *stm.Tx) error {
								if err := run(tx, ops[:branch]); err != nil {
									return err
								}
								stm.Retry(tx)
								return nil
							}, func(tx *stm.Tx) error {
								mm.model = maps.Clone(committed) // the branch rolled back
								return nil
							})
							if err != nil {
								return err
							}
						}
						if err := run(tx, ops[branch:]); err != nil {
							return err
						}
						if abort {
							return errAbort
						}
						return nil
					})
					switch {
					case abort && err == errAbort:
						mm.model = committed
					case err != nil:
						t.Fatalf("step %d (%v, abort %v, branch %d): %v", step, ops, abort, branch, err)
					}
				}
				// What the committed transactions left is the model, read back
				// in a transaction and through the quiesced count.
				if err := e.Atomically(func(tx *stm.Tx) error {
					if err := mm.apply(tx, opLen, "", 0); err != nil {
						return err
					}
					return mm.apply(tx, opForEach, "", 0)
				}); err != nil {
					t.Fatal(err)
				}
				if got := mm.m.LenQuiesced(); got != len(mm.model) {
					t.Fatalf("LenQuiesced = %d, model %d", got, len(mm.model))
				}
				if mm.m.Buckets() <= 2 {
					t.Fatalf("table never grew (%d buckets): the run did not cover growth", mm.m.Buckets())
				}
			})
		}
	}
}

// TestTMapSameTransactionSequences pins the sequences in which one
// transaction meets its own structural changes — each reads a bucket
// array the same transaction published — on every engine.
func TestTMapSameTransactionSequences(t *testing.T) {
	for _, e := range engines(t) {
		t.Run(e.Kind().String(), func(t *testing.T) {
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			expect := func(tx *stm.Tx, m *TMap[int64, int64], k, want int64, wantOK bool) error {
				if v, ok := m.Get(tx, k); v != want || ok != wantOK {
					return fmt.Errorf("Get(%d) = %d,%v want %d,%v", k, v, ok, want, wantOK)
				}
				return nil
			}

			// insert -> get -> delete -> re-insert of one key.
			m := NewTMap[int64, int64](4)
			must(e.Atomically(func(tx *stm.Tx) error {
				m.Put(tx, 7, 70)
				if err := expect(tx, m, 7, 70, true); err != nil {
					return err
				}
				if !m.Delete(tx, 7) {
					return fmt.Errorf("Delete of the key just inserted missed")
				}
				if err := expect(tx, m, 7, 0, false); err != nil {
					return err
				}
				m.Put(tx, 7, 71)
				return expect(tx, m, 7, 71, true)
			}))
			must(e.Atomically(func(tx *stm.Tx) error {
				if n := m.Len(tx); n != 1 {
					return fmt.Errorf("Len = %d after insert/delete/re-insert, want 1", n)
				}
				return expect(tx, m, 7, 71, true)
			}))

			// Two inserts into one bucket: the second copies the array the
			// first published.
			a, b := int64(100), int64(101)
			for m.BucketOf(b) != m.BucketOf(a) {
				b++
			}
			must(e.Atomically(func(tx *stm.Tx) error {
				m.Put(tx, a, 1)
				m.Put(tx, b, 2)
				if err := expect(tx, m, a, 1, true); err != nil {
					return err
				}
				return expect(tx, m, b, 2, true)
			}))
			must(e.Atomically(func(tx *stm.Tx) error {
				if err := expect(tx, m, a, 1, true); err != nil {
					return err
				}
				return expect(tx, m, b, 2, true)
			}))

			// An OrElse branch inserts (growing the table) and retries: the
			// insert, the growth and the new value TVars all roll back.
			g := NewTMap[int64, int64](1)
			must(e.Atomically(func(tx *stm.Tx) error {
				return stm.OrElse(tx, func(tx *stm.Tx) error {
					for k := int64(0); k < 2*growChainLen; k++ {
						g.Put(tx, k, k)
					}
					stm.Retry(tx)
					return nil
				}, func(tx *stm.Tx) error {
					if n := g.Len(tx); n != 0 {
						return fmt.Errorf("Len = %d inside the alternative, want 0", n)
					}
					g.Put(tx, 1, 10)
					return nil
				})
			}))
			if got := g.Buckets(); got != 1 {
				t.Fatalf("rolled-back branch left %d buckets, want 1", got)
			}
			must(e.Atomically(func(tx *stm.Tx) error {
				if n := g.Len(tx); n != 1 {
					return fmt.Errorf("Len = %d after the OrElse, want 1", n)
				}
				return expect(tx, g, 1, 10, true)
			}))

			// Growth in the middle of a transaction: keys inserted before and
			// after the rehash are all readable before it commits.
			const n = 8 * growChainLen
			must(e.Atomically(func(tx *stm.Tx) error {
				for k := int64(0); k < n; k++ {
					g.Put(tx, k, k*2)
				}
				for k := int64(0); k < n; k++ {
					if err := expect(tx, g, k, k*2, true); err != nil {
						return err
					}
				}
				return nil
			}))
			if got := g.Buckets(); got < n/growChainLen {
				t.Fatalf("%d keys left %d buckets: no growth", n, got)
			}

			// Deleting a bucket's keys down to none puts its head back to
			// nil — an emptied bucket is indistinguishable from a fresh one.
			must(e.Atomically(func(tx *stm.Tx) error {
				for k := int64(0); k < n; k++ {
					if !g.Delete(tx, k) {
						return fmt.Errorf("Delete(%d) missed", k)
					}
				}
				return nil
			}))
			for i, head := range g.tablePeek().heads {
				if b := head.Peek(); b != nil {
					t.Fatalf("bucket %d emptied by deletes holds %v, want a nil head", i, *b)
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
