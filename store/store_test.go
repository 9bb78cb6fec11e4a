package store

import (
	"fmt"
	"sync"
	"testing"

	"pcltm/stm"
	"pcltm/tstructs"
)

// TestStoreBasicOps drives the single-key surface against a model map
// on every engine kind.
func TestStoreBasicOps(t *testing.T) {
	for _, kind := range stm.EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			s := New[string, int64](Config{Partitions: 4, Engine: kind, Buckets: 8})
			model := map[string]int64{}
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", i%40)
				switch i % 5 {
				case 0:
					got := s.Delete(k)
					_, want := model[k]
					if got != want {
						t.Fatalf("Delete(%q) = %v, model %v", k, got, want)
					}
					delete(model, k)
				case 1:
					got, ok := s.Get(k)
					want, wantOK := model[k]
					if ok != wantOK || got != want {
						t.Fatalf("Get(%q) = %d,%v model %d,%v", k, got, ok, want, wantOK)
					}
				case 2:
					s.Update(k, func(v int64, ok bool) int64 { return v + 1 })
					model[k]++
				default:
					s.Put(k, int64(i))
					model[k] = int64(i)
				}
			}
			if got := s.Len(); got != len(model) {
				t.Fatalf("Len = %d, model %d", got, len(model))
			}
			for k, want := range model {
				if got, ok := s.Get(k); !ok || got != want {
					t.Fatalf("final Get(%q) = %d,%v want %d,true", k, got, ok, want)
				}
			}
		})
	}
}

// TestStorePartitionRouting checks routing is deterministic, total, and
// actually spreads keys across partitions.
func TestStorePartitionRouting(t *testing.T) {
	s := New[int, int](Config{Partitions: 8, Engine: stm.EngineTL2})
	if s.Partitions() != 8 {
		t.Fatalf("Partitions = %d, want 8", s.Partitions())
	}
	seen := make([]int, 8)
	for k := 0; k < 4096; k++ {
		p := s.PartitionOf(k)
		if p != s.PartitionOf(k) {
			t.Fatal("routing not deterministic")
		}
		if p < 0 || p >= 8 {
			t.Fatalf("PartitionOf(%d) = %d out of range", k, p)
		}
		seen[p]++
	}
	for p, n := range seen {
		if n == 0 {
			t.Errorf("partition %d received no keys of 4096", p)
		}
	}
	// A single-partition store routes everything to 0.
	s1 := New[int, int](Config{Partitions: 1, Engine: stm.EngineTL2})
	for k := 0; k < 100; k++ {
		if s1.PartitionOf(k) != 0 {
			t.Fatalf("1-partition store routed key %d to %d", k, s1.PartitionOf(k))
		}
	}
}

// TestStorePartitionBucketIndependence pins the routing decorrelation:
// within one partition, keys must still spread over the TMap buckets.
// (Routing and bucketing both Fibonacci-spread the same key hash; if
// routing did not re-scramble first, a partition's keys would share
// their top product bits and collapse onto a fraction of its buckets.)
func TestStorePartitionBucketIndependence(t *testing.T) {
	const parts = 8
	s := New[int, int](Config{Partitions: parts, Engine: stm.EngineTL2, Buckets: 16})
	// A probe TMap with the same geometry as the partitions' maps
	// buckets keys identically to them.
	probe := tstructs.NewTMap[int, int](16)
	perBucket := make(map[int]map[int]bool) // partition -> set of buckets hit
	for p := 0; p < parts; p++ {
		perBucket[p] = make(map[int]bool)
	}
	for k := 0; k < 1<<14; k++ {
		perBucket[s.PartitionOf(k)][probe.BucketOf(k)] = true
	}
	for p := 0; p < parts; p++ {
		if got := len(perBucket[p]); got < 12 {
			t.Errorf("partition %d's keys hit only %d of 16 buckets; routing and bucketing are correlated", p, got)
		}
	}
}

// TestStoreAtomicallySamePartition moves value between two keys of the
// same partition atomically and checks the invariant from a concurrent
// reader's view.
func TestStoreAtomicallySamePartition(t *testing.T) {
	s := New[int, int64](Config{Partitions: 4, Engine: stm.EngineTL2})
	// Find two keys in one partition.
	k1 := 0
	k2 := -1
	for k := 1; k < 1000; k++ {
		if s.PartitionOf(k) == s.PartitionOf(k1) {
			k2 = k
			break
		}
	}
	if k2 < 0 {
		t.Fatal("no two keys share a partition in 1000 tries")
	}
	part := s.PartitionOf(k1)
	s.Put(k1, 500)
	s.Put(k2, 500)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			_ = s.Atomically(part, func(tx *stm.Tx, p *Part[int, int64]) error {
				a, _ := p.Get(tx, k1)
				b, _ := p.Get(tx, k2)
				p.Put(tx, k1, a-1)
				p.Put(tx, k2, b+1)
				return nil
			})
		}
	}()
	for i := 0; i < 300; i++ {
		var sum int64
		_ = s.Atomically(part, func(tx *stm.Tx, p *Part[int, int64]) error {
			a, _ := p.Get(tx, k1)
			b, _ := p.Get(tx, k2)
			sum = a + b
			return nil
		})
		if sum != 1000 {
			t.Fatalf("atomicity leak: observed sum %d, want 1000", sum)
		}
	}
	<-done
}

// TestStoreRoutingViolationPanics checks Part refuses keys owned by
// another partition.
func TestStoreRoutingViolationPanics(t *testing.T) {
	s := New[int, int](Config{Partitions: 4, Engine: stm.EngineGlobalLock})
	var foreign int
	for k := 0; k < 1000; k++ {
		if s.PartitionOf(k) != 0 {
			foreign = k
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a foreign key inside partition 0's transaction did not panic")
		}
	}()
	_ = s.Atomically(0, func(tx *stm.Tx, p *Part[int, int]) error {
		p.Put(tx, foreign, 1)
		return nil
	})
}

// TestStoreCrossAtomic checks Cross moves value between partitions
// all-or-nothing: concurrent single-partition readers always see the
// total conserved.
func TestStoreCrossAtomic(t *testing.T) {
	const keys = 16
	s := New[int, int64](Config{Partitions: 4, Engine: stm.EngineTL2})
	for k := 0; k < keys; k++ {
		s.Put(k, 100)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // cross-partition transfers
		defer wg.Done()
		for i := 0; i < 200; i++ {
			from, to := i%keys, (i*7+3)%keys
			if from == to {
				continue
			}
			_ = s.Cross(func(ct *CrossTx[int, int64]) error {
				a, _ := ct.Get(from)
				b, _ := ct.Get(to)
				ct.Put(from, a-5)
				ct.Put(to, b+5)
				return nil
			})
		}
		close(stop)
	}()
	wg.Add(1)
	go func() { // concurrent total audit via Cross (exact snapshot)
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sum int64
			_ = s.Cross(func(ct *CrossTx[int, int64]) error {
				sum = 0 // Cross bodies re-execute (discovery + locked run)
				for k := 0; k < keys; k++ {
					v, _ := ct.Get(k)
					sum += v
				}
				return nil
			})
			if sum != keys*100 {
				t.Errorf("cross-partition atomicity leak: total %d, want %d", sum, keys*100)
				return
			}
		}
	}()
	wg.Wait()
}

// TestStoreCrossRollback checks an erroring Cross body leaves every
// partition untouched (buffered writes discarded).
func TestStoreCrossRollback(t *testing.T) {
	s := New[int, string](Config{Partitions: 4, Engine: stm.EngineTL2})
	s.Put(1, "one")
	errBoom := fmt.Errorf("boom")
	err := s.Cross(func(ct *CrossTx[int, string]) error {
		ct.Put(1, "clobbered")
		ct.Put(2, "new")
		ct.Delete(1)
		return errBoom
	})
	if err != errBoom {
		t.Fatalf("Cross err = %v, want boom", err)
	}
	if v, ok := s.Get(1); !ok || v != "one" {
		t.Errorf("after rollback Get(1) = %q,%v want \"one\",true", v, ok)
	}
	if _, ok := s.Get(2); ok {
		t.Errorf("after rollback Get(2) present, want absent")
	}
}

// TestStoreCrossReadYourWrites checks the body observes its own
// buffered writes and deletes.
func TestStoreCrossReadYourWrites(t *testing.T) {
	s := New[int, int](Config{Partitions: 2, Engine: stm.EngineTL2})
	s.Put(1, 10)
	_ = s.Cross(func(ct *CrossTx[int, int]) error {
		ct.Put(1, 11)
		if v, ok := ct.Get(1); !ok || v != 11 {
			t.Errorf("read-your-writes Get(1) = %d,%v want 11,true", v, ok)
		}
		if !ct.Delete(1) {
			t.Errorf("Delete(1) of buffered key reported absent")
		}
		if _, ok := ct.Get(1); ok {
			t.Errorf("Get(1) after buffered delete reported present")
		}
		ct.Put(2, 22)
		return nil
	})
	if _, ok := s.Get(1); ok {
		t.Errorf("committed delete of 1 did not apply")
	}
	if v, ok := s.Get(2); !ok || v != 22 {
		t.Errorf("committed Put(2) = %d,%v want 22,true", v, ok)
	}
}

// TestStoreConcurrentDisjoint hammers disjoint key ranges from parallel
// workers — the parallel-commit contract at store level.
func TestStoreConcurrentDisjoint(t *testing.T) {
	const workers, opsPer = 4, 250
	for _, kind := range []stm.EngineKind{stm.EngineTL2Striped, stm.EngineAdaptive} {
		t.Run(kind.String(), func(t *testing.T) {
			s := New[int, int64](Config{Partitions: 4, Engine: kind})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < opsPer; i++ {
						k := w*opsPer + i
						s.Put(k, int64(k))
						s.Update(k, func(v int64, ok bool) int64 { return v + 1 })
					}
				}(w)
			}
			wg.Wait()
			for k := 0; k < workers*opsPer; k++ {
				if v, ok := s.Get(k); !ok || v != int64(k)+1 {
					t.Fatalf("Get(%d) = %d,%v want %d,true", k, v, ok, k+1)
				}
			}
			if got := s.Len(); got != workers*opsPer {
				t.Fatalf("Len = %d, want %d", got, workers*opsPer)
			}
		})
	}
}

// TestStorePerPartitionStats checks each partition's engine counts only
// its own work — the machine-level independence the package doc claims.
func TestStorePerPartitionStats(t *testing.T) {
	s := New[int, int](Config{Partitions: 4, Engine: stm.EngineTL2})
	// Drive exactly one partition.
	var k0 int
	for k := 0; k < 1000; k++ {
		if s.PartitionOf(k) == 0 {
			k0 = k
			break
		}
	}
	for i := 0; i < 50; i++ {
		s.Put(k0, i)
	}
	st := s.Stats()
	if st[0].Commits < 50 {
		t.Errorf("partition 0 commits = %d, want >= 50", st[0].Commits)
	}
	for p := 1; p < 4; p++ {
		if st[p].Commits != 0 {
			t.Errorf("idle partition %d recorded %d commits; engine state is not partition-private",
				p, st[p].Commits)
		}
	}
}

// TestStoreAdaptiveStats checks the per-partition regime snapshot is
// available exactly for adaptive-engined stores.
func TestStoreAdaptiveStats(t *testing.T) {
	s := New[int, int](Config{Partitions: 2, Engine: stm.EngineAdaptive})
	s.Put(1, 1)
	if st, ok := s.AdaptiveStats(); !ok || len(st) != 2 {
		t.Errorf("AdaptiveStats = len %d, ok %v; want 2, true", len(st), ok)
	}
	s2 := New[int, int](Config{Partitions: 2, Engine: stm.EngineTL2})
	if _, ok := s2.AdaptiveStats(); ok {
		t.Errorf("AdaptiveStats ok for tl2 store, want false")
	}
}

// TestStoreEngineOptionsSeam checks per-partition options reach the
// right engine (the conformance harness hangs recorders off this).
func TestStoreEngineOptionsSeam(t *testing.T) {
	recs := make([]*stm.Recorder, 2)
	s := NewFunc[int, int](Config{
		Partitions: 2,
		Engine:     stm.EngineTL2,
		EngineOptions: func(part int) []stm.Option {
			recs[part] = stm.NewRecorder()
			return []stm.Option{stm.WithRecorder(recs[part])}
		},
	}, func(k int) uint64 { return uint64(k) })
	var k0, k1 int = -1, -1
	for k := 0; k < 1000 && (k0 < 0 || k1 < 0); k++ {
		switch s.PartitionOf(k) {
		case 0:
			if k0 < 0 {
				k0 = k
			}
		case 1:
			if k1 < 0 {
				k1 = k
			}
		}
	}
	s.Put(k0, 1)
	s.Put(k1, 2)
	if recs[0].Len() == 0 || recs[1].Len() == 0 {
		t.Fatalf("per-partition recorders saw %d/%d attempts; options did not reach their engines",
			recs[0].Len(), recs[1].Len())
	}
}

// TestLenExactUnderConcurrentWriters pins the PR 6 follow-up: Len must
// be a true instantaneous count, not a time-skewed sum. Movers use
// Cross to atomically delete one key and insert another — the total is
// invariant at every instant — while single-partition writers churn
// overwrites underneath. The old per-partition-transaction Len could
// read one partition before a move and another after it, reporting
// N±1; the exclusive-sweep Len must report exactly N on every call.
func TestLenExactUnderConcurrentWriters(t *testing.T) {
	const (
		keys    = 256
		movers  = 3
		writers = 2
		rounds  = 60
	)
	s := New[int64, int64](Config{Partitions: 4, Engine: stm.EngineTL2, Buckets: 16})
	for k := int64(0); k < keys; k++ {
		s.Put(k, 0)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Movers: atomically replace one owned key with a fresh one. Each
	// mover owns a disjoint key range so movers never collide on keys,
	// and the store's total count never changes.
	for mv := 0; mv < movers; mv++ {
		wg.Add(1)
		go func(mv int) {
			defer wg.Done()
			cur := int64(mv) // current live key of this mover's slot
			next := int64(keys + mv)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Cross(func(ct *CrossTx[int64, int64]) error {
					if !ct.Delete(cur) {
						t.Errorf("mover %d: key %d vanished", mv, cur)
					}
					ct.Put(next, 1)
					return nil
				})
				cur, next = next, cur
			}
		}(mv)
	}
	// Writers: single-partition overwrites — Len must coexist with the
	// shared-lock fast path, not just with Cross. They walk keys
	// movers..keys-1 only: keys 0..movers-1 are the movers' slots, absent
	// half the time, and an Update of an absent key inserts it — which
	// would change the count the test holds invariant.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			off := int64(w * 13)
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Update(movers+off%(keys-movers), func(v int64, ok bool) int64 { return v + 1 })
				off += 7
			}
		}(w)
	}

	for i := 0; i < rounds; i++ {
		if got := s.Len(); got != keys {
			close(stop)
			wg.Wait()
			t.Fatalf("round %d: Len = %d, want exactly %d", i, got, keys)
		}
	}
	close(stop)
	wg.Wait()
	if got := s.Len(); got != keys {
		t.Fatalf("quiesced Len = %d, want %d", got, keys)
	}
}
