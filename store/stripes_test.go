package store

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"pcltm/stm"
)

// withStripes rebuilds a fresh store's escalation locks as n stripes per
// partition, so the stripe tests do not depend on the box's core count.
func withStripes[K comparable, V any](s *Store[K, V], n int) {
	for _, p := range s.parts {
		p.locks = make([]lockStripe, n)
	}
	s.slotMask = n - 1
}

// TestEscalationStripes checks the striped escalation lock from both
// sides. Readers on different slots run together, each on its own
// stripe: nested bodies keep every handle in use, so each level gets a
// new handle with the next slot, and the innermost body finds every
// stripe read-held. A writer excludes readers on every slot: while a
// cross transaction is parked inside its body, no stripe of its
// partition can be read-locked — and every stripe of the partition it
// did not declare can — and a single-partition read waits for it.
func TestEscalationStripes(t *testing.T) {
	const stripes = 8
	s := New[int64, int64](Config{Partitions: 2})
	withStripes(s, stripes)
	p := s.parts[0]
	var k int64
	for s.PartitionOf(k) != 0 {
		k++
	}

	seen := make(map[int]bool)
	var nest func(depth int)
	nest = func(depth int) {
		_ = s.Atomically(0, func(_ *stm.Tx, h *Part[int64, int64]) error {
			seen[h.slot] = true
			if depth > 1 {
				nest(depth - 1)
				return nil
			}
			for i := range p.locks {
				if p.locks[i].TryLock() {
					p.locks[i].Unlock()
					t.Errorf("stripe %d not read-held with %d readers inside", i, stripes)
				}
			}
			return nil
		})
	}
	nest(stripes)
	if len(seen) != stripes {
		t.Fatalf("%d nested readers ran on %d distinct slots, want %d", stripes, len(seen), stripes)
	}

	locked, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- s.CrossOn([]int{0}, func(ct *CrossTx[int64, int64]) error {
			ct.Put(k, 7)
			close(locked) // the declared footprint covers the body: it runs once
			<-release
			return nil
		})
	}()
	<-locked
	for i := range p.locks {
		if p.locks[i].TryRLock() {
			p.locks[i].RUnlock()
			t.Errorf("stripe %d of the cross's partition read-locked under its exclusive hold", i)
		}
	}
	for i := range s.parts[1].locks {
		if !s.parts[1].locks[i].TryRLock() {
			t.Errorf("stripe %d of an undeclared partition is held", i)
			continue
		}
		s.parts[1].locks[i].RUnlock()
	}
	got := make(chan int64, 1)
	go func() {
		v, _ := s.Get(k)
		got <- v
	}()
	select {
	case v := <-got:
		t.Fatalf("read of the cross's partition ran under its exclusive hold (saw %d)", v)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("CrossOn: %v", err)
	}
	if v := <-got; v != 7 {
		t.Errorf("read after the cross saw %d, want 7", v)
	}
}

// TestEscalationStripeLayout pins the false-sharing fix: a stripe has a
// full cache line of padding on each side of its mutex, and on a built
// four-partition store no stripe's mutex shares a line with another
// stripe's or with any partition's fields (its engine and map pointers
// are read by every transaction). Before the fix, partitions sat in the
// 112-byte size class with the mutex padded only after it, so partition
// 2's reader count shared a line with partition 1's pointers.
func TestEscalationStripeLayout(t *testing.T) {
	var ls lockStripe
	mu := unsafe.Sizeof(sync.RWMutex{})
	if before := unsafe.Offsetof(ls.RWMutex); before < cacheLine {
		t.Errorf("%d bytes of padding before a stripe's mutex, want at least %d", before, cacheLine)
	}
	if after := unsafe.Sizeof(ls) - unsafe.Offsetof(ls.RWMutex) - mu; after < cacheLine {
		t.Errorf("%d bytes of padding after a stripe's mutex, want at least %d", after, cacheLine)
	}

	// span is n bytes at p; two spans share a line when their first and
	// last lines overlap.
	type span struct{ p, n uintptr }
	shares := func(a, b span) bool {
		return a.p/cacheLine <= (b.p+b.n-1)/cacheLine && b.p/cacheLine <= (a.p+a.n-1)/cacheLine
	}
	s := New[int64, int64](Config{Partitions: 4})
	var mutexes, partitions []span
	for _, p := range s.parts {
		partitions = append(partitions, span{uintptr(unsafe.Pointer(p)), unsafe.Sizeof(*p)})
		for j := range p.locks {
			mutexes = append(mutexes, span{uintptr(unsafe.Pointer(&p.locks[j].RWMutex)), mu})
		}
	}
	for i, m := range mutexes {
		for j, o := range mutexes {
			if i != j && shares(m, o) {
				t.Errorf("stripe mutexes at %#x and %#x share a cache line", m.p, o.p)
			}
		}
		for _, o := range partitions {
			if shares(m, o) {
				t.Errorf("stripe mutex at %#x shares a cache line with the partition at %#x", m.p, o.p)
			}
		}
	}

	// Every run writes its Part handle, and handles in use on different
	// cores are allocated side by side: each fills its own line.
	_ = s.Atomically(0, func(_ *stm.Tx, h *Part[int64, int64]) error {
		if p := uintptr(unsafe.Pointer(h)); p%cacheLine != 0 || unsafe.Sizeof(*h) != cacheLine {
			t.Errorf("Part handle at %#x, %d bytes: want one whole cache line", p, unsafe.Sizeof(*h))
		}
		return nil
	})
}
