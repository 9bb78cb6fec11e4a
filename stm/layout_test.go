package stm

import (
	"reflect"
	"testing"
	"unsafe"
)

// lines is the range of cache lines [first, last] the n bytes at p span.
func lines(p, n uintptr) (first, last uintptr) {
	return p / cacheLine, (p + n - 1) / cacheLine
}

// sharesLine reports whether the n bytes at p and the m bytes at q touch
// a common cache line.
func sharesLine(p, n, q, m uintptr) bool {
	pf, pl := lines(p, n)
	qf, ql := lines(q, m)
	return pf <= ql && qf <= pl
}

// namedFields lists the non-blank fields of the struct of type t at base
// as (name, address, size), listing the fields of the nested struct
// field named into instead of the field itself.
func namedFields(base uintptr, t reflect.Type, into string, out func(name string, p, n uintptr)) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch f.Name {
		case "_":
		case into:
			namedFields(base+f.Offset, f.Type, "", func(name string, p, n uintptr) {
				out(f.Name+"."+name, p, n)
			})
		default:
			out(f.Name, base+f.Offset, f.Type.Size())
		}
	}
}

// TestEngineSeqOwnCacheLine pins the false-sharing fix on the notifier:
// seq, written by every writing commit, has a full line of padding on
// each side in the type, and on a built engine no other field of the
// Engine — impl and rec are read by every attempt — shares its line.
func TestEngineSeqOwnCacheLine(t *testing.T) {
	var n notifier
	if off := unsafe.Offsetof(n.seq); off < cacheLine {
		t.Errorf("notifier.seq at offset %d: want at least %d bytes of padding before it", off, cacheLine)
	}
	if gap := unsafe.Offsetof(n.waiters) - unsafe.Offsetof(n.seq) - 8; gap < cacheLine {
		t.Errorf("%d bytes between notifier.seq and waiters, want at least %d", gap, cacheLine)
	}
	for _, kind := range EngineKinds() {
		e := NewEngine(kind)
		seq := uintptr(unsafe.Pointer(&e.notif.seq))
		namedFields(uintptr(unsafe.Pointer(e)), reflect.TypeFor[Engine](), "notif", func(name string, p, size uintptr) {
			if name != "notif.seq" && sharesLine(seq, 8, p, size) {
				t.Errorf("%s: Engine.%s shares a cache line with notif.seq", kind, name)
			}
		})
	}
}

// TestSlotStripesOwnCacheLines pins the allocation-alignment argument
// the per-slot structures rest on: every counter shard, clock shard and
// adaptive slot record starts on a line boundary and fills whole lines,
// so no two slots ever write one line — and neither do two Tx handles,
// which every attempt writes and which engines allocate side by side.
func TestSlotStripesOwnCacheLines(t *testing.T) {
	check := func(what string, p, size uintptr) {
		t.Helper()
		if p%cacheLine != 0 || size%cacheLine != 0 {
			t.Errorf("%s at %#x, %d bytes: not whole cache lines", what, p, size)
		}
	}
	e := NewEngine(EngineAdaptive)
	_ = e.Atomically(func(tx *Tx) error {
		check("Tx handle", uintptr(unsafe.Pointer(tx)), unsafe.Sizeof(*tx))
		return nil
	})
	for i := range e.commits.shards {
		check("engine counter shard", uintptr(unsafe.Pointer(&e.commits.shards[i])), unsafe.Sizeof(e.commits.shards[i]))
	}
	a := e.impl.(*adaptiveEngine)
	for i := range a.slots {
		check("adaptive slot record", uintptr(unsafe.Pointer(&a.slots[i])), unsafe.Sizeof(a.slots[i]))
	}
	c := a.delegates[regimeLow].(*tl2Engine).clock.(*stripedClock)
	for i := range c.shards {
		check("clock shard", uintptr(unsafe.Pointer(&c.shards[i])), unsafe.Sizeof(c.shards[i]))
	}
}

// TestTxSlotsRoundRobin: an engine hands new Tx handles consecutive
// slots, so handles in use at once land on distinct stripes. Nesting
// keeps every handle in use, so each level's call creates a new one.
func TestTxSlotsRoundRobin(t *testing.T) {
	e := NewEngine(EngineTL2)
	n := e.slotMask + 1
	seen := make(map[int]bool)
	var nest func(depth int)
	nest = func(depth int) {
		_ = e.Atomically(func(tx *Tx) error {
			seen[tx.slot] = true
			if depth > 1 {
				nest(depth - 1)
			}
			return nil
		})
	}
	nest(n)
	if len(seen) != n {
		t.Errorf("%d nested transactions ran on %d distinct slots, want %d", n, len(seen), n)
	}
}
