package stm

import (
	"errors"
	"testing"
	"time"
)

// intWord encodes a small test integer as a one-word value.
func intWord(i int) vword { return vword{w0: uint64(i)} }

func wsVars(n int) []*tvar {
	out := make([]*tvar, n)
	for i := range out {
		out[i] = newTVar(kindWord, vword{})
	}
	return out
}

// TestWriteSetSmallAndSpill drives the write set across the spill
// boundary: lookups and overwrites must behave identically on the
// linear-scan path and the map-indexed path.
func TestWriteSetSmallAndSpill(t *testing.T) {
	const spill = 4
	tvs := wsVars(spill * 3)
	var ws writeSet
	ws.init(spill)
	for i, tv := range tvs {
		ws.put(tv, intWord(i))
		if i+1 <= spill && ws.idx != nil {
			t.Fatalf("map index built at %d entries, spill is %d", i+1, spill)
		}
	}
	if ws.idx == nil {
		t.Fatalf("map index never built past the spill threshold")
	}
	if ws.len() != len(tvs) {
		t.Fatalf("len = %d, want %d", ws.len(), len(tvs))
	}
	for i, tv := range tvs {
		if v, ok := ws.get(tv); !ok || v.w0 != uint64(i) {
			t.Fatalf("get(%d) = %v, %v", i, v, ok)
		}
	}
	// Overwrites keep the entry count and position.
	ws.put(tvs[1], intWord(100))
	if v, _ := ws.get(tvs[1]); v.w0 != 100 || ws.len() != len(tvs) {
		t.Fatalf("overwrite: got %v, len %d", v, ws.len())
	}
	if _, ok := ws.get(newTVar(kindWord, vword{})); ok {
		t.Fatal("get of absent variable succeeded")
	}
}

// TestWriteSetSortAndMembership: sortByID orders entries by id whatever
// the insertion order, and containsSorted agrees with membership both
// below and above the spill threshold.
func TestWriteSetSortAndMembership(t *testing.T) {
	for _, n := range []int{3, 20, 200} { // below and above the default spill, and past insertionSortMax
		tvs := wsVars(n)
		var ws writeSet
		ws.init(0)
		for i := len(tvs) - 1; i >= 0; i-- { // reverse insertion
			ws.put(tvs[i], intWord(i))
		}
		ws.sortByID()
		for i := 1; i < len(ws.entries); i++ {
			if ws.entries[i-1].tv.id >= ws.entries[i].tv.id {
				t.Fatalf("n=%d: entries not sorted by id at %d", n, i)
			}
		}
		for i, tv := range tvs {
			if !ws.containsSorted(tv) {
				t.Fatalf("n=%d: containsSorted missed member %d", n, i)
			}
			if v, ok := ws.get(tv); !ok || v.w0 != uint64(i) {
				t.Fatalf("n=%d: get(%d) after sort = %v, %v", n, i, v, ok)
			}
		}
		if ws.containsSorted(newTVar(kindWord, vword{})) {
			t.Fatalf("n=%d: containsSorted accepted non-member", n)
		}
	}
}

// TestWriteSetTruncateRestoresOverwrites: the mark/rollback bracket must
// restore a pre-mark entry's value that the truncated suffix overwrote.
func TestWriteSetTruncateRestoresOverwrites(t *testing.T) {
	tvs := wsVars(12) // spills at the default 8
	var ws writeSet
	ws.init(0)
	for i, tv := range tvs {
		ws.put(tv, intWord(i))
	}
	// Snapshot, then overwrite an early entry and add nothing new.
	n := ws.len()
	saved := make([]writeEntry, n)
	copy(saved, ws.entries)
	ws.put(tvs[2], intWord(222))
	ws.put(newTVar(kindWord, vword{}), intWord(999))
	ws.truncate(n, saved)
	if ws.len() != n {
		t.Fatalf("len after truncate = %d, want %d", ws.len(), n)
	}
	if v, _ := ws.get(tvs[2]); v.w0 != 2 {
		t.Fatalf("overwritten pre-mark value not restored: %v", v)
	}
	ws.reset()
	if ws.len() != 0 {
		t.Fatalf("reset left %d entries", ws.len())
	}
	if _, ok := ws.get(tvs[0]); ok {
		t.Fatal("reset left a live index entry")
	}
}

// TestLockSetSmallAndSpill mirrors the write-set test for the 2PL lock
// set.
func TestLockSetSmallAndSpill(t *testing.T) {
	const spill = 4
	recs := make([]*orec, spill*3)
	tab := newOrecTable(len(recs) * 8)
	for i := range recs {
		recs[i] = &tab.recs[i]
	}
	var ls lockSet
	ls.init(spill)
	for i, o := range recs {
		if ls.contains(o) {
			t.Fatalf("contains(%d) before add", i)
		}
		ls.add(o)
		if !ls.contains(o) {
			t.Fatalf("contains(%d) false after add", i)
		}
	}
	if ls.idx == nil {
		t.Fatal("lock set never spilled to the map index")
	}
	if len(ls.held) != len(recs) {
		t.Fatalf("held %d records, want %d", len(ls.held), len(recs))
	}
	ls.reset()
	if len(ls.held) != 0 || ls.contains(recs[0]) {
		t.Fatal("reset left held records")
	}
}

// TestOrElsePreMarkOverwriteRestored is the engine-level version of the
// truncate test: an abandoned alternative overwrites a value the
// transaction wrote before the OrElse; falling back must see the
// pre-OrElse value again, on every engine.
func TestOrElsePreMarkOverwriteRestored(t *testing.T) {
	for _, e := range engines(t) {
		x := NewTVar[int](0)
		if err := e.Atomically(func(tx *Tx) error {
			Set(tx, x, 1) // pre-mark write
			return OrElse(tx,
				func(tx *Tx) error {
					Set(tx, x, 2) // overwrites the pre-mark write
					Retry(tx)     // abandon: the overwrite must be undone
					return nil
				},
				func(tx *Tx) error {
					if got := Get(tx, x); got != 1 {
						return errors.New("pre-mark write not restored")
					}
					return nil
				})
		}); err != nil {
			t.Errorf("%v: %v", e.Kind(), err)
		}
		if got := x.Peek(); got != 1 {
			t.Errorf("%v: committed x = %d, want 1", e.Kind(), got)
		}
	}
}

// TestWriteSetLargeSortAndReset pins the two halves of the large-commit
// fix. Sorting 200k entries inserted in descending id order is the
// insertion sort's worst case (2·10¹⁰ moves — minutes); past the spill
// threshold sortByID must not be quadratic. And reset must let go of the
// index and backing such a set grew, or every later user of the pooled
// state pays to clear them.
func TestWriteSetLargeSortAndReset(t *testing.T) {
	const n = 200_000
	tvs := wsVars(n)
	var ws writeSet
	ws.init(0)
	for i := n - 1; i >= 0; i-- {
		ws.put(tvs[i], intWord(i))
	}
	start := time.Now()
	ws.sortByID()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("sortByID of %d entries took %v", n, d)
	}
	for i := range ws.entries {
		if ws.entries[i].tv != tvs[i] {
			t.Fatalf("entry %d out of id order after sort", i)
		}
	}
	if v, ok := ws.get(tvs[n/2]); !ok || v.w0 != n/2 {
		t.Fatalf("index stale after sort: get = %v, %v", v, ok)
	}
	ws.reset()
	if ws.idx != nil || cap(ws.entries) != 0 {
		t.Fatalf("reset kept oversized storage: idx %v, cap %d", ws.idx != nil, cap(ws.entries))
	}
	// A set that stays within the bound keeps its storage (the zero-alloc
	// contract for mid-sized transactions).
	for _, tv := range tvs[:maxPooledSetEntries/2] {
		ws.put(tv, vword{})
	}
	ws.reset()
	if ws.idx == nil || cap(ws.entries) == 0 {
		t.Fatal("reset dropped storage within the pooling bound")
	}

	var ls lockSet
	ls.init(0)
	tab := newOrecTable(2 * maxPooledSetEntries)
	for i := range tab.recs {
		ls.add(&tab.recs[i])
	}
	ls.reset()
	if ls.idx != nil || cap(ls.held) != 0 {
		t.Fatal("lock set reset kept oversized storage")
	}
}

// TestSmallTxCostAfterLargeTx is the end-to-end shape of the same bug:
// one 100k-write transaction must not slow the small transactions that
// follow it on the same engine (it used to leave a 200k-slot map in the
// pooled attempt state: 65536 single-variable updates went from 0.08 s
// to 8.9 s).
func TestSmallTxCostAfterLargeTx(t *testing.T) {
	for _, kind := range []EngineKind{EngineTL2, EngineTwoPL} {
		e := NewEngine(kind)
		vars := make([]*TVar[int], 100_000)
		for i := range vars {
			vars[i] = NewTVar(0)
		}
		small := func() time.Duration {
			start := time.Now()
			for i := 0; i < 65536; i++ {
				_ = e.Atomically(func(tx *Tx) error {
					Set(tx, vars[0], Get(tx, vars[0])+1)
					return nil
				})
			}
			return time.Since(start)
		}
		before := small()
		start := time.Now()
		_ = e.Atomically(func(tx *Tx) error {
			for i := len(vars) - 1; i >= 0; i-- {
				Set(tx, vars[i], 1)
			}
			return nil
		})
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("%v: 100k-write transaction took %v", kind, d)
		}
		if after := small(); after > 10*before+100*time.Millisecond {
			t.Fatalf("%v: 65536 small transactions took %v after a large one, %v before", kind, after, before)
		}
	}
}
