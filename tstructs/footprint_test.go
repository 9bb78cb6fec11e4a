package tstructs

import (
	"testing"

	"pcltm/stm"
)

// The footprint gate: how many base objects a TMap operation touches,
// counted by an attached stm.Recorder as transactional reads and writes.
// The PCL theorem prices parallelism in exactly this unit — every read is
// something to revalidate, every write something to conflict on — and
// the counts below are the layout's contract: a lookup costs the table
// pointer, the bucket head and the value, whatever else the bucket
// holds. A change that puts a per-key walk back (a chain, a per-bucket
// counter) fails here before it shows up as a slower benchmark. CI runs
// it in the allocation-gate step.

// footprint runs fn as one transaction on e and returns the reads and
// writes the recorder logged for it.
func footprint(t *testing.T, e *stm.Engine, rec *stm.Recorder, fn func(tx *stm.Tx)) (reads, writes int) {
	t.Helper()
	rec.Take()
	if err := e.Atomically(func(tx *stm.Tx) error { fn(tx); return nil }); err != nil {
		t.Fatal(err)
	}
	attempts := rec.Take()
	if len(attempts) != 1 {
		t.Fatalf("an uncontended transaction took %d attempts", len(attempts))
	}
	for _, op := range attempts[0].Ops {
		if op.Write {
			writes++
		} else {
			reads++
		}
	}
	return reads, writes
}

func TestFootprintTMap(t *testing.T) {
	for _, kind := range stm.EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			rec := stm.NewRecorder()
			e := stm.NewEngine(kind, stm.WithRecorder(rec))
			// One bucket, so occupancy is the key count; eight keys stay
			// under the growth threshold.
			m := NewTMapFunc[int64, int64](1, func(int64) uint64 { return 0 })
			check := func(what string, wantR, wantW int, fn func(tx *stm.Tx)) {
				t.Helper()
				if r, w := footprint(t, e, rec, fn); r != wantR || w != wantW {
					t.Errorf("%s: %d reads, %d writes; want %d reads, %d writes", what, r, w, wantR, wantW)
				}
			}
			for k := int64(0); k < 8; k++ {
				// Table pointer and head read; value TVar and head written.
				check("insert", 2, 2, func(tx *stm.Tx) { m.Put(tx, k, k) })
				// The lookup costs the same three reads at every occupancy,
				// for the first key of the bucket and for the last.
				check("Get", 3, 0, func(tx *stm.Tx) { m.Get(tx, k) })
				check("Get", 3, 0, func(tx *stm.Tx) { m.Get(tx, 0) })
			}
			check("Contains", 2, 0, func(tx *stm.Tx) { m.Contains(tx, 5) })
			check("Get of an absent key", 2, 0, func(tx *stm.Tx) { m.Get(tx, 99) })
			check("overwriting Put", 2, 1, func(tx *stm.Tx) { m.Put(tx, 5, 50) })
			check("Update of a present key", 3, 1, func(tx *stm.Tx) {
				m.Update(tx, 5, func(v int64, _ bool) int64 { return v + 1 })
			})
			check("Update of an absent key", 2, 2, func(tx *stm.Tx) {
				m.Update(tx, 8, func(v int64, _ bool) int64 { return v + 1 })
			})
			check("Delete", 2, 1, func(tx *stm.Tx) { m.Delete(tx, 8) })
			check("Delete of an absent key", 2, 0, func(tx *stm.Tx) { m.Delete(tx, 99) })
		})
	}
}
