package store

import (
	"sync"

	"pcltm/internal/wal"
	"pcltm/stm"
)

// rwMutexPadded is a sync.RWMutex on its own cache line so partitions'
// escalation locks never false-share — a partition's RLock traffic must
// stay partition-local or the whole disjoint-commit design leaks
// coherence misses.
type rwMutexPadded struct {
	sync.RWMutex
	_ [64]byte
}

// fibMul and mix64 mirror tstructs' spreading pipeline; see
// PartitionOf for why routing re-scrambles the key hash.
const fibMul = 0x9E3779B97F4A7C15

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// crossMaxGrows caps footprint re-discovery rounds before Cross
// degenerates to the full sweep: the footprint set only ever grows, so
// the loop terminates anyway, but an fn whose key set keeps shifting
// with the data should stop burning re-runs and take the conservative
// path.
const crossMaxGrows = 3

// CrossTx is the handle Cross passes to its body: reads go to the
// owning partition's engine, writes buffer until the body succeeds, and
// the buffered writes then apply under the touched partitions'
// exclusive locks. The body sees its own writes (read-your-writes
// through the buffer). Every partition the body reads or writes joins
// the transaction's footprint — the set of locks the commit takes.
type CrossTx[K comparable, V any] struct {
	s       *Store[K, V]
	buf     map[K]crossWrite[V]
	touched []bool // partitions read or written by the body
}

// crossWrite is one buffered intent: a pending value or a deletion.
type crossWrite[V any] struct {
	v   V
	del bool
}

// Get reads k — from the buffer when the body already wrote it, else
// from k's partition.
func (ct *CrossTx[K, V]) Get(k K) (V, bool) {
	if w, ok := ct.buf[k]; ok {
		if w.del {
			var zero V
			return zero, false
		}
		return w.v, true
	}
	pi := ct.s.PartitionOf(k)
	ct.touched[pi] = true
	part := ct.s.parts[pi]
	var v V
	var ok bool
	_ = part.engine.Atomically(func(tx *stm.Tx) error {
		v, ok = part.m.Get(tx, k)
		return nil
	})
	return v, ok
}

// Put buffers a write of v under k.
func (ct *CrossTx[K, V]) Put(k K, v V) {
	ct.touched[ct.s.PartitionOf(k)] = true
	ct.buf[k] = crossWrite[V]{v: v}
}

// Update applies fn to k's current value (ok reports presence), buffers
// the result under k and returns it — Part.Update's counterpart.
func (ct *CrossTx[K, V]) Update(k K, fn func(v V, ok bool) V) V {
	next := fn(ct.Get(k))
	ct.Put(k, next)
	return next
}

// Delete buffers a deletion of k, reporting whether k was visible at
// this point of the body.
func (ct *CrossTx[K, V]) Delete(k K) bool {
	_, ok := ct.Get(k)
	ct.buf[k] = crossWrite[V]{del: true}
	return ok
}

// Cross runs fn as one atomic cross-partition transaction, locking only
// the partitions the transaction actually touches — the scoped
// 2PC-shaped commit path:
//
//  1. Discovery: fn runs with no locks held, reads served by
//     per-partition read transactions and writes buffered; every
//     partition it touches joins the footprint.
//  2. Lock phase: the footprint's escalation locks are taken exclusive
//     in partition-id order — the same total order Len and the sweep
//     use, so concurrent Cross calls (and Len) stay deadlock-free.
//     Untouched partitions are never locked: single-partition traffic
//     there proceeds completely undisturbed.
//  3. Validation by re-execution: fn runs again under the locks. Locked
//     partitions cannot change, so if the re-run's footprint stays
//     inside the locked set, its reads are a consistent snapshot and
//     its buffer is the transaction's write set. If the footprint grew
//     (the data moved between discovery and locking), the locks are
//     released, the footprint union is re-locked, and fn re-runs; after
//     crossMaxGrows rounds the footprint escalates to every partition,
//     which cannot grow further. fn must therefore tolerate
//     re-execution, exactly like an stm.Atomically body.
//  4. Apply ("commit"): the buffer is flushed, one write transaction
//     per touched partition, all under the locks — externally atomic
//     because every participant is exclusively held. On error the
//     buffer is discarded and no partition changed — all-or-nothing.
//
// On a durable store a multi-partition commit is logged through the
// log's cross path: every participant's record plus one decision record
// (internal/wal), appended under the locks and acknowledged after they
// are released, so recovery replays the cross all-or-nothing and the
// fsync latency is never paid while holding partition locks. A
// single-partition footprint commits exactly like a plain transaction.
func (s *Store[K, V]) Cross(fn func(ct *CrossTx[K, V]) error) error {
	return s.cross(fn, false)
}

// CrossSweep is the pre-scoped escalation path: every partition's lock
// is taken exclusive, fn runs once under the full sweep, and the buffer
// applies. It is kept as the measurable baseline the scoped path is
// judged against (EXPERIMENTS.md E11) and as the explicit
// maximal-footprint fallback; new code wants Cross.
func (s *Store[K, V]) CrossSweep(fn func(ct *CrossTx[K, V]) error) error {
	return s.cross(fn, true)
}

func (s *Store[K, V]) cross(fn func(ct *CrossTx[K, V]) error, sweep bool) error {
	n := len(s.parts)
	locked := make([]bool, n)
	lock := func(need []bool) {
		for i, want := range need {
			if want {
				s.parts[i].mu.Lock()
				locked[i] = true
			}
		}
	}
	unlock := func() {
		for i := n - 1; i >= 0; i-- {
			if locked[i] {
				s.parts[i].mu.Unlock()
				locked[i] = false
			}
		}
	}
	if sweep {
		all := make([]bool, n)
		for i := range all {
			all[i] = true
		}
		lock(all)
	}
	defer unlock()

	var ct *CrossTx[K, V]
	for round := 0; ; round++ {
		ct = &CrossTx[K, V]{s: s, buf: make(map[K]crossWrite[V]), touched: make([]bool, n)}
		if err := fn(ct); err != nil {
			return err
		}
		need := ct.touched
		for k := range ct.buf {
			need[s.PartitionOf(k)] = true
		}
		covered := round > 0 || sweep // a no-lock discovery run never commits
		grew := false
		for i, want := range need {
			if want && !locked[i] {
				covered, grew = false, true
			}
		}
		if covered || !grew {
			// Covered, or an empty footprint (nothing read or written):
			// either way the locks held cover every partition the commit
			// touches.
			break
		}
		if round >= crossMaxGrows {
			for i := range need {
				need[i] = true
			}
		}
		for i, held := range locked {
			need[i] = need[i] || held
		}
		unlock()
		lock(need)
	}

	// Apply: group buffered intents by partition, flush each group as
	// one transaction on the owning engine, all under the footprint's
	// exclusive locks. On a durable store each group is captured as its
	// partition's record, stamped inside its apply transaction; a
	// multi-partition footprint links the records through the wal cross
	// path (decision record) so a crash cannot recover half of it.
	byPart := make(map[int][]K)
	for k := range ct.buf {
		part := s.PartitionOf(k)
		byPart[part] = append(byPart[part], k)
	}
	d := s.durable
	var members []wal.CrossPart
	var bufs []*walBuf
	for part, keys := range byPart {
		if part == s.dropCrossPart {
			// Planted half-applied-cross bug (BreakCrossForTest): this
			// participant's share silently vanishes.
			continue
		}
		sp := s.parts[part]
		var buf *walBuf
		if d != nil {
			buf = d.bufs.Get().(*walBuf)
		}
		_ = sp.engine.Atomically(func(tx *stm.Tx) error {
			if buf != nil {
				buf.reset()
			}
			for _, k := range keys {
				if w := ct.buf[k]; w.del {
					sp.m.Delete(tx, k)
					if buf != nil {
						captureDelete(buf, d.codec, k)
					}
				} else {
					sp.m.Put(tx, k, w.v)
					if buf != nil {
						capturePut(buf, d.codec, k, w.v)
					}
				}
			}
			if buf != nil && buf.nops > 0 {
				n := stm.Get(tx, d.seq[part]) + 1
				stm.Set(tx, d.seq[part], n)
				buf.seq = n
			}
			return nil
		})
		if buf != nil {
			if buf.nops > 0 {
				members = append(members, wal.CrossPart{Part: part, Seq: buf.seq, Nops: buf.nops, Ops: buf.ops})
				bufs = append(bufs, buf)
			} else {
				d.bufs.Put(buf)
			}
		}
	}
	if len(members) == 0 {
		return nil
	}

	// Durability: records are enqueued before the locks release, and the
	// acknowledgement is awaited after — commits that observe the
	// released state stamp later sequences and park behind these in the
	// log's release order, so fsync latency is never paid while holding
	// partition locks exclusive.
	var derr error
	if len(members) == 1 {
		// A single-partition footprint needs no decision record: it is
		// indistinguishable from a plain partition commit.
		m := members[0]
		unlock()
		if aerr := d.log.Append(m.Part, m.Seq, m.Nops, m.Ops); aerr != nil {
			derr = &DurabilityError{Part: m.Part, Seq: m.Seq, Err: aerr}
		}
	} else {
		wait, aerr := d.log.AppendCross(members)
		if aerr == nil {
			unlock()
			aerr = wait()
		}
		if aerr != nil {
			derr = &DurabilityError{Part: members[0].Part, Seq: members[0].Seq, Err: aerr}
		}
	}
	for _, buf := range bufs {
		d.bufs.Put(buf)
	}
	return derr
}

// BreakCrossForTest plants the classic half-applied-cross bug: every
// later Cross silently drops the share routed to partition part. The
// conformance layer's stitching checker must convict a store broken
// this way — its self-test (internal/conformance). Pass -1 to heal.
func (s *Store[K, V]) BreakCrossForTest(part int) {
	s.dropCrossPart = part
}
