package store

import (
	"slices"
	"sync"

	"pcltm/internal/wal"
	"pcltm/stm"
)

// cacheLine is the coherence unit lockStripe is padded to.
const cacheLine = 64

// lockStripe is one slot's share of a partition's escalation lock. Every
// RLock writes the mutex's reader count, so the stripe gets a full cache
// line of padding on each side: whatever the allocation's alignment, no
// other stripe — and no partition's engine or map pointer, which every
// transaction reads — shares a line with it. Padding only after the
// mutex was not enough: with partitions in the 112-byte size class,
// partition 2's reader count shared a line with partition 1's pointers.
type lockStripe struct {
	_ [cacheLine]byte
	sync.RWMutex
	_ [cacheLine]byte
}

// lock takes every stripe of p's escalation lock exclusive, in stripe
// order. Callers that lock several partitions do so in partition order,
// so the global order is (partition, stripe) and two lockers never
// deadlock.
func (p *partition[K, V]) lock() {
	for i := range p.locks {
		p.locks[i].Lock()
	}
}

// unlock releases every stripe, in reverse order.
func (p *partition[K, V]) unlock() {
	for i := len(p.locks) - 1; i >= 0; i-- {
		p.locks[i].Unlock()
	}
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

// crossMaxGrows caps footprint re-discovery rounds before a cross
// transaction degenerates to the full sweep: the footprint set only ever
// grows, so the loop terminates anyway, but an fn whose key set keeps
// shifting with the data should stop burning re-runs and take the
// conservative path.
const crossMaxGrows = 3

// CrossTx is the handle a cross transaction passes to its body: reads go
// to the owning partition's engine, writes buffer until the body
// succeeds, and the buffered writes then apply under the footprint's
// exclusive locks. The body sees its own writes (read-your-writes
// through the buffer). Every partition the body reads or writes joins
// the transaction's footprint — the set of locks the commit takes.
//
// A CrossTx and its buffers are recycled when the transaction returns:
// the body must not keep the handle.
type CrossTx[K comparable, V any] struct {
	s *Store[K, V]
	// writes is the buffer: one entry per key written, in first-write
	// order, and index maps each buffered key to its position — a 1 MiB
	// /tx body can buffer tens of thousands of keys, so lookups must not
	// scan. The map is recycled with the handle and cleared between runs.
	writes []crossWrite[K, V]
	index  map[K]int
	// foot is the footprint so far — partitions declared by the caller or
	// touched by any run of the body — and locked the subset whose
	// escalation lock is held. A run strayed when it leaves a partition
	// in foot that is not in locked.
	foot   []bool
	locked []bool
	// Commit scratch, kept between transactions.
	members []wal.CrossPart
	bufs    []*walBuf
}

// crossWrite is one buffered intent: a pending value or a deletion of k,
// which lives in partition part.
type crossWrite[K comparable, V any] struct {
	k    K
	part int
	v    V
	del  bool
}

// find returns k's position in the write buffer, or -1.
func (ct *CrossTx[K, V]) find(k K) int {
	if i, ok := ct.index[k]; ok {
		return i
	}
	return -1
}

// buffer records the pending intent for k — the value v, or a deletion
// — and k's partition joins the footprint.
func (ct *CrossTx[K, V]) buffer(k K, v V, del bool) {
	if i := ct.find(k); i >= 0 {
		w := &ct.writes[i] // its partition is in the footprint already
		w.v, w.del = v, del
		return
	}
	pi := ct.s.PartitionOf(k)
	ct.foot[pi] = true
	ct.index[k] = len(ct.writes)
	ct.writes = append(ct.writes, crossWrite[K, V]{k: k, part: pi, v: v, del: del})
}

// Get reads k — from the buffer when the body already wrote it, else
// from k's partition.
func (ct *CrossTx[K, V]) Get(k K) (V, bool) {
	if i := ct.find(k); i >= 0 {
		if w := &ct.writes[i]; !w.del {
			return w.v, true
		}
		var zero V
		return zero, false
	}
	pi := ct.s.PartitionOf(k)
	ct.foot[pi] = true
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
func (ct *CrossTx[K, V]) Put(k K, v V) { ct.buffer(k, v, false) }

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
	var zero V
	ct.buffer(k, zero, true)
	return ok
}

// lock takes the escalation lock of every footprint partition — every
// stripe — in partition-id order. Callers hold nothing: growing the
// footprint releases everything first (unlock), so acquisition is always
// ascending.
func (ct *CrossTx[K, V]) lock() {
	for i, want := range ct.foot {
		if want {
			ct.s.parts[i].lock()
			ct.locked[i] = true
		}
	}
}

// unlock releases every held lock, highest partition first.
func (ct *CrossTx[K, V]) unlock() {
	for i := len(ct.locked) - 1; i >= 0; i-- {
		if ct.locked[i] {
			ct.s.parts[i].unlock()
			ct.locked[i] = false
		}
	}
}

// strayed reports whether the footprint holds a partition that is not
// locked.
func (ct *CrossTx[K, V]) strayed() bool {
	for i, in := range ct.foot {
		if in && !ct.locked[i] {
			return true
		}
	}
	return false
}

// dropWrites empties the write buffer for the next run of the body.
func (ct *CrossTx[K, V]) dropWrites() {
	clear(ct.writes) // K and V may hold pointers
	ct.writes = ct.writes[:0]
	clear(ct.index)
}

// crossKeptWrites bounds the write buffer and index a recycled CrossTx
// keeps, so one huge transaction does not pin them — or make every later
// clear walk a huge empty map — for the life of the store.
const crossKeptWrites = 1024

func (s *Store[K, V]) getCrossTx() *CrossTx[K, V] {
	if ct, _ := s.crossPool.Get().(*CrossTx[K, V]); ct != nil {
		return ct
	}
	n := len(s.parts)
	return &CrossTx[K, V]{s: s, index: make(map[K]int), foot: make([]bool, n), locked: make([]bool, n)}
}

// putCrossTx releases whatever the transaction still holds and recycles
// it with an empty footprint.
func (s *Store[K, V]) putCrossTx(ct *CrossTx[K, V]) {
	ct.unlock()
	if cap(ct.writes) > crossKeptWrites {
		ct.writes, ct.index = nil, make(map[K]int)
	} else {
		ct.dropWrites()
	}
	clear(ct.foot)
	s.crossPool.Put(ct)
}

// Cross runs fn as one atomic cross-partition transaction whose
// footprint is discovered: CrossOn with nothing declared, so the first
// run of fn executes with no lock held, only to find which partitions
// the transaction touches, and never commits. A caller that can name
// the partitions beforehand — it knows the keys — wants CrossOn.
func (s *Store[K, V]) Cross(fn func(ct *CrossTx[K, V]) error) error {
	return s.CrossOn(nil, fn)
}

// CrossSweep runs fn with every partition declared: the whole-store
// exclusive sweep, under which fn runs exactly once. It is the
// measurable baseline the scoped path is judged against (EXPERIMENTS.md
// E11) and the explicit maximal-footprint call; new code wants Cross or
// CrossOn.
func (s *Store[K, V]) CrossSweep(fn func(ct *CrossTx[K, V]) error) error {
	all := make([]int, len(s.parts))
	for i := range all {
		all[i] = i
	}
	return s.CrossOn(all, fn)
}

// CrossOn runs fn as one atomic cross-partition transaction, locking
// only the partitions the transaction touches — the scoped 2PC-shaped
// commit path. parts is the declared footprint: the partitions the
// caller expects fn to read or write (any order; an index out of range
// panics). It may be empty, a subset or a superset of what fn does:
//
//  1. Lock phase: the declared partitions' escalation locks — every
//     stripe of each — are taken exclusive in partition-id order, and
//     stripe order within a partition — the same total order Len uses,
//     so concurrent cross transactions (and Len) stay deadlock-free.
//     Partitions outside the footprint are never locked: single-
//     partition traffic there proceeds completely undisturbed.
//  2. Execution: fn runs, reads served by per-partition read
//     transactions and writes buffered; every partition it touches joins
//     the footprint. Locked partitions cannot change, so if the run
//     stayed inside the locked set its reads are a consistent snapshot
//     and its buffer is the transaction's write set: a body that stays
//     inside a declared footprint executes exactly once.
//  3. Growth: a run that strayed outside the locked set proved nothing —
//     with nothing declared the first run always strays, and serves as
//     the discovery run. The locks are released, the footprint so far is
//     re-locked in order, and fn re-runs; after crossMaxGrows rounds the
//     footprint escalates to every partition, which cannot grow further.
//     fn must therefore tolerate re-execution, exactly like an
//     stm.Atomically body.
//  4. Apply ("commit"): the buffer is flushed, one write transaction
//     per written partition, all under the locks — externally atomic
//     because every participant is exclusively held. On error the
//     buffer is discarded and no partition changed — all-or-nothing.
//
// Declaring costs nothing when the caller already knows the keys and
// saves the discovery execution; declaring too much only locks more
// than needed; declaring too little costs the re-runs an undeclared
// call pays anyway.
//
// On a durable store a multi-partition commit is logged through the
// log's cross path: every participant's record plus one decision record
// (internal/wal), appended under the locks and acknowledged after they
// are released, so recovery replays the cross all-or-nothing and the
// fsync latency is never paid while holding partition locks. A
// single-partition footprint commits exactly like a plain transaction.
func (s *Store[K, V]) CrossOn(parts []int, fn func(ct *CrossTx[K, V]) error) error {
	ct := s.getCrossTx()
	defer s.putCrossTx(ct)
	for _, p := range parts {
		ct.foot[p] = true
	}
	ct.lock()
	for round := 0; ; round++ {
		ct.dropWrites()
		if err := fn(ct); err != nil {
			return err
		}
		if !ct.strayed() {
			// Every partition read or written is held (trivially so for an
			// empty footprint).
			break
		}
		if round >= crossMaxGrows {
			for i := range ct.foot {
				ct.foot[i] = true
			}
		}
		ct.unlock()
		ct.lock()
	}
	return ct.commit()
}

// commit applies the buffered writes, one transaction per written
// partition in partition order, all under the footprint's exclusive
// locks. On a durable store each partition's share is captured as its
// record, stamped inside its apply transaction; a multi-partition
// footprint links the records through the wal cross path (decision
// record) so a crash cannot recover half of it.
func (ct *CrossTx[K, V]) commit() error {
	s, d := ct.s, ct.s.durable
	// Sorting leaves index stale; the body has run for the last time.
	slices.SortStableFunc(ct.writes, func(a, b crossWrite[K, V]) int { return a.part - b.part })
	members, bufs := ct.members[:0], ct.bufs[:0]
	for lo, hi := 0, 0; lo < len(ct.writes); lo = hi {
		part := ct.writes[lo].part
		for hi = lo + 1; hi < len(ct.writes) && ct.writes[hi].part == part; hi++ {
		}
		if part == s.dropCrossPart {
			// Planted half-applied-cross bug (BreakCrossForTest): this
			// participant's share silently vanishes.
			continue
		}
		share := ct.writes[lo:hi]
		sp := s.parts[part]
		var buf *walBuf
		if d != nil {
			buf = d.bufs.Get().(*walBuf)
		}
		_ = sp.engine.Atomically(func(tx *stm.Tx) error {
			if buf != nil {
				buf.reset()
			}
			for i := range share {
				if w := &share[i]; w.del {
					sp.m.Delete(tx, w.k)
					if buf != nil {
						captureDelete(buf, d.codec, w.k)
					}
				} else {
					sp.m.Put(tx, w.k, w.v)
					if buf != nil {
						capturePut(buf, d.codec, w.k, w.v)
					}
				}
			}
			if buf != nil {
				n := stm.Get(tx, d.seq[part]) + 1
				stm.Set(tx, d.seq[part], n)
				buf.seq = n
			}
			return nil
		})
		if buf != nil {
			members = append(members, wal.CrossPart{Part: part, Seq: buf.seq, Nops: buf.nops, Ops: buf.ops})
			bufs = append(bufs, buf)
		}
	}
	ct.members, ct.bufs = members[:0], bufs[:0]
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
		ct.unlock()
		if aerr := d.log.Append(m.Part, m.Seq, m.Nops, m.Ops); aerr != nil {
			derr = &DurabilityError{Part: m.Part, Seq: m.Seq, Err: aerr}
		}
	} else {
		wait, aerr := d.log.AppendCross(members)
		if aerr == nil {
			ct.unlock()
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
