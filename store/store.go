// Package store is the partitioned transactional key-value store: the
// keyspace is split across N partitions, each owning its own stm.Engine
// instance — private version clock, orec table, striped counters,
// adaptive regime — and its own sharded tstructs.TMap. A transaction
// that touches keys of one partition runs entirely inside that
// partition's engine, so transactions on different partitions share no
// concurrency-control state at all: no clock ticks to rendezvous on, no
// orec table to alias in, no adaptive regime dragged serial by someone
// else's contention. Disjoint-key workloads therefore commit in
// parallel with machine-level independence, not just algorithm-level
// independence.
//
// This is the store-level reading of the PCL trade-off: parallelism is
// bought by partitioning the keyspace, and the price is that
// cross-partition atomicity needs an escalation protocol. The seam for
// that protocol is CrossOn (cross.go): the transaction's footprint —
// the partitions it touches — is locked exclusive in partition order,
// the body runs against the locked partitions with its writes buffered,
// and the buffer applies under the locks: the single-node shape of
// two-phase commit, with the partition locks standing in for participant
// votes. The footprint is either declared by a caller that knows its
// keys (CrossOn: the body runs once) or discovered by a first run under
// no locks (Cross: the body runs at least twice); a body that strays
// outside what is locked re-runs under the grown footprint either way.
//
// Each partition's escalation lock is striped: one cache-line-padded
// read/write lock per slot, as many slots as stm.StripeCount. A
// single-partition operation read-locks only the stripe of its Part
// handle's slot (handles are pooled per store and get their slot
// round-robin when created, so each core keeps to its own stripe), so
// single-partition operations never coordinate with each other, not
// even on a lock's reader count. Cross transactions and Len take every
// stripe of a partition exclusive, in stripe order, nested inside the
// partition order; they coordinate with single-partition work exactly
// when they hold its partition.
package store

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"pcltm/stm"
	"pcltm/tstructs"
)

// Config sizes and wires a Store.
type Config struct {
	// Partitions is the partition count; 0 means runtime.GOMAXPROCS(0),
	// matching one engine instance per core. Rounded up to a power of
	// two so routing is a shift.
	Partitions int
	// Engine is the concurrency-control algorithm every partition runs.
	// The zero value selects stm.EngineTL2; set stm.EngineAdaptive to
	// let each partition pick its own regime from its own contention.
	Engine stm.EngineKind
	// Buckets is each partition's TMap bucket count; 0 means
	// tstructs.DefaultBuckets.
	Buckets int
	// EngineOptions, when non-nil, supplies extra options for the given
	// partition's engine — the test seam the conformance harness uses to
	// attach one recorder per partition.
	EngineOptions func(part int) []stm.Option
}

// partition is one keyspace shard: an engine, its map, and the
// escalation lock — one stripe per slot (cross.go) — whose stripes
// single-partition work holds shared, one at a time, and Cross and Len
// hold exclusive, all of them. Nothing here is written after
// construction, so partitions cannot false-share with each other.
type partition[K comparable, V any] struct {
	engine *stm.Engine
	m      *tstructs.TMap[K, V]
	locks  []lockStripe
}

// Store is the partitioned transactional map. All methods are safe for
// concurrent use.
type Store[K comparable, V any] struct {
	parts   []*partition[K, V]
	hash    func(K) uint64
	shift   uint                // 64 - log2(len(parts)), for fibIndex-style routing
	durable *durableState[K, V] // nil unless built by OpenDurable

	// partPool recycles the Part handles run passes to its bodies; a new
	// handle takes the next of slotMask+1 slots round-robin from
	// nextSlot. The pool lives apart from the Store and a pooled handle
	// points into no store: sync.Pool's global registry keeps a used pool
	// and its contents reachable for up to two collections, and either
	// path would keep a dropped store — its maps, its log — alive as long.
	partPool *sync.Pool
	nextSlot atomic.Uint64
	slotMask int

	// crossPool recycles CrossTx handles and their buffers (cross.go).
	crossPool sync.Pool

	// dropCrossPart, when >= 0, plants the half-applied-cross bug for
	// the conformance stitching checker's self-test; see
	// BreakCrossForTest.
	dropCrossPart int
}

// New builds a store whose key hash is derived from K's layout (the
// same derivation as tstructs.NewTMap); it panics for key types with no
// canonical byte image — use NewFunc with an explicit hash for those.
func New[K comparable, V any](cfg Config) *Store[K, V] {
	hash := tstructs.KeyHash[K]()
	if hash == nil {
		panic(fmt.Sprintf("store: key type %v has no derivable hash; use NewFunc",
			reflect.TypeFor[K]()))
	}
	return NewFunc[K, V](cfg, hash)
}

// NewFunc builds a store with an explicit key hash (deterministic,
// agreeing with ==). The hash is shared with each partition's TMap;
// routing decorrelates it first so partition and bucket selection use
// independent bits.
func NewFunc[K comparable, V any](cfg Config, hash func(K) uint64) *Store[K, V] {
	if hash == nil {
		panic("store: NewFunc: nil hash")
	}
	n := cfg.Partitions
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	pow, log := 1, uint(0)
	for pow < n {
		pow <<= 1
		log++
	}
	stripes := stm.StripeCount()
	s := &Store[K, V]{
		parts:         make([]*partition[K, V], pow),
		hash:          hash,
		shift:         64 - log,
		partPool:      new(sync.Pool),
		slotMask:      stripes - 1,
		dropCrossPart: -1,
	}
	for i := range s.parts {
		var opts []stm.Option
		if cfg.EngineOptions != nil {
			opts = cfg.EngineOptions(i)
		}
		s.parts[i] = &partition[K, V]{
			engine: stm.NewEngine(cfg.Engine, opts...),
			m:      tstructs.NewTMapFunc[K, V](cfg.Buckets, hash),
			locks:  make([]lockStripe, stripes),
		}
	}
	return s
}

// Partitions returns the partition count (a power of two).
func (s *Store[K, V]) Partitions() int { return len(s.parts) }

// PartitionOf returns the partition owning k. Routing scrambles the key
// hash with a finalizer before the Fibonacci spread so the bits it
// consumes are independent of the bits each partition's TMap consumes
// for bucket selection (both would otherwise read the top bits of the
// same product, collapsing every partition onto a fraction of its
// buckets).
func (s *Store[K, V]) PartitionOf(k K) int {
	if s.shift == 64 {
		return 0
	}
	return int((mix64(s.hash(k)) * fibMul) >> s.shift)
}

// Engine exposes partition part's engine — for stats, conformance
// recording and benchmarks, not for running transactions behind the
// store's locking discipline.
func (s *Store[K, V]) Engine(part int) *stm.Engine { return s.parts[part].engine }

// Part is the handle Atomically passes to its body: the partition's map
// plus routing enforcement, so a same-partition transaction cannot
// silently file a key under the wrong partition.
//
// Handles are recycled when the transaction returns: the body must not
// keep the handle, exactly as it must not keep the stm.Tx.
type Part[K comparable, V any] struct {
	s    *Store[K, V]
	part int
	m    *tstructs.TMap[K, V]
	buf  *walBuf // non-nil on a durable store: captures the write set
	slot int     // the escalation-lock stripe this handle read-locks
	// Every run writes s, part and m, and handles in use on different cores
	// were allocated side by side, so a handle fills its cache line.
	_ [cacheLine - 40]byte
}

// check panics when k is not owned by this handle's partition — a
// routing violation that would corrupt the store (the key would exist
// in a partition no lookup ever searches).
func (p *Part[K, V]) check(k K) {
	if got := p.s.PartitionOf(k); got != p.part {
		panic(fmt.Sprintf("store: key routed to partition %d used inside partition %d's transaction",
			got, p.part))
	}
}

// Get reads k inside the partition transaction.
func (p *Part[K, V]) Get(tx *stm.Tx, k K) (V, bool) {
	p.check(k)
	return p.m.Get(tx, k)
}

// Contains tests k inside the partition transaction.
func (p *Part[K, V]) Contains(tx *stm.Tx, k K) bool {
	p.check(k)
	return p.m.Contains(tx, k)
}

// Put stores v under k inside the partition transaction.
func (p *Part[K, V]) Put(tx *stm.Tx, k K, v V) {
	p.check(k)
	p.m.Put(tx, k, v)
	if p.buf != nil {
		capturePut(p.buf, p.s.durable.codec, k, v)
	}
}

// Delete removes k inside the partition transaction.
func (p *Part[K, V]) Delete(tx *stm.Tx, k K) bool {
	p.check(k)
	ok := p.m.Delete(tx, k)
	if p.buf != nil {
		captureDelete(p.buf, p.s.durable.codec, k)
	}
	return ok
}

// Update applies fn to k's current value (ok reports presence), stores
// the result and returns it — the read-modify-write primitive, one map
// lookup.
func (p *Part[K, V]) Update(tx *stm.Tx, k K, fn func(v V, ok bool) V) V {
	p.check(k)
	next := p.m.Update(tx, k, fn)
	if p.buf != nil {
		capturePut(p.buf, p.s.durable.codec, k, next)
	}
	return next
}

// Atomically runs fn as one transaction on partition part's engine,
// under one stripe of the partition's escalation lock, shared. Every key fn touches
// must route to part (enforced per operation); transactions on other
// partitions proceed concurrently with no shared state. On a durable
// store a writing transaction additionally stamps the partition's
// commit sequence inside itself and appends its write set to the log
// after commit, blocking per the log's ack mode; a failed append
// returns a DurabilityError (state applied, durability lost).
func (s *Store[K, V]) Atomically(part int, fn func(tx *stm.Tx, p *Part[K, V]) error) error {
	return s.run(part, -1, fn)
}

// AtomicallyAs is Atomically with an explicit process id for an
// attached recorder — the conformance harness's entry point.
func (s *Store[K, V]) AtomicallyAs(part, proc int, fn func(tx *stm.Tx, p *Part[K, V]) error) error {
	return s.run(part, proc, fn)
}

// run is the shared transaction path; proc < 0 means no explicit
// process id. The handle comes from the store's pool, so passing it to
// fn allocates nothing; on a durable store it owns the walBuf that
// captures the write set. A body that panics takes its handle with it.
func (s *Store[K, V]) run(part, proc int, fn func(tx *stm.Tx, p *Part[K, V]) error) error {
	sp := s.parts[part]
	h, _ := s.partPool.Get().(*Part[K, V])
	if h == nil {
		h = &Part[K, V]{slot: int(s.nextSlot.Add(1)-1) & s.slotMask}
	}
	h.s, h.part, h.m = s, part, sp.m
	lk := &sp.locks[h.slot]
	lk.RLock()
	defer lk.RUnlock()
	d := s.durable
	if d != nil && h.buf == nil {
		// Handles made before OpenDurable armed the log (replay) have none.
		h.buf = new(walBuf)
	}
	body := func(tx *stm.Tx) error {
		if h.buf != nil {
			// Reset per attempt: aborted speculation must not leak ops.
			h.buf.reset()
		}
		if err := fn(tx, h); err != nil {
			return err
		}
		if h.buf != nil && h.buf.nops > 0 {
			// The sequence stamp rides inside the transaction, so the
			// engine's own serialization makes seq order a valid replay
			// order for this partition. Read-only transactions skip it
			// and pay nothing.
			n := stm.Get(tx, d.seq[part]) + 1
			stm.Set(tx, d.seq[part], n)
			h.buf.seq = n
		}
		return nil
	}
	var err error
	if proc < 0 {
		err = sp.engine.Atomically(body)
	} else {
		err = sp.engine.AtomicallyAs(proc, body)
	}
	if h.buf != nil && err == nil && h.buf.nops > 0 {
		if aerr := d.log.Append(part, h.buf.seq, h.buf.nops, h.buf.ops); aerr != nil {
			err = &DurabilityError{Part: part, Seq: h.buf.seq, Err: aerr}
		}
	}
	h.s, h.m = nil, nil
	s.partPool.Put(h)
	return err
}

// Get reads k as a single-key transaction on its partition.
func (s *Store[K, V]) Get(k K) (V, bool) {
	var v V
	var ok bool
	_ = s.Atomically(s.PartitionOf(k), func(tx *stm.Tx, p *Part[K, V]) error {
		v, ok = p.Get(tx, k)
		return nil
	})
	return v, ok
}

// Put stores v under k as a single-key transaction on its partition.
func (s *Store[K, V]) Put(k K, v V) {
	_ = s.Atomically(s.PartitionOf(k), func(tx *stm.Tx, p *Part[K, V]) error {
		p.Put(tx, k, v)
		return nil
	})
}

// Delete removes k as a single-key transaction on its partition.
func (s *Store[K, V]) Delete(k K) bool {
	var ok bool
	_ = s.Atomically(s.PartitionOf(k), func(tx *stm.Tx, p *Part[K, V]) error {
		ok = p.Delete(tx, k)
		return nil
	})
	return ok
}

// Update applies fn to k read-modify-write as one transaction on k's
// partition.
func (s *Store[K, V]) Update(k K, fn func(v V, ok bool) V) {
	_ = s.Atomically(s.PartitionOf(k), func(tx *stm.Tx, p *Part[K, V]) error {
		p.Update(tx, k, fn)
		return nil
	})
}

// Len returns the exact entry count: it takes every stripe of every
// partition's escalation lock exclusive, in partition order and stripe
// order within a partition (the same total order Cross uses, so the two
// never deadlock), which drains all in-flight
// transactions store-wide, then sums the quiesced per-partition bucket
// lengths. The count is therefore a true instantaneous snapshot even
// against concurrent Cross transactions moving keys between partitions.
// The price mirrors Cross's: a Len serializes against every transaction
// in the store — it is an administration operation, not a hot path. For
// cheap monitoring, LenApprox reads without any exclusion.
func (s *Store[K, V]) Len() int {
	for _, p := range s.parts {
		p.lock()
	}
	var n int
	for _, p := range s.parts {
		n += p.m.LenQuiesced()
	}
	for i := len(s.parts) - 1; i >= 0; i-- {
		s.parts[i].unlock()
	}
	return n
}

// LenApprox sums the partition sizes with one read transaction per
// partition, excluding nothing. The partitions are read at slightly
// different times, so under concurrent key movement the sum can be off
// by the number of in-flight movers — fine for dashboards, wrong for
// invariant checks; use Len for those.
func (s *Store[K, V]) LenApprox() int {
	var n int
	for part := range s.parts {
		_ = s.Atomically(part, func(tx *stm.Tx, p *Part[K, V]) error {
			n += p.m.Len(tx)
			return nil
		})
	}
	return n
}

// Stats snapshots every partition engine's counters, indexed by
// partition.
func (s *Store[K, V]) Stats() []stm.Stats {
	out := make([]stm.Stats, len(s.parts))
	for i, p := range s.parts {
		out[i] = p.engine.Stats()
	}
	return out
}

// AdaptiveStats snapshots every partition's regime breakdown; ok is
// false when the partitions do not run the adaptive engine. Partitions
// switch regimes independently — one hot partition can go serial while
// the rest stay speculative, which is the point of per-partition
// engines.
func (s *Store[K, V]) AdaptiveStats() ([]stm.AdaptiveStats, bool) {
	out := make([]stm.AdaptiveStats, len(s.parts))
	for i, p := range s.parts {
		st, ok := p.engine.AdaptiveStats()
		if !ok {
			return nil, false
		}
		out[i] = st
	}
	return out, true
}
