package tstructs

import (
	"fmt"
	"reflect"

	"pcltm/stm"
)

// DefaultBuckets is the bucket-table size a TMap gets when the
// constructor is passed 0. 64 buckets keep a few hundred keys at a
// handful of slots per bucket while costing one head TVar per bucket up
// front; the table doubles itself past the growth threshold, so the
// constructor size is a starting point, not a ceiling.
const DefaultBuckets = 64

// maxBuckets caps table growth where the TVar overhead of the bucket
// heads would start to matter (2^20 buckets ≈ tens of MiB of heads).
const maxBuckets = 1 << 20

// growChainLen is the bucket length past which an insert doubles the
// bucket table. The trigger is per-bucket deliberately: the inserting
// transaction has just published its bucket's new array, so the check
// costs no extra footprint — a global entry counter would put every
// insert in the map in conflict with every other, serializing exactly
// the disjoint-key traffic the sharded table exists to parallelize. With
// the Fibonacci spread keeping buckets near the mean, one crossing
// growChainLen signals the whole table is past a mean load factor of
// roughly half this, so doubling on the local signal tracks the global
// load-factor policy. The threshold can be lenient because bucket
// length costs no transactional reads: a lookup scans contiguous plain
// keys.
const growChainLen = 12

// slot is one key's cell in a bucket: the key is immutable, the value is
// the key's own TVar. An overwrite of an existing key touches exactly
// that TVar and nothing of the bucket.
type slot[K comparable, V any] struct {
	key K
	val *stm.TVar[V]
}

// bucket is one published state of a bucket: an array of slots that is
// never modified after the head TVar carries a pointer to it. An insert
// or delete builds a fresh array and publishes that instead
// (copy-on-write), so a transaction that read a head scans a frozen
// array with plain loads. The empty bucket is the nil pointer — a head's
// initial value, and what deleting the last key puts back.
type bucket[K comparable, V any] []slot[K, V]

// find returns the index of k's slot, or -1. Safe on the nil (empty)
// bucket.
func (b *bucket[K, V]) find(k K) int {
	if b != nil {
		for i := range *b {
			if (*b)[i].key == k {
				return i
			}
		}
	}
	return -1
}

// size is the bucket's key count; the nil bucket holds none.
func (b *bucket[K, V]) size() int {
	if b == nil {
		return 0
	}
	return len(*b)
}

// table is one generation of the bucket table: a fixed power-of-two
// array of bucket heads. A generation is immutable once published —
// growth builds the next generation and swaps the map's table TVar — so
// a transaction that read the table pointer works against an internally
// consistent array, and the swap itself conflicts with every concurrent
// operation exactly the way a structural rehash must.
type table[K comparable, V any] struct {
	heads []*stm.TVar[*bucket[K, V]]
	shift uint
}

// TMap is a sharded transactional hash map: a power-of-two table of
// buckets, one head TVar per bucket holding a pointer to an immutable
// slot array, keys spread by Fibonacci multiply-shift of the key hash.
//
// A lookup is three transactional reads whatever the bucket holds: the
// table pointer, the bucket head, and the key's value TVar; finding the
// key between the last two is a plain scan of contiguous keys. The
// conflict footprint follows from that layout:
//
//   - Get / Contains / a missing Delete read the table pointer and one
//     head (Get also the value). They conflict with inserts and deletes
//     in the same bucket, with growth, and — Get only — with overwrites
//     of the same key.
//   - An overwriting Put or Update writes only the key's value TVar: it
//     conflicts with readers and writers of that key, and with nothing
//     else in the bucket.
//   - An insert or a delete publishes a fresh array through the head, so
//     it conflicts with every concurrent operation on the same bucket,
//     whichever key that operation names (and with Len and ForEach,
//     which read every head). A delete therefore costs what an insert
//     costs; it does not write the removed key's value TVar, whose
//     readers are already in conflict through the head.
//
// Transactions on keys in different buckets read and write disjoint
// TVar sets, so they commit in parallel with no false conflicts on any
// engine; the residual false conflict — a structural change in a bucket
// another key hashes to — shrinks with the bucket count, exactly like
// orec aliasing in the 2PL engine.
//
// The bucket table grows: an insert that pushes its bucket past
// growChainLen rehashes into a table of twice the size, inside the
// inserting transaction (cost amortized O(1) per insert by doubling).
// The table is held in a TVar, so growth is transactional: concurrent
// readers either serialize before the swap (and see the old generation
// whole) or after it (and see the new one) — never a mix. The table
// never shrinks; a bucket emptied by deletes costs only its head.
//
// All operations take the caller's transaction and compose with any
// other transactional work. TMap holds no engine: run its operations
// under whichever engine owns the surrounding Atomically (the store
// package runs one engine instance per partition this way).
//
// A TMap is safe for concurrent use by transactions of one engine;
// like TVars, its internals must not be shared between engines.
type TMap[K comparable, V any] struct {
	// tab holds the current table generation — nil meaning gen0, so the
	// TVar's initial value is the conformance discipline's zero and
	// only growth ever writes it (a recorded write every later read is
	// justified by).
	tab  *stm.TVar[*table[K, V]]
	gen0 *table[K, V]
	hash func(K) uint64
	// brokenInsert is the planted-bug switch of NewAliasedTMapForTest:
	// an insert publishes a one-slot array instead of a copy of the
	// bucket plus the new slot — the cross-bucket-aliasing bug the
	// conformance harness must convict. One-slot buckets also never
	// reach the growth threshold, which keeps the fixture's single
	// bucket single.
	brokenInsert bool
}

// NewTMap builds a map with the given initial bucket count (0 =
// DefaultBuckets, otherwise rounded up to a power of two and clamped).
// The key type's hash function is derived from its layout (see
// hasherFor); key types without a canonical byte image panic with
// advice to use NewTMapFunc.
func NewTMap[K comparable, V any](buckets int) *TMap[K, V] {
	hash := hasherFor[K]()
	if hash == nil {
		panic(fmt.Sprintf("tstructs: key type %v has no derivable hash; use NewTMapFunc",
			reflect.TypeFor[K]()))
	}
	return NewTMapFunc[K, V](buckets, hash)
}

// NewTMapFunc builds a map with an explicit key hash. The hash must be
// deterministic and agree with == (equal keys, equal hashes); quality
// matters only for spread, not correctness — the table applies its own
// Fibonacci finalizer.
func NewTMapFunc[K comparable, V any](buckets int, hash func(K) uint64) *TMap[K, V] {
	if hash == nil {
		panic("tstructs: NewTMapFunc: nil hash")
	}
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	if buckets > maxBuckets {
		buckets = maxBuckets
	}
	n, log := 1, uint(0)
	for n < buckets {
		n <<= 1
		log++
	}
	return &TMap[K, V]{
		tab:  stm.NewTVar[*table[K, V]](nil),
		gen0: newTable[K, V](n, 64-log),
		hash: hash,
	}
}

// newTable allocates one table generation with empty buckets.
func newTable[K comparable, V any](n int, shift uint) *table[K, V] {
	t := &table[K, V]{heads: make([]*stm.TVar[*bucket[K, V]], n), shift: shift}
	for i := range t.heads {
		t.heads[i] = stm.NewTVar[*bucket[K, V]](nil)
	}
	return t
}

// tableOf resolves the current generation inside tx: the table TVar,
// whose nil initial value stands for generation 0.
func (m *TMap[K, V]) tableOf(tx *stm.Tx) *table[K, V] {
	if t := stm.Get(tx, m.tab); t != nil {
		return t
	}
	return m.gen0
}

// tablePeek resolves the current generation outside any transaction —
// for the monitoring reads (Buckets, BucketOf, LenQuiesced).
func (m *TMap[K, V]) tablePeek() *table[K, V] {
	if t := m.tab.Peek(); t != nil {
		return t
	}
	return m.gen0
}

// Buckets returns the current bucket-table size (a power of two). It
// peeks the table pointer outside any transaction, so under concurrent
// growth it is a monitoring read, like LenQuiesced.
func (m *TMap[K, V]) Buckets() int { return len(m.tablePeek().heads) }

// bucketOf returns the index of the bucket covering k in generation t.
func (t *table[K, V]) bucketOf(hash func(K) uint64, k K) int {
	return int(fibIndex(hash(k), t.shift))
}

// BucketOf exposes the bucket index covering k — for sharding
// diagnostics and the store's routing-independence tests; two
// transactions can conflict falsely in the map only when their keys
// share a BucketOf value. Like Buckets, it peeks the current
// generation.
func (m *TMap[K, V]) BucketOf(k K) int { return m.tablePeek().bucketOf(m.hash, k) }

// place is where a key lives, as one lookup found it: the generation,
// the key's bucket head, the array that head held, and the key's index
// in it (-1 when absent).
type place[K comparable, V any] struct {
	t    *table[K, V]
	head *stm.TVar[*bucket[K, V]]
	b    *bucket[K, V]
	i    int
}

// locate finds k inside tx with two transactional reads — the table
// pointer and the bucket head — and a plain scan of the array.
func (m *TMap[K, V]) locate(tx *stm.Tx, k K) place[K, V] {
	t := m.tableOf(tx)
	head := t.heads[t.bucketOf(m.hash, k)]
	b := stm.Get(tx, head)
	return place[K, V]{t: t, head: head, b: b, i: b.find(k)}
}

// val is the located key's value TVar; the key must be present.
func (p place[K, V]) val() *stm.TVar[V] { return (*p.b)[p.i].val }

// Get reads k's value inside tx; ok reports presence. The read set is
// the table pointer, k's bucket head and k's value TVar — three reads,
// disjoint from every other bucket.
func (m *TMap[K, V]) Get(tx *stm.Tx, k K) (V, bool) {
	p := m.locate(tx, k)
	if p.i < 0 {
		var zero V
		return zero, false
	}
	return stm.Get(tx, p.val()), true
}

// Contains reports whether k is present, without reading the value.
func (m *TMap[K, V]) Contains(tx *stm.Tx, k K) bool {
	return m.locate(tx, k).i >= 0
}

// Put stores v under k inside tx. Overwriting an existing key writes
// only that key's value TVar; inserting publishes a new bucket array
// and, past the growth threshold, doubles the table.
func (m *TMap[K, V]) Put(tx *stm.Tx, k K, v V) {
	p := m.locate(tx, k)
	if p.i >= 0 {
		stm.Set(tx, p.val(), v)
		return
	}
	m.insert(tx, p, k, v)
}

// Update applies fn to k's current value (ok reports presence), stores
// the result under k and returns it — read-modify-write on one lookup:
// for a present key, three reads and one write.
func (m *TMap[K, V]) Update(tx *stm.Tx, k K, fn func(v V, ok bool) V) V {
	p := m.locate(tx, k)
	if p.i >= 0 {
		val := p.val()
		next := fn(stm.Get(tx, val), true)
		stm.Set(tx, val, next)
		return next
	}
	var zero V
	next := fn(zero, false)
	m.insert(tx, p, k, next)
	return next
}

// insert adds the absent key k at p: a fresh value TVar, and a copy of
// the bucket's array with k's slot appended, published through the
// head. The value TVar is written through stm.Set inside tx (not seeded
// via NewTVar), so the whole insert is visible to an attached recorder
// — see the package's conformance discipline.
func (m *TMap[K, V]) insert(tx *stm.Tx, p place[K, V], k K, v V) {
	val := stm.NewTVar[V](*new(V))
	stm.Set(tx, val, v)
	n := p.b.size()
	if m.brokenInsert {
		n = 0 // the planted bug: the neighbours are not copied
	}
	nb := make(bucket[K, V], n+1)
	if n > 0 {
		copy(nb, *p.b)
	}
	nb[n] = slot[K, V]{key: k, val: val}
	stm.Set(tx, p.head, &nb)
	if len(nb) > growChainLen && len(p.t.heads) < maxBuckets {
		m.grow(tx, p.t)
	}
}

// grow rehashes generation old into a table of twice the size and
// swaps the map's table TVar, all inside tx. Slots move whole — value
// TVars untouched, only the arrays rebuilt — so an overwrite racing the
// growth conflicts on exactly the TVars it would have anyway. The
// transaction's footprint is the entire old table, which is what makes
// the swap safe: any concurrent operation that saw the old generation
// overlaps it and serializes. The new generation's heads are written
// through stm.Set like every fresh TVar; empty buckets keep their nil
// initial value.
func (m *TMap[K, V]) grow(tx *stm.Tx, old *table[K, V]) {
	nt := newTable[K, V](len(old.heads)*2, old.shift-1)
	next := make([]bucket[K, V], len(nt.heads))
	for _, head := range old.heads {
		b := stm.Get(tx, head)
		if b == nil {
			continue
		}
		for _, s := range *b {
			i := nt.bucketOf(m.hash, s.key)
			next[i] = append(next[i], s)
		}
	}
	for i := range next {
		if len(next[i]) > 0 {
			stm.Set(tx, nt.heads[i], &next[i])
		}
	}
	stm.Set(tx, m.tab, nt)
}

// Delete removes k inside tx, reporting whether the map changed. A hit
// publishes the bucket's array without k's slot — nil when k was the
// bucket's last key — so it conflicts with every concurrent operation
// on the bucket, as an insert does. A miss leaves the transaction
// read-only for this op.
func (m *TMap[K, V]) Delete(tx *stm.Tx, k K) bool {
	p := m.locate(tx, k)
	if p.i < 0 {
		return false
	}
	var nb *bucket[K, V]
	if old := *p.b; len(old) > 1 {
		rest := make(bucket[K, V], 0, len(old)-1)
		rest = append(append(rest, old[:p.i]...), old[p.i+1:]...)
		nb = &rest
	}
	stm.Set(tx, p.head, nb)
	return true
}

// Len returns the entry count inside tx. It reads every bucket head
// (and no value), so it is O(buckets) and conflicts with all concurrent
// inserts and deletes — an inherently global question — but with no
// overwrite.
func (m *TMap[K, V]) Len(tx *stm.Tx) int {
	n := 0
	for _, head := range m.tableOf(tx).heads {
		n += stm.Get(tx, head).size()
	}
	return n
}

// LenQuiesced returns the entry count without a transaction, by
// peeking every bucket head of the current generation. Each peek is
// individually consistent, so the sum is exact only when the caller
// excludes all concurrent transactions on the map's engine for the
// duration — the contract store.Len provides by holding every
// partition's escalation lock exclusive. Without that exclusion the
// sum is a monitoring approximation, like summing sharded counters
// anywhere.
func (m *TMap[K, V]) LenQuiesced() int {
	n := 0
	for _, head := range m.tablePeek().heads {
		n += head.Peek().size()
	}
	return n
}

// ForEach visits every entry inside tx, in unspecified order, until fn
// returns false. The read set is the whole table; use it for snapshots
// and administration, not hot paths.
func (m *TMap[K, V]) ForEach(tx *stm.Tx, fn func(k K, v V) bool) {
	for _, head := range m.tableOf(tx).heads {
		b := stm.Get(tx, head)
		if b == nil {
			continue
		}
		for _, s := range *b {
			if !fn(s.key, stm.Get(tx, s.val)) {
				return
			}
		}
	}
}

// NewAliasedTMapForTest builds the conformance harness's planted-bug
// fixture: a single-bucket table (every key aliases onto one head TVar)
// whose insert mishandles the bucket — it publishes a one-slot array
// instead of a copy with the new slot added, so putting key B destroys
// key A's slot. Recorded store histories over this map read values that
// were never written to the keys they came from; the consistency
// checkers must convict it, which is the harness's self-test for the
// structure layer (mirroring stm.NewBrokenEngineForTest at the engine
// layer). Not registered, not for production use.
func NewAliasedTMapForTest[K comparable, V any]() *TMap[K, V] {
	hash := hasherFor[K]()
	if hash == nil {
		hash = func(K) uint64 { return 0 }
	}
	m := NewTMapFunc[K, V](1, hash)
	m.brokenInsert = true
	return m
}
