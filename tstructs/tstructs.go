// Package tstructs provides STM-native data structures engineered for
// commit parallelism on the stm/ engines: a sharded transactional map
// (TMap), a retry-based blocking FIFO queue (TQueue), and a sorted
// linked set index (TSet).
//
// Raw TVars are the assembly language of the engines; these structures
// are the calling convention. Every operation takes the caller's *stm.Tx
// and composes with any other transactional work in the same atomic
// block — a TMap put, a TQueue push and a plain TVar increment can
// commit or abort as one transaction. The structures themselves hold no
// engine reference: the engine is chosen by whoever opens the
// transaction, which is what lets store/ run one engine instance per
// keyspace partition.
//
// The design rule throughout is PCL-aware: the theorem says parallelism,
// consistency and liveness cannot all be had where transactions
// conflict, so the structures are shaped to make *disjoint* operations
// genuinely disjoint at the TVar level and pay the theorem's price only
// on true conflicts:
//
//   - TMap hashes keys over a power-of-two bucket table (Fibonacci
//     multiply-shift, same discipline as the engines' orec table). A
//     bucket is one head TVar pointing at an immutable array of
//     {key, value TVar} slots, replaced copy-on-write by inserts and
//     deletes, so a lookup reads three TVars (table, head, value)
//     whatever the bucket holds. Operations on keys in different
//     buckets have disjoint read and write sets and never
//     false-conflict; overwrites of an existing key touch only that
//     key's value TVar.
//   - TQueue concentrates conflicts at the two ends of the list — which
//     is the point of a queue — and blocks empty takers with stm.Retry
//     so they wake exactly when a producer commits.
//   - TSet is the ordered index: conflicts are confined to the
//     insertion window actually touched.
//
// # Allocation contract
//
// Steady-state operations stay on the engines' zero-allocation hot
// path: TMap get, overwrite-put, update of a present key and delete of
// an absent one, TSet contains, and TQueue take of an already-linked
// node perform no heap allocations (gated in alloc_test.go with
// testing.AllocsPerRun, engine by engine). Structural changes allocate
// what they publish — fresh nodes, or a TMap bucket's new array — and
// nothing else does. footprint_test.go pins the other half of the
// cost: the transactional reads and writes per TMap operation.
//
// # Conformance discipline
//
// Structure mutations write every freshly created TVar inside the
// creating transaction (allocate zero-valued, then stm.Set) instead of
// smuggling initial values through stm.NewTVar. The extra write-set
// entry costs one word on inserts only, and it keeps recorded histories
// closed: every value a later transaction reads was written by some
// recorded transaction, which is what lets internal/conformance stamp
// TMap and store histories and run the paper's checkers on them.
package tstructs
