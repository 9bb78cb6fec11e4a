package store_test

import (
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"pcltm/stm"
	"pcltm/store"
)

// BenchmarkStoreAtomicallyParallel is embedded_hot's transaction shape —
// a four-key read-modify-write through Store.Atomically on a 4-partition
// adaptive store of 256 keys per partition — run by b.RunParallel's
// goroutines at once, which the benchmark's traced run (one client)
// cannot do. It prices what concurrent transactions share besides data:
// engine counters, the adaptive engine's window accounting, the
// partition's escalation lock. "disjoint" gives every goroutine its own
// partition, so nothing but those words is shared across partitions;
// "shared" puts every goroutine on one partition, whose engine and lock
// they then all use. Keys are drawn uniformly, so conflicts are rare in
// both.
func BenchmarkStoreAtomicallyParallel(b *testing.B) {
	const parts, keysPerPart = 4, 256
	s := store.New[int64, int64](store.Config{Partitions: parts, Engine: stm.EngineAdaptive})
	keys := make([][]int64, parts)
	for k, filled := int64(0), 0; filled < parts; k++ {
		p := s.PartitionOf(k)
		if len(keys[p]) < keysPerPart {
			keys[p] = append(keys[p], k)
			s.Put(k, 1)
			if len(keys[p]) == keysPerPart {
				filled++
			}
		}
	}
	bump := func(v int64, _ bool) int64 { return v + 1 }
	for _, shared := range []bool{false, true} {
		name := "disjoint"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			var goroutines atomic.Uint64
			b.RunParallel(func(pb *testing.PB) {
				g := goroutines.Add(1) - 1
				part := int(g % parts)
				if shared {
					part = 0
				}
				rng := rand.New(rand.NewPCG(g, 1))
				var tx4 [4]int64
				body := func(tx *stm.Tx, p *store.Part[int64, int64]) error {
					for _, k := range tx4 {
						p.Update(tx, k, bump)
					}
					return nil
				}
				for pb.Next() {
					for i := range tx4 {
						tx4[i] = keys[part][rng.IntN(keysPerPart)]
					}
					if err := s.Atomically(part, body); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
