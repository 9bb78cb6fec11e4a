package workload

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"pcltm/internal/wal"
	"pcltm/stm"
	"pcltm/store"
	"pcltm/tstructs"
)

// The structure workloads of the E7 experiment: keyed get/increment
// traffic against the transactional map (tstructs.TMap on one engine)
// and the partitioned store (one engine instance per partition). The
// knob that matters is key skew — uniform keys are mostly disjoint, so
// they measure how much commit parallelism the sharding actually
// delivers; zipf keys concentrate on a few hot keys, so they measure
// how the structures degrade under genuine conflict.

// Skew selects the key distribution of a structure workload.
type Skew int

const (
	// SkewUniform draws keys uniformly: disjoint-dominated traffic.
	SkewUniform Skew = iota
	// SkewZipf skews toward a few hot keys with parameter ZipfS.
	SkewZipf
)

var skewNames = [...]string{"uniform", "zipf"}

func (s Skew) String() string {
	if s < 0 || int(s) >= len(skewNames) {
		return fmt.Sprintf("skew(%d)", int(s))
	}
	return skewNames[s]
}

// Skews lists all key distributions.
func Skews() []Skew { return []Skew{SkewUniform, SkewZipf} }

// SkewByName resolves a skew name.
func SkewByName(s string) (Skew, bool) {
	for _, k := range Skews() {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// StoreConfig describes a structure load run (map or store driver).
type StoreConfig struct {
	// Keys is the keyspace size; every key is seeded before the timed
	// section so steady-state ops exercise lookup and overwrite, not
	// insertion (default 1024).
	Keys int
	// Partitions is the store driver's partition count (default
	// runtime.GOMAXPROCS(0); ignored by the map driver).
	Partitions int
	// Buckets is the per-map bucket-table size (default
	// tstructs.DefaultBuckets).
	Buckets int
	// Workers and OpsPerWorker size the load.
	Workers, OpsPerWorker int
	// ReadFrac is the chance an op reads, in percent (default 50; the
	// rest are read-modify-write increments).
	ReadFrac int
	// Skew selects the key distribution; ZipfS is the zipf parameter
	// (>1, default 1.2).
	Skew  Skew
	ZipfS float64
	// CrossFrac is the chance an op is a two-key cross-partition
	// transfer, in percent (default 0: the pre-E11 single-key mix).
	// Transfers move one unit between keys, so the sum invariant is
	// unchanged: the keyspace total still equals the increment count.
	CrossFrac int
	// CrossSweep routes transfers through the whole-store sweep instead
	// of the scoped footprint commit — the E11 baseline path. Ignored by
	// the map driver, which runs both keys in one engine transaction.
	CrossSweep bool
	// Seed fixes key choices (default 1).
	Seed int64
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.Keys == 0 {
		c.Keys = 1024
	}
	if c.Partitions == 0 {
		c.Partitions = runtime.GOMAXPROCS(0)
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.OpsPerWorker == 0 {
		c.OpsPerWorker = 1000
	}
	if c.ReadFrac == 0 {
		c.ReadFrac = 50
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// keyPicker returns one worker's key chooser for the skew.
func (c StoreConfig) keyPicker(worker int) func() int64 {
	r := rand.New(rand.NewSource(c.Seed + int64(worker)*7919))
	if c.Skew == SkewZipf {
		z := rand.NewZipf(r, c.ZipfS, 1, uint64(c.Keys-1))
		return func() int64 { return int64(z.Uint64()) }
	}
	return func() int64 { return int64(r.Intn(c.Keys)) }
}

// StoreResult summarizes one structure load run.
type StoreResult struct {
	// Engine is the engine kind each partition (or the single map
	// engine) ran.
	Engine stm.EngineKind
	// Config echoes the workload.
	Config StoreConfig
	// Elapsed is the wall-clock duration of the timed section.
	Elapsed time.Duration
	// Commits, Aborts, Retries aggregate every partition's counters.
	Commits, Aborts, Retries uint64
	// Throughput is committed transactions per second.
	Throughput float64
	// AllocsPerOp and BytesPerOp are heap allocations and bytes per
	// committed transaction over the timed section.
	AllocsPerOp, BytesPerOp float64
	// Writes is the number of increment ops the run performed; the
	// keyspace total must equal it (sum invariant — transfers conserve
	// the total, so they don't count).
	Writes int64
	// CrossOps is the number of two-key transfers the run performed.
	CrossOps int64
	// Sum is the keyspace total after the run.
	Sum int64
	// PerPartition is each partition's own counters (store driver; nil
	// for the map driver) — the evidence that disjoint traffic committed
	// in disjoint engines.
	PerPartition []stm.Stats
	// WalAck, WalBackend and Wal stamp a durable run (RunDurableStore):
	// the acknowledgement mode, the backend kind ("mem"/"file") and the
	// commit log's counters. Zero on non-durable runs.
	WalAck     string
	WalBackend string
	Wal        *wal.Stats
}

// structDriver abstracts the structure under load so RunMap and
// RunStore share the measurement loop.
type structDriver interface {
	read(k int64)
	incr(k int64)
	// cross moves one unit from a to b atomically — on the store driver
	// a genuine cross-partition transaction, on the map driver a two-key
	// transaction on the single engine.
	cross(a, b int64)
	sum(keys int) int64
	stats() (total stm.Stats, per []stm.Stats)
}

type tmapDriver struct {
	eng *stm.Engine
	m   *tstructs.TMap[int64, int64]
}

func (d tmapDriver) read(k int64) {
	_ = d.eng.Atomically(func(tx *stm.Tx) error {
		_, _ = d.m.Get(tx, k)
		return nil
	})
}

func (d tmapDriver) incr(k int64) {
	// One lookup, like the store driver's Update it is the baseline for.
	_ = d.eng.Atomically(func(tx *stm.Tx) error {
		d.m.Update(tx, k, func(v int64, _ bool) int64 { return v + 1 })
		return nil
	})
}

func (d tmapDriver) cross(a, b int64) {
	_ = d.eng.Atomically(func(tx *stm.Tx) error {
		va, _ := d.m.Get(tx, a)
		vb, _ := d.m.Get(tx, b)
		d.m.Put(tx, a, va-1)
		d.m.Put(tx, b, vb+1)
		return nil
	})
}

func (d tmapDriver) sum(keys int) int64 {
	var total int64
	_ = d.eng.Atomically(func(tx *stm.Tx) error {
		total = 0
		for k := int64(0); k < int64(keys); k++ {
			if v, ok := d.m.Get(tx, k); ok {
				total += v
			}
		}
		return nil
	})
	return total
}

func (d tmapDriver) stats() (stm.Stats, []stm.Stats) { return d.eng.Stats(), nil }

type storeDriver struct {
	s     *store.Store[int64, int64]
	sweep bool // route cross ops through the whole-store sweep
}

func (d storeDriver) read(k int64) { _, _ = d.s.Get(k) }

func (d storeDriver) incr(k int64) {
	d.s.Update(k, func(v int64, ok bool) int64 { return v + 1 })
}

func (d storeDriver) cross(a, b int64) {
	fn := func(ct *store.CrossTx[int64, int64]) error {
		va, _ := ct.Get(a)
		vb, _ := ct.Get(b)
		ct.Put(a, va-1)
		ct.Put(b, vb+1)
		return nil
	}
	if d.sweep {
		_ = d.s.CrossSweep(fn)
	} else {
		_ = d.s.Cross(fn)
	}
}

func (d storeDriver) sum(keys int) int64 {
	var total int64
	for k := int64(0); k < int64(keys); k++ {
		if v, ok := d.s.Get(k); ok {
			total += v
		}
	}
	return total
}

func (d storeDriver) stats() (stm.Stats, []stm.Stats) {
	per := d.s.Stats()
	var total stm.Stats
	for _, st := range per {
		total.Commits += st.Commits
		total.Aborts += st.Aborts
		total.Retries += st.Retries
		total.LockFails += st.LockFails
	}
	return total, per
}

// RunMap executes the structure workload against a TMap on one engine
// of the given kind — the unpartitioned baseline the store cells
// compare against.
func RunMap(kind stm.EngineKind, cfg StoreConfig) StoreResult {
	cfg = cfg.withDefaults()
	d := tmapDriver{eng: stm.NewEngine(kind), m: tstructs.NewTMap[int64, int64](cfg.Buckets)}
	_ = d.eng.Atomically(func(tx *stm.Tx) error {
		for k := int64(0); k < int64(cfg.Keys); k++ {
			d.m.Put(tx, k, 0)
		}
		return nil
	})
	return runStructLoad(kind, cfg, d)
}

// RunStore executes the structure workload against a partitioned store
// whose partitions each run their own engine of the given kind.
func RunStore(kind stm.EngineKind, cfg StoreConfig) StoreResult {
	cfg = cfg.withDefaults()
	s := store.New[int64, int64](store.Config{
		Partitions: cfg.Partitions, Engine: kind, Buckets: cfg.Buckets,
	})
	for k := int64(0); k < int64(cfg.Keys); k++ {
		s.Put(k, 0)
	}
	return runStructLoad(kind, cfg, storeDriver{s: s, sweep: cfg.CrossSweep})
}

// runStructLoad is the shared timed section: seeded keyed traffic, sum
// invariant, allocation accounting. Seeding transactions have already
// run, so the engine counters are snapshotted before the load.
func runStructLoad(kind stm.EngineKind, cfg StoreConfig, d structDriver) StoreResult {
	pre, _ := d.stats()
	writeCounts := make([]int64, cfg.Workers)
	crossCounts := make([]int64, cfg.Workers)

	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + 104_729 + int64(worker)*7919))
			pick := cfg.keyPicker(worker)
			for op := 0; op < cfg.OpsPerWorker; op++ {
				k := pick()
				if cfg.CrossFrac > 0 && r.Intn(100) < cfg.CrossFrac {
					b := pick()
					if b == k { // a transfer needs two keys
						b = (k + 1) % int64(cfg.Keys)
					}
					d.cross(k, b)
					crossCounts[worker]++
				} else if r.Intn(100) < cfg.ReadFrac {
					d.read(k)
				} else {
					d.incr(k)
					writeCounts[worker]++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	post, per := d.stats()
	res := StoreResult{
		Engine: kind, Config: cfg, Elapsed: elapsed,
		Commits:      post.Commits - pre.Commits,
		Aborts:       post.Aborts - pre.Aborts,
		Retries:      post.Retries - pre.Retries,
		Sum:          d.sum(cfg.Keys),
		PerPartition: per,
	}
	for _, n := range writeCounts {
		res.Writes += n
	}
	for _, n := range crossCounts {
		res.CrossOps += n
	}
	if elapsed > 0 {
		res.Throughput = float64(res.Commits) / elapsed.Seconds()
	}
	if res.Commits > 0 {
		res.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(res.Commits)
		res.BytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.Commits)
	}
	return res
}
