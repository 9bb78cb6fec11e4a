package conformance

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"pcltm/internal/core"
	"pcltm/internal/exectest"
	"pcltm/stm"
	"pcltm/store"
	"pcltm/tstructs"
)

// The structure layer of the conformance harness: where conformance.go
// records histories of raw TVars, this file records histories at two
// additional abstraction levels and runs the same checkers on both.
//
//   - Structure-level ("map-level") histories: every TMap or store
//     operation is one transaction over the *keyspace* — R(k)=v or
//     W(k,v) — with its real-time interval bracketed by tickets taken
//     before and after the operation ran. A correct map over a correct
//     engine linearizes its operations, so these histories must be
//     strictly serializable; a map that mishandles its bucket arrays
//     (NewAliasedTMapForTest) yields reads of values the serialization
//     order cannot justify, and the checkers convict it. Absence is
//     encoded as the checkers' initial value 0 (episodes write only
//     positive values), so "get of a lost key" shows up as a read of 0
//     after a committed write — exactly the unjustifiable read.
//
//   - Per-partition TVar-level histories: a partitioned store runs one
//     engine per partition, each wearing its own recorder (the store's
//     EngineOptions seam); each partition's attempt log is stamped
//     independently (StampInterned, since bucket heads record array
//     pointers) and must satisfy the engine's required conditions —
//     opacity for the speculative engines — partition by partition.
//     This is the acceptance check that partitioning did not buy
//     parallelism by weakening any single partition's consistency.

// StructEpisode sizes one recorded structure run.
type StructEpisode struct {
	// Workers and OpsPerWorker shape the concurrent load; their product
	// is the structure-level transaction count, which must stay at or
	// under maxCheckedTxns for the episode to be checked (default 2×3).
	Workers, OpsPerWorker int
	// Keys is the keyspace size (default 4, keys 1..Keys).
	Keys int
	// PutFrac is the chance an op writes, in percent (default 50).
	PutFrac int
	// Partitions sizes the store driver's partition count (default 2).
	Partitions int
	// Seed fixes the op plans (default 1).
	Seed int64
}

func (ep StructEpisode) withDefaults() StructEpisode {
	if ep.Workers == 0 {
		ep.Workers = 2
	}
	if ep.OpsPerWorker == 0 {
		ep.OpsPerWorker = 3
	}
	if ep.Keys == 0 {
		ep.Keys = 4
	}
	if ep.PutFrac == 0 {
		ep.PutFrac = 50
	}
	if ep.Partitions == 0 {
		ep.Partitions = 2
	}
	if ep.Seed == 0 {
		ep.Seed = 1
	}
	return ep
}

// structOp is one completed structure-level operation with its ticket
// bracket.
type structOp struct {
	proc            int
	begin, mid, end uint64
	write           bool
	key             int64
	val             int64
}

// keyedMap is the structure under test, abstracted so the TMap and
// store drivers share the episode runner: one get or put, executed as
// one transaction on behalf of proc.
type keyedMap interface {
	get(proc int, k int64) int64
	put(proc int, k, v int64)
}

// tmapUnderTest runs a TMap on a single engine.
type tmapUnderTest struct {
	eng *stm.Engine
	m   *tstructs.TMap[int64, int64]
}

func (u tmapUnderTest) get(proc int, k int64) int64 {
	var v int64
	_ = u.eng.AtomicallyAs(proc, func(tx *stm.Tx) error {
		v, _ = u.m.Get(tx, k)
		return nil
	})
	return v
}

func (u tmapUnderTest) put(proc int, k, v int64) {
	_ = u.eng.AtomicallyAs(proc, func(tx *stm.Tx) error {
		u.m.Put(tx, k, v)
		return nil
	})
}

// storeUnderTest routes through a partitioned store.
type storeUnderTest struct{ s *store.Store[int64, int64] }

func (u storeUnderTest) get(proc int, k int64) int64 {
	var v int64
	_ = u.s.AtomicallyAs(u.s.PartitionOf(k), proc, func(tx *stm.Tx, p *store.Part[int64, int64]) error {
		v, _ = p.Get(tx, k)
		return nil
	})
	return v
}

func (u storeUnderTest) put(proc int, k, v int64) {
	_ = u.s.AtomicallyAs(u.s.PartitionOf(k), proc, func(tx *stm.Tx, p *store.Part[int64, int64]) error {
		p.Put(tx, k, v)
		return nil
	})
}

// runStructOps drives the episode's planned ops concurrently against m,
// ticketing each op's real-time bracket, and projects the completed ops
// into a structure-level core.Execution.
func runStructOps(m keyedMap, ep StructEpisode) *core.Execution {
	var tickets atomic.Uint64
	var values atomic.Int64 // unique positive write values; 0 stays "absent"
	ops := make([][]structOp, ep.Workers)
	var wg sync.WaitGroup
	for w := 0; w < ep.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(ep.Seed + int64(w)*7919))
			for i := 0; i < ep.OpsPerWorker; i++ {
				op := structOp{
					proc:  w,
					key:   1 + int64(r.Intn(ep.Keys)),
					write: r.Intn(100) < ep.PutFrac,
				}
				op.begin = tickets.Add(1)
				if op.write {
					op.val = values.Add(1)
					m.put(w, op.key, op.val)
				} else {
					op.val = m.get(w, op.key)
				}
				op.mid = tickets.Add(1)
				op.end = tickets.Add(1)
				ops[w] = append(ops[w], op)
			}
		}(w)
	}
	wg.Wait()
	var all []structOp
	for _, ws := range ops {
		all = append(all, ws...)
	}
	return buildStructExecution(all, ep.Workers)
}

// buildStructExecution projects completed structure ops into a
// core.Execution: one committed single-op transaction per operation,
// intervals from the ticket brackets. Soundness mirrors Stamp's: the
// begin ticket is taken before the operation's transaction starts and
// the end ticket after it returns, so every real-time precedence in the
// projected history actually happened.
func buildStructExecution(ops []structOp, nprocs int) *core.Execution {
	sort.Slice(ops, func(i, j int) bool { return ops[i].begin < ops[j].begin })
	b := exectest.New().NProcs(nprocs)
	type ev struct {
		seq  uint64
		kind momentKind
		txn  core.TxID
		op   structOp
	}
	var evs []ev
	for i, op := range ops {
		txn := core.TxID(i + 1)
		item := core.Item(fmt.Sprintf("k%d", op.key))
		spec := core.TxSpec{ID: txn, Proc: core.ProcID(op.proc)}
		if op.write {
			spec.Ops = []core.TxOp{core.W(item, core.Value(op.val))}
		} else {
			spec.Ops = []core.TxOp{core.R(item)}
		}
		b.Spec(spec)
		evs = append(evs,
			ev{seq: op.begin, kind: momentBegin, txn: txn, op: op},
			ev{seq: op.mid, kind: momentOp, txn: txn, op: op},
			ev{seq: op.end, kind: momentEnd, txn: txn, op: op})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].seq < evs[j].seq })
	for _, e := range evs {
		p := core.ProcID(e.op.proc)
		item := core.Item(fmt.Sprintf("k%d", e.op.key))
		switch e.kind {
		case momentBegin:
			b.Begin(p, e.txn)
		case momentOp:
			if e.op.write {
				b.Write(p, e.txn, item, core.Value(e.op.val))
			} else {
				b.Read(p, e.txn, item, core.Value(e.op.val))
			}
		case momentEnd:
			b.Commit(p, e.txn)
		}
	}
	return b.Exec()
}

// RunTMapEpisode records one structure-level history of a TMap on a
// fresh engine of the given kind.
func RunTMapEpisode(kind stm.EngineKind, ep StructEpisode) *core.Execution {
	ep = ep.withDefaults()
	u := tmapUnderTest{eng: stm.NewEngine(kind), m: tstructs.NewTMap[int64, int64](16)}
	return runStructOps(u, ep)
}

// StoreEpisodeResult is one store episode's recorded output: the
// structure-level history plus each partition's TVar-level history.
type StoreEpisodeResult struct {
	// StoreLevel is the keyspace history (every store op one committed
	// transaction).
	StoreLevel *core.Execution
	// Partitions holds one stamped TVar-level execution per partition,
	// from that partition's own engine's recorder.
	Partitions []*core.Execution
}

// RunStoreEpisode records one store episode: a fresh partitioned store
// whose partitions each run their own engine of the given kind, one
// recorder per partition.
func RunStoreEpisode(kind stm.EngineKind, ep StructEpisode) (*StoreEpisodeResult, error) {
	ep = ep.withDefaults()
	recs := make([]*stm.Recorder, 0, ep.Partitions)
	s := store.New[int64, int64](store.Config{
		Partitions: ep.Partitions,
		Engine:     kind,
		Buckets:    8,
		EngineOptions: func(part int) []stm.Option {
			r := stm.NewRecorder()
			recs = append(recs, r)
			return []stm.Option{stm.WithRecorder(r)}
		},
	})
	res := &StoreEpisodeResult{StoreLevel: runStructOps(storeUnderTest{s: s}, ep)}
	itemOf := func(id uint64) (core.Item, bool) { return core.Item(fmt.Sprintf("t%d", id)), true }
	for _, r := range recs {
		exec, err := StampInterned(r.Take(), itemOf, ep.Workers)
		if err != nil {
			return nil, err
		}
		res.Partitions = append(res.Partitions, exec)
	}
	return res, nil
}

// ConvictAliasedTMap is the structure layer's self-test, mirroring the
// broken engines of stm/broken.go: it drives the planted
// cross-bucket-aliasing fixture — one bucket, neighbour-dropping insert — with
// a deterministic sequential history (put k1, put k2, get k1) and
// returns the Evaluate report, which must convict: the second put
// destroys k1's entry, so the final read returns 0 ("absent") after
// k1's write committed, a read no real-time-respecting serialization
// justifies. A harness that cannot flag this fixture would be vacuous
// on real structure bugs of the same shape.
func ConvictAliasedTMap() *Report {
	eng := stm.NewEngine(stm.EngineGlobalLock)
	m := tstructs.NewAliasedTMapForTest[int64, int64]()
	u := tmapUnderTest{eng: eng, m: m}
	var tickets atomic.Uint64
	var ops []structOp
	do := func(write bool, k, v int64) {
		op := structOp{write: write, key: k, val: v}
		op.begin = tickets.Add(1)
		if write {
			u.put(0, k, v)
		} else {
			op.val = u.get(0, k)
		}
		op.mid = tickets.Add(1)
		op.end = tickets.Add(1)
		ops = append(ops, op)
	}
	do(true, 1, 10) // put k1=10
	do(true, 2, 20) // put k2=20: publishes a one-slot bucket, k1 is lost
	do(false, 1, 0) // get k1: observes 0 ("absent") — the conviction
	exec := buildStructExecution(ops, 1)
	return Evaluate("aliased", Episode{Seed: 1}, exec)
}

// StructStressConfig sizes a structure-conformance sweep.
type StructStressConfig struct {
	// Episodes per engine × driver cell (default 3).
	Episodes int
	// Seed derives every episode deterministically (default 1).
	Seed int64
	// Engines to sweep (default: every registered kind).
	Engines []stm.EngineKind
}

func (c StructStressConfig) withDefaults() StructStressConfig {
	if c.Episodes == 0 {
		c.Episodes = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Engines == nil {
		c.Engines = stm.EngineKinds()
	}
	return c
}

// StructStressSummary aggregates a structure sweep. Reports carry one
// entry per checked history: structure-level TMap and store histories,
// and each store episode's per-partition TVar-level histories.
type StructStressSummary struct {
	Reports []*Report
	// MapHistories, StoreHistories, PartitionHistories and
	// StitchedHistories count the checked histories by level (stitched =
	// keyspace-level with cross-partition transactions; stitch.go).
	MapHistories, StoreHistories, PartitionHistories, StitchedHistories int
	// Episodes, Checked, Skipped, Inconclusive mirror StressSummary.
	Episodes, Checked, Skipped, Inconclusive int
	// Failures holds one formatted entry per violated history.
	Failures []string
	// AliasedConvicted reports the planted-fixture self-test: true when
	// the checkers flagged the aliased TMap. A sweep with this false is
	// itself broken.
	AliasedConvicted bool
	// HalfCrossConvicted reports the stitching checker's self-test: true
	// when the checkers flagged the planted half-applied-cross store
	// (store.BreakCrossForTest). A sweep with this false cannot see
	// cross-partition atomicity bugs.
	HalfCrossConvicted bool
}

// StressStructures runs the seeded structure-conformance sweep: per
// engine, TMap episodes and partitioned-store episodes (structure-level
// histories checked for every engine; per-partition TVar-level
// histories checked against the engine's required conditions — opacity
// included for the speculative engines), plus the aliased-fixture
// conviction self-test.
func StressStructures(cfg StructStressConfig) (*StructStressSummary, error) {
	cfg = cfg.withDefaults()
	sum := &StructStressSummary{}
	for _, kind := range cfg.Engines {
		name := kind.String()
		for i := 0; i < cfg.Episodes; i++ {
			ep := structShape(cfg.Seed, name, i)

			exec := RunTMapEpisode(kind, ep)
			sum.MapHistories++
			sum.fold(name, ep, exec)

			res, err := RunStoreEpisode(kind, ep)
			if err != nil {
				return nil, fmt.Errorf("structures %s #%d: %w", name, i, err)
			}
			sum.StoreHistories++
			sum.fold(name, ep, res.StoreLevel)
			for _, pexec := range res.Partitions {
				sum.PartitionHistories++
				sum.fold(name, ep, pexec)
			}

			sexec := RunCrossEpisode(kind, CrossEpisode{StructEpisode: ep})
			sum.StitchedHistories++
			sum.fold(name, ep, sexec)
		}
	}
	rep := ConvictAliasedTMap()
	sum.AliasedConvicted = len(rep.Failures()) > 0
	rep = ConvictHalfAppliedCross()
	sum.HalfCrossConvicted = len(rep.Failures()) > 0
	return sum, nil
}

// fold evaluates one history and accumulates its verdict.
func (s *StructStressSummary) fold(engine string, ep StructEpisode, exec *core.Execution) {
	rep := Evaluate(engine, Episode{Seed: ep.Seed}, exec)
	s.Reports = append(s.Reports, rep)
	s.Episodes++
	if rep.Skipped {
		s.Skipped++
	} else {
		s.Checked++
	}
	if len(rep.Inconclusive()) > 0 {
		s.Inconclusive++
	}
	if fails := rep.Failures(); len(fails) > 0 {
		s.Failures = append(s.Failures, fmt.Sprintf(
			"%s structures seed=%d violated %v\n%s",
			engine, ep.Seed, fails, rep.DumpHistory()))
	}
}

// structShape derives one structure episode deterministically from the
// sweep seed and cell coordinates, sized to stay checkable: the
// structure-level transaction count is Workers × OpsPerWorker ≤
// maxCheckedTxns, and the per-partition TVar-level histories hold
// roughly their partition's share of those ops plus retries.
func structShape(seed int64, engine string, i int) StructEpisode {
	h := int64(0)
	for _, c := range engine {
		h = h*131 + int64(c)
	}
	r := rand.New(rand.NewSource(seed + h + int64(i)*104_729))
	return StructEpisode{
		Workers:      2,
		OpsPerWorker: 2 + r.Intn(3), // 2..4 → 4..8 structure-level txns
		Keys:         3 + r.Intn(4), // 3..6
		PutFrac:      40 + 10*r.Intn(3),
		Partitions:   2,
		Seed:         seed + int64(i)*31 + h%1000 + 1,
	}
}
