// Package pcltm's root benchmark harness regenerates every figure of the
// paper and the added experiments of EXPERIMENTS.md:
//
//	F1/F2  — the critical-step searches (Figures 1–2)
//	F3/F5  — assembling and value-checking β (Figures 3 and 5)
//	F4/F6  — assembling and value-checking β′ (Figures 4 and 6)
//	T4.1   — the full verdict matrix over the protocol portfolio
//	E1     — production engine throughput across contention patterns
//	E2     — decision-procedure cost of the consistency conditions
//	E9     — polynomial certification cost vs history size
//	E10    — durability cost across wal acknowledgement modes
//	E14    — a durable cross commit, footprint declared vs discovered vs swept
//
// Run with: go test -bench=. -benchmem .
package pcltm

import (
	"fmt"
	"sync/atomic"
	"testing"

	"pcltm/internal/certify"
	"pcltm/internal/consistency"
	"pcltm/internal/core"
	"pcltm/internal/exectest"
	"pcltm/internal/history"
	"pcltm/internal/pcl"
	"pcltm/internal/registry"
	"pcltm/internal/stms"
	"pcltm/internal/wal"
	"pcltm/internal/workload"
	"pcltm/stm"
	"pcltm/store"
)

// mustProto resolves a portfolio protocol through the shared registry or
// fails the benchmark.
func mustProto(b *testing.B, name string) stms.Protocol {
	b.Helper()
	p, err := registry.ProtocolByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchAdversary runs the construction to the given depth against the
// naive protocol — the only portfolio member that walks the whole
// construction, so the figure benchmarks measure the full search work.
func benchAdversary(b *testing.B, depth pcl.Depth, needS1, needS2, needBeta, needBetaPrime bool) {
	proto := mustProto(b, "naive")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := pcl.NewAdversary(proto).RunTo(depth)
		if needS1 && o.S1 == nil {
			b.Fatal("s1 not located")
		}
		if needS2 && o.S2 == nil {
			b.Fatal("s2 not located")
		}
		if needBeta && o.Beta == nil {
			b.Fatal("β not assembled")
		}
		if needBetaPrime && o.BetaPrime == nil {
			b.Fatal("β′ not assembled")
		}
	}
}

// BenchmarkFigure1CriticalStepS1 regenerates Figure 1: T1's solo run,
// prefix probes by T3, and the location of s1 with Claims 1–2 checked.
func BenchmarkFigure1CriticalStepS1(b *testing.B) {
	benchAdversary(b, pcl.DepthS1, true, false, false, false)
}

// BenchmarkFigure2CriticalStepS2 regenerates Figure 2: the s2 search from
// configuration C1⁻.
func BenchmarkFigure2CriticalStepS2(b *testing.B) {
	benchAdversary(b, pcl.DepthS2, true, true, false, false)
}

// BenchmarkFigure3ExecutionBeta regenerates Figure 3: assembling
// β = α1·α2·s1·α3·α4·s2·α7 (with the Claim 3 and δ2 probes).
func BenchmarkFigure3ExecutionBeta(b *testing.B) {
	benchAdversary(b, pcl.DepthBeta, true, true, true, false)
}

// BenchmarkFigure4ExecutionBetaPrime regenerates Figure 4: assembling
// β′ = α1·α2·s2·α5·α6·s1·α′7 and the p7 indistinguishability comparison.
func BenchmarkFigure4ExecutionBetaPrime(b *testing.B) {
	benchAdversary(b, pcl.DepthFull, true, true, true, true)
}

// BenchmarkFigure5ValuesBeta measures the Figure 5 work in isolation: the
// exhaustive weak-adaptive-consistency certification of the assembled β.
func BenchmarkFigure5ValuesBeta(b *testing.B) {
	proto := mustProto(b, "naive")
	o := pcl.NewAdversary(proto).RunTo(pcl.DepthBeta)
	if o.Beta == nil {
		b.Fatal("β not assembled")
	}
	v := history.FromExecution(o.Beta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := consistency.WeakAdaptiveConsistent(v)
		if res.Satisfied {
			b.Fatal("β unexpectedly WAC-consistent")
		}
	}
}

// BenchmarkFigure6ValuesBetaPrime certifies β′ (Figure 6).
func BenchmarkFigure6ValuesBetaPrime(b *testing.B) {
	proto := mustProto(b, "naive")
	o := pcl.NewAdversary(proto).RunTo(pcl.DepthFull)
	if o.BetaPrime == nil {
		b.Fatal("β′ not assembled")
	}
	v := history.FromExecution(o.BetaPrime)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := consistency.WeakAdaptiveConsistent(v)
		if res.Satisfied {
			b.Fatal("β′ unexpectedly WAC-consistent")
		}
	}
}

// BenchmarkTheoremVerdictMatrix regenerates the Theorem 4.1 matrix: the
// whole portfolio through the whole construction.
func BenchmarkTheoremVerdictMatrix(b *testing.B) {
	protos := registry.Protocols()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range protos {
			o := pcl.NewAdversary(p).Run()
			if o.Verdict == nil {
				b.Fatalf("%s survived the construction", p.Name())
			}
		}
	}
}

// BenchmarkAdversaryPerProtocol times one matrix row per sub-benchmark,
// showing how far each protocol gets before failing (early liveness
// failures are cheap; walking the whole construction plus the WAC
// certification is the expensive case).
func BenchmarkAdversaryPerProtocol(b *testing.B) {
	for _, p := range registry.Protocols() {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := pcl.NewAdversary(p).Run()
				if o.Verdict == nil {
					b.Fatalf("%s survived the construction", p.Name())
				}
			}
		})
	}
}

// ---- E1: production engines under real parallelism ----

func benchEngine(b *testing.B, kind stm.EngineKind, pattern workload.Pattern) {
	const vars = 256
	eng := stm.NewEngine(kind)
	tvs := make([]*stm.TVar[int64], vars)
	for i := range tvs {
		tvs[i] = stm.NewTVar[int64](0)
	}
	var workerIDs atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		worker := int(workerIDs.Add(1)) - 1
		span := vars / 8
		base := (worker * span) % vars
		n := 0
		for pb.Next() {
			n++
			_ = eng.Atomically(func(tx *stm.Tx) error {
				pick := func(i int) *stm.TVar[int64] {
					switch pattern {
					case workload.Disjoint:
						return tvs[base+(n*7+i*13)%span]
					case workload.Zipf:
						return tvs[(n*7+i*13)%16] // 16 hot variables
					case workload.PhaseShift:
						// Alternate 256-transaction blocks between the
						// disjoint partition and a tiny hot set, so the
						// contention regime keeps flipping mid-run.
						if (n>>8)&1 == 0 {
							return tvs[base+(n*7+i*13)%span]
						}
						return tvs[(n*7+i*13)%4]
					case workload.RateLimit:
						// The admission-control shape: disjoint reads, but
						// every transaction's write funnels through one
						// shared variable — the token bucket's footprint.
						if i < 2 {
							return tvs[base+(n*7+i*13)%span]
						}
						return tvs[0]
					default:
						return tvs[(n*7+i*13)%vars]
					}
				}
				acc := stm.Get(tx, pick(0)) + stm.Get(tx, pick(1))
				tv := pick(2)
				stm.Set(tx, tv, stm.Get(tx, tv)+acc+1)
				return nil
			})
		}
	})
	b.StopTimer()
	st := eng.Stats()
	if st.Commits > 0 {
		b.ReportMetric(float64(st.Retries)/float64(st.Commits), "retries/commit")
	}
}

// BenchmarkE1Engines sweeps engine × contention pattern (experiment E1).
// The engine and pattern lists come from the shared registry, so a newly
// registered engine joins the sweep automatically.
func BenchmarkE1Engines(b *testing.B) {
	for _, kind := range registry.Engines() {
		for _, pat := range registry.Patterns() {
			b.Run(fmt.Sprintf("%s/%s", kind, pat), func(b *testing.B) {
				benchEngine(b, kind, pat)
			})
		}
	}
}

// BenchmarkE1LongReadOnlyScans measures the workload snapshot isolation
// was invented for (paper §2): a long read-only scan racing concurrent
// writers; the reported retries/scan metric is the price each
// concurrency control charges long readers.
func BenchmarkE1LongReadOnlyScans(b *testing.B) {
	for _, kind := range registry.Engines() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			res := workload.RunScan(kind, workload.ScanConfig{
				Vars: 512, Writers: 2, Scans: b.N, Seed: 1,
			})
			if !res.Consistent {
				b.Fatal("torn scan observed")
			}
			b.ReportMetric(float64(res.ScanRetries)/float64(b.N), "retries/scan")
		})
	}
}

// BenchmarkE1ValueKinds sweeps engine × payload value kind (experiment
// E6): int, string and struct payloads ride the raw-word value
// representation and owe zero allocations per transaction; any is the
// boxed fallback and pays one box per Set. The workload-allocs/op metric
// (workload.Result's runtime-counted average) makes the gap visible next
// to ns/op whatever the harness overhead.
func BenchmarkE1ValueKinds(b *testing.B) {
	for _, kind := range registry.Engines() {
		for _, vk := range registry.ValueKinds() {
			b.Run(fmt.Sprintf("%s/%s", kind, vk), func(b *testing.B) {
				b.ReportAllocs()
				const workers = 4
				cfg := workload.Config{
					Vars: 256, Workers: workers, OpsPerWorker: b.N/workers + 1,
					Pattern: workload.Uniform, Values: vk, Seed: 1,
				}
				res := workload.Run(kind, cfg)
				if res.Sum != cfg.ExpectedSum() {
					b.Fatalf("sum invariant broken: %d != %d", res.Sum, cfg.ExpectedSum())
				}
				b.ReportMetric(res.AllocsPerOp, "workload-allocs/op")
			})
		}
	}
}

// ---- E3: contention ramp — where the adaptive engine switches ----

// benchRamp drives one engine with fixed-size transactions whose write
// share is the swept knob: opsPerTx operations over a small hot set,
// `writes` of them read-modify-write increments, the rest plain reads.
// As the write fraction ramps up, speculation's retries grow while
// locking's convoying stays flat — the crossover the adaptive engine is
// supposed to find on its own.
func benchRamp(b *testing.B, kind stm.EngineKind, writes int) {
	const hot = 8
	const opsPerTx = 8
	eng := stm.NewEngine(kind)
	tvs := make([]*stm.TVar[int64], hot)
	for i := range tvs {
		tvs[i] = stm.NewTVar[int64](0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := 0
		for pb.Next() {
			n++
			_ = eng.Atomically(func(tx *stm.Tx) error {
				var acc int64
				for i := 0; i < opsPerTx-writes; i++ {
					acc += stm.Get(tx, tvs[(n*7+i*13)%hot])
				}
				for i := 0; i < writes; i++ {
					tv := tvs[(n*11+i*17)%hot]
					stm.Set(tx, tv, stm.Get(tx, tv)+1)
				}
				_ = acc
				return nil
			})
		}
	})
	b.StopTimer()
	st := eng.Stats()
	if st.Commits > 0 {
		b.ReportMetric(float64(st.Retries)/float64(st.Commits), "retries/commit")
	}
	if as, ok := eng.AdaptiveStats(); ok {
		b.ReportMetric(float64(as.Switches), "switches")
	}
}

// BenchmarkE3ContentionRamp sweeps the write fraction of a hot-set
// workload across the three engines on the adaptive ladder plus the
// adaptive engine itself (experiment E3 of EXPERIMENTS.md). Read the
// rows by column: at low write fractions tl2s should win, at high ones
// twopl, and adaptive should track whichever wins its regime (its
// switches metric shows the policy firing).
func BenchmarkE3ContentionRamp(b *testing.B) {
	engines := []stm.EngineKind{
		stm.EngineTL2Striped, stm.EngineTwoPL, stm.EngineGlobalLock, stm.EngineAdaptive,
	}
	for _, writes := range []int{0, 1, 2, 4, 8} {
		for _, kind := range engines {
			b.Run(fmt.Sprintf("writes=%d of 8/%s", writes, kind), func(b *testing.B) {
				benchRamp(b, kind, writes)
			})
		}
	}
}

// ---- E2: decision-procedure cost of the consistency conditions ----

// sequentialExecution builds a legal m-transaction sequential execution
// (worst case for the checkers: a witness exists, so the search must find
// it rather than fail fast).
func sequentialExecution(m int) *core.Execution {
	bld := exectest.New()
	last := map[core.Item]core.Value{}
	items := []core.Item{"x", "y", "z"}
	for i := 0; i < m; i++ {
		tx := core.TxID(i + 1)
		p := core.ProcID(i % 4)
		rd := items[i%len(items)]
		wr := items[(i+1)%len(items)]
		bld.SeqTxn(p, tx,
			exectest.RV(rd, last[rd]),
			exectest.WV(wr, core.Value(i+1)),
		)
		last[wr] = core.Value(i + 1)
	}
	return bld.Exec()
}

func benchChecker(b *testing.B, m int, name string, check func(*history.View) consistency.Result) {
	v := history.FromExecution(sequentialExecution(m))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := check(v)
		if !res.Satisfied {
			b.Fatalf("%s rejected a legal sequential execution", name)
		}
	}
}

// BenchmarkE2Checkers sweeps checker × history size (experiment E2): the
// weaker the condition, the more it admits and the more the exhaustive
// search costs.
func BenchmarkE2Checkers(b *testing.B) {
	for _, m := range []int{2, 4, 6} {
		for _, c := range consistency.Checkers() {
			c := c
			b.Run(fmt.Sprintf("%s/txns=%d", c.Name, m), func(b *testing.B) {
				benchChecker(b, m, c.Name, c.Check)
			})
		}
	}
}

// BenchmarkE9Certify sweeps condition × history size on the polynomial
// certifier (experiment E9): the second checker tier's cost on honest
// overlapping-interval histories orders of magnitude past what the
// exhaustive E2 tier can touch. The per-iteration work scales with the
// history, so compare ns/op across sizes for the growth curve.
func BenchmarkE9Certify(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		h := certify.Synth(n, 64, 8, 1)
		for _, cond := range certify.Conditions() {
			b.Run(fmt.Sprintf("%s/txns=%d", cond, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rep := certify.Check(h, cond)
					if rep.Verdict != certify.Certified {
						b.Fatalf("synthetic history not certified: %s", rep)
					}
				}
			})
		}
	}
}

// BenchmarkE10Durability sweeps the durable store's acknowledgement
// modes (experiment E10): the same keyed store workload, paying for a
// commit log at three contracts — sync (one fsync per commit), group
// (one fsync per concurrent batch), async (acknowledge before the
// fsync). The in-memory backend isolates the protocol's cost from the
// disk's; cmd/tmbench -mode wal -wal-dir adds the disk.
func BenchmarkE10Durability(b *testing.B) {
	for _, ack := range wal.AckModes() {
		for _, workers := range []int{2, 8} {
			b.Run(fmt.Sprintf("ack=%s/w=%d", ack, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := workload.RunDurableStore(stm.EngineTL2, workload.DurableStoreConfig{
						StoreConfig: workload.StoreConfig{
							Keys: 256, Partitions: 4, Workers: workers, OpsPerWorker: 400,
						},
						Ack: ack,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Sum != res.Writes {
						b.Fatalf("sum invariant broken: %d != %d writes", res.Sum, res.Writes)
					}
				}
			})
		}
	}
}

// BenchmarkE14CrossFootprint prices one durable two-partition transfer
// on a four-partition store (in-memory log, group ack) by how the
// transaction learns its footprint (experiment E14): declared by the
// caller (store.CrossOn — the body runs once), discovered by a first run
// under no locks (store.Cross — twice), or every partition declared
// (store.CrossSweep — once, under the whole store's locks). One caller,
// so the locks are uncontended and the difference is the discovery run
// and the two extra lock pairs.
func BenchmarkE14CrossFootprint(b *testing.B) {
	s, _, err := store.OpenDurable(store.DurableConfig[int64, int64]{
		Store:   store.Config{Partitions: 4, Buckets: 64},
		Backend: wal.NewMemBackend(),
		Codec:   store.Int64Codec(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.CloseWAL()
	from, to := int64(1), int64(2)
	for s.PartitionOf(to) == s.PartitionOf(from) {
		to++
	}
	parts := []int{s.PartitionOf(from), s.PartitionOf(to)}
	transfer := func(ct *store.CrossTx[int64, int64]) error {
		a, _ := ct.Get(from)
		ct.Put(from, a-1)
		c, _ := ct.Get(to)
		ct.Put(to, c+1)
		return nil
	}
	for _, path := range []struct {
		name string
		run  func() error
	}{
		{"declared", func() error { return s.CrossOn(parts, transfer) }},
		{"discovered", func() error { return s.Cross(transfer) }},
		{"sweep", func() error { return s.CrossSweep(transfer) }},
	} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := path.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- machine substrate ----

// BenchmarkMachineSteps measures the raw cost of the deterministic
// machine's scheduler handshake (steps per second of a solo run).
func BenchmarkMachineSteps(b *testing.B) {
	proto := mustProto(b, "naive")
	specs := workload.DisjointSpecs(1, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bundle := &stms.Bundle{Protocol: proto, Specs: specs}
		m := bundle.Build()
		if _, err := m.RunUntilDone(0, 1<<16); err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}
