// Command tmbench measures the P/C/L tradeoff empirically.
//
// Real mode (-mode real, default) drives the production stm/ engines with
// goroutine workloads and prints throughput, aborts and retries — conflict
// retries only: an attempt parked in stm.Retry is a wait (stm.Stats.Waits)
// and is not in that column — across contention patterns and worker counts — the E1 experiment of
// EXPERIMENTS.md: disjoint workloads reward parallelism-friendly designs,
// contended workloads surface the consistency price. With -json FILE the
// same results are also written as machine-readable JSON (the BENCH_*.json
// files of the perf trajectory; "-" writes to stdout).
//
// Sim mode (-mode sim) runs the simulated protocol portfolio on static
// transaction sets over the deterministic machine and reports step
// counts, base-object contentions and strict-DAP violations — the
// machine-level view of the same tradeoff.
//
// Structure modes (-mode map, -mode store) are the E7 experiment: keyed
// get/increment traffic against the transactional map (tstructs.TMap on
// one engine) or the partitioned store (store.Store, one engine instance
// per partition), swept over key skew (uniform = disjoint-dominated,
// zipf = hot-key contention) and — for the store — partition counts, so
// one run records the partitions-vs-throughput curve.
//
// Wal mode (-mode wal) is the E10 experiment: the same store workload
// over a durable store (internal/wal commit log), swept across
// acknowledgement modes (-ack sync,group,async) — what the durability
// contract costs, and how much group commit buys back. -wal-dir runs
// the log on real files with real fsync; the default in-memory backend
// prices the protocol alone.
//
// Engines, patterns, skews and protocols are enumerated through
// internal/registry, so a newly registered engine appears in the sweep
// without touching this file.
//
// Usage:
//
//	tmbench [-mode real|sim|map|store|wal|certify] [-workers 1,2,4,8] [-ops 2000] [-vars 256]
//	        [-engine tl2,tl2s,twopl,glock,adaptive]
//	        [-pattern disjoint,uniform,zipf,phase,ratelimit]
//	        [-values int,string,struct,any] [-keys 1024] [-partitions 1,2,4]
//	        [-skew uniform,zipf] [-ack sync,group,async] [-wal-dir DIR]
//	        [-wal-window 200us] [-cross-frac 0,10,30] [-cross-path scoped,sweep]
//	        [-orec-shards N] [-json results.json] [-txns 6]
//
// -values selects the payload kind(s) each transaction carries (the
// value-representation dimension: int/string/struct ride the engines'
// raw-word path, any is the boxed fallback); the default sweeps only
// int, so trajectory comparisons against pre-value-kind baselines stay
// cell-compatible. -keys, -partitions and -skew shape the structure
// modes only.
//
// The adaptive engine's rows carry an extra per-regime breakdown (which
// delegate ran, how many switches) both in the table and in the JSON.
//
// Every JSON record is stamped with the producing machine's runner
// class ($BENCH_RUNNER_CLASS, or "local") and CPU shape, so benchdiff
// can refuse blocking verdicts across runner classes.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"pcltm/internal/benchfmt"
	"pcltm/internal/certify"
	"pcltm/internal/core"
	"pcltm/internal/dap"
	"pcltm/internal/registry"
	"pcltm/internal/stms"
	"pcltm/internal/wal"
	"pcltm/internal/workload"
	"pcltm/stm"
)

func main() {
	mode := flag.String("mode", "real", "real (stm/ engines) or sim (machine protocols)")
	workersFlag := flag.String("workers", "1,2,4,8", "comma-separated worker counts (real mode)")
	ops := flag.Int("ops", 2000, "transactions per worker (real mode)")
	vars := flag.Int("vars", 256, "number of transactional variables (real mode)")
	enginesFlag := flag.String("engine", strings.Join(registry.EngineNames(), ","),
		"comma-separated engines to sweep (real mode)")
	patternsFlag := flag.String("pattern", strings.Join(registry.PatternNames(), ","),
		"contention patterns (real mode)")
	valuesFlag := flag.String("values", "int",
		"payload value kinds to sweep: int,string,struct,any (real mode)")
	jsonPath := flag.String("json", "", "also write real-mode results as JSON to this file (\"-\" = stdout)")
	keys := flag.Int("keys", 1024, "keyspace size (map/store modes)")
	partitionsFlag := flag.String("partitions", "1,2,4", "comma-separated partition counts (store mode)")
	skewFlag := flag.String("skew", strings.Join(registry.SkewNames(), ","),
		"key distributions to sweep: uniform,zipf (map/store modes)")
	acksFlag := flag.String("ack", "sync,group,async", "wal acknowledgement modes to sweep (wal mode)")
	walDir := flag.String("wal-dir", "", "run the commit log on files under this directory (wal mode; empty = in-memory backend)")
	walWindow := flag.Duration("wal-window", 0, "group-commit batch window: fsync at most every this often (wal mode; 0 = fsync as soon as the queue drains)")
	crossFracFlag := flag.String("cross-frac", "0", "comma-separated percentages of ops that are two-key cross-partition transfers (store/wal modes)")
	crossPathFlag := flag.String("cross-path", "scoped", "cross-commit paths to sweep: scoped (footprint locking) and/or sweep (whole-store) (store/wal modes)")
	orecShards := flag.Int("orec-shards", 0, "ownership-record table size for twopl-based engines (0 = default, rounded up to a power of two)")
	txns := flag.Int("txns", 6, "transactions per workload (sim mode)")
	seed := flag.Int64("seed", 1, "workload seed")
	sizesFlag := flag.String("sizes", "1000,10000,100000", "history sizes to certify (certify mode)")
	flag.Parse()

	stm.OrecShards = *orecShards

	switch *mode {
	case "real":
		realMode(parseInts(*workersFlag), *ops, *vars,
			parseEngines(*enginesFlag), parsePatterns(*patternsFlag),
			parseValueKinds(*valuesFlag), *seed, *jsonPath)
	case "map", "store":
		structMode(*mode, parseInts(*workersFlag), parseInts(*partitionsFlag), *ops, *keys,
			parseEngines(*enginesFlag), parseSkews(*skewFlag),
			parseFracs(*crossFracFlag), parseCrossPaths(*crossPathFlag), *seed, *jsonPath)
	case "wal":
		walMode(parseInts(*workersFlag), parseInts(*partitionsFlag), *ops, *keys,
			parseEngines(*enginesFlag), parseAcks(*acksFlag), *walDir, *walWindow,
			parseFracs(*crossFracFlag), parseCrossPaths(*crossPathFlag), *seed, *jsonPath)
	case "certify":
		certifyMode(parseInts(*sizesFlag), *vars, *seed, *jsonPath)
	case "sim":
		if *jsonPath != "" {
			fmt.Fprintln(os.Stderr, "tmbench: -json does not apply to -mode sim")
			os.Exit(2)
		}
		simMode(*txns, *seed)
	default:
		fmt.Fprintf(os.Stderr, "tmbench: unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "tmbench: bad worker count %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func parseEngines(s string) []stm.EngineKind {
	var out []stm.EngineKind
	for _, part := range strings.Split(s, ",") {
		k, err := registry.EngineByName(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmbench: %v\n", err)
			os.Exit(2)
		}
		out = append(out, k)
	}
	return out
}

func parsePatterns(s string) []workload.Pattern {
	var out []workload.Pattern
	for _, part := range strings.Split(s, ",") {
		p, err := registry.PatternByName(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmbench: %v\n", err)
			os.Exit(2)
		}
		out = append(out, p)
	}
	return out
}

func parseValueKinds(s string) []workload.ValueKind {
	var out []workload.ValueKind
	for _, part := range strings.Split(s, ",") {
		k, err := registry.ValueKindByName(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmbench: %v\n", err)
			os.Exit(2)
		}
		out = append(out, k)
	}
	return out
}

func realMode(workers []int, ops, vars int, engines []stm.EngineKind,
	patterns []workload.Pattern, valueKinds []workload.ValueKind,
	seed int64, jsonPath string) {
	var records []benchfmt.Record
	fmt.Println("E1 — production engines under real parallelism")
	fmt.Printf("%-8s %-9s %-7s %-8s %12s %10s %10s %10s %10s %10s\n",
		"engine", "pattern", "values", "workers", "tx/s", "commits", "aborts", "retries", "allocs/op", "B/op")
	for _, pat := range patterns {
		for _, vk := range valueKinds {
			for _, w := range workers {
				for _, kind := range engines {
					cfg := workload.Config{
						Vars: vars, Workers: w, OpsPerWorker: ops,
						Pattern: pat, Values: vk, Seed: seed,
					}
					res := workload.Run(kind, cfg)
					if res.Sum != cfg.ExpectedSum() {
						fmt.Fprintf(os.Stderr, "tmbench: %v/%v sum invariant broken: %d != %d\n",
							kind, pat, res.Sum, cfg.ExpectedSum())
						os.Exit(1)
					}
					fmt.Printf("%-8s %-9s %-7s %-8d %12.0f %10d %10d %10d %10.2f %10.1f\n",
						kind, pat, vk, w, res.Throughput, res.Commits, res.Aborts, res.Retries,
						res.AllocsPerOp, res.BytesPerOp)
					if res.Adaptive != nil {
						printRegimes(res.Adaptive)
					}
					rec := benchfmt.Record{
						Engine: kind.String(), Pattern: pat.String(), Values: vk.String(),
						Workers: w, OpsPerWkr: ops, Vars: vars, Seed: seed,
						ElapsedNS: res.Elapsed.Nanoseconds(), Throughput: res.Throughput,
						Commits: res.Commits, Aborts: res.Aborts, Retries: res.Retries,
						AllocsPerOp: res.AllocsPerOp, BytesPerOp: res.BytesPerOp,
						Adaptive: res.Adaptive,
					}
					benchfmt.StampRunner(&rec)
					records = append(records, rec)
				}
			}
		}
		fmt.Println()
	}
	if jsonPath != "" {
		writeJSON(jsonPath, records)
	}
}

// parseFracs parses comma-separated percentages; unlike parseInts, zero
// is a valid entry (the no-cross baseline cell).
func parseFracs(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 || n > 100 {
			fmt.Fprintf(os.Stderr, "tmbench: bad cross fraction %q (percent, 0..100)\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func parseCrossPaths(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		p := strings.TrimSpace(part)
		if p != "scoped" && p != "sweep" {
			fmt.Fprintf(os.Stderr, "tmbench: unknown cross path %q (scoped or sweep)\n", part)
			os.Exit(2)
		}
		out = append(out, p)
	}
	return out
}

func parseSkews(s string) []workload.Skew {
	var out []workload.Skew
	for _, part := range strings.Split(s, ",") {
		k, err := registry.SkewByName(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmbench: %v\n", err)
			os.Exit(2)
		}
		out = append(out, k)
	}
	return out
}

// structMode is the E7 experiment: keyed get/increment traffic against
// the transactional map ("map": tstructs.TMap on one engine) or the
// partitioned store ("store": one engine instance per partition),
// sweeping engines × skews × workers, and — for the store — partition
// counts, so the partitions-vs-throughput curve of uniform (mostly
// disjoint) traffic is one sweep. With -cross-frac the store cells mix
// in two-key cross-partition transfers routed through the scoped
// footprint commit or the whole-store sweep (-cross-path) — the E11
// dimension.
func structMode(mode string, workers, partitions []int, ops, keys int,
	engines []stm.EngineKind, skews []workload.Skew,
	crossFracs []int, crossPaths []string, seed int64, jsonPath string) {
	var records []benchfmt.Record
	fmt.Printf("E7 — transactional structures under real parallelism (%s)\n", mode)
	fmt.Printf("%-8s %-8s %-6s %-10s %-8s %12s %10s %10s %10s %10s\n",
		"engine", "skew", "parts", "cross", "workers", "tx/s", "commits", "retries", "allocs/op", "B/op")
	if mode == "map" {
		partitions = []int{0}
		crossFracs = []int{0} // the cross dimension is a store experiment
	}
	for _, sk := range skews {
		for _, cf := range crossFracs {
			paths := crossPaths
			if cf == 0 {
				paths = []string{""} // no transfers: the path is moot
			}
			for _, cp := range paths {
				for _, parts := range partitions {
					for _, w := range workers {
						for _, kind := range engines {
							cfg := workload.StoreConfig{
								Keys: keys, Partitions: parts, Workers: w,
								OpsPerWorker: ops, Skew: sk, Seed: seed,
								CrossFrac: cf, CrossSweep: cp == "sweep",
							}
							var res workload.StoreResult
							if mode == "map" {
								res = workload.RunMap(kind, cfg)
							} else {
								res = workload.RunStore(kind, cfg)
							}
							if res.Sum != res.Writes {
								fmt.Fprintf(os.Stderr, "tmbench: %v/%v sum invariant broken: %d != %d writes\n",
									kind, sk, res.Sum, res.Writes)
								os.Exit(1)
							}
							partsLabel := res.Config.Partitions
							if mode == "map" {
								partsLabel = 0
							}
							crossLabel := "-"
							if cf > 0 {
								crossLabel = fmt.Sprintf("%d%%/%s", cf, cp)
							}
							fmt.Printf("%-8s %-8s %-6d %-10s %-8d %12.0f %10d %10d %10.2f %10.1f\n",
								kind, sk, partsLabel, crossLabel, w, res.Throughput, res.Commits,
								res.Retries, res.AllocsPerOp, res.BytesPerOp)
							rec := benchfmt.Record{
								Engine: kind.String(), Pattern: "keyed", Workers: w,
								OpsPerWkr: ops, Vars: keys, Seed: seed,
								ElapsedNS: res.Elapsed.Nanoseconds(), Throughput: res.Throughput,
								Commits: res.Commits, Aborts: res.Aborts, Retries: res.Retries,
								AllocsPerOp: res.AllocsPerOp, BytesPerOp: res.BytesPerOp,
								Structure: "tmap", Skew: sk.String(),
							}
							if mode == "store" {
								rec.Structure = "store"
								rec.Partitions = res.Config.Partitions
								if cf > 0 {
									rec.CrossFrac = cf
									rec.CrossPath = cp
								}
							}
							benchfmt.StampRunner(&rec)
							records = append(records, rec)
						}
					}
				}
			}
		}
		fmt.Println()
	}
	if jsonPath != "" {
		writeJSON(jsonPath, records)
	}
}

func parseAcks(s string) []wal.AckMode {
	var out []wal.AckMode
	for _, part := range strings.Split(s, ",") {
		m, ok := wal.AckByName(strings.TrimSpace(part))
		if !ok {
			fmt.Fprintf(os.Stderr, "tmbench: unknown ack mode %q (sync, group or async)\n", part)
			os.Exit(2)
		}
		out = append(out, m)
	}
	return out
}

// walMode is the E10 experiment: the E7 store workload over a durable
// store, sweeping acknowledgement modes so one run prices the
// durability contract — and what group commit buys back at each worker
// count. Cells carry the wal_ack/wal_backend stamps (and wal_window_us
// when -wal-window widens the batch window); benchdiff keys on them, so
// durability cells never compare against non-durable baselines.
// -cross-frac mixes in durable cross-partition transfers, which pay the
// decision-record protocol on top of the payload appends.
func walMode(workers, partitions []int, ops, keys int, engines []stm.EngineKind,
	acks []wal.AckMode, dir string, window time.Duration,
	crossFracs []int, crossPaths []string, seed int64, jsonPath string) {
	var records []benchfmt.Record
	backendName := "mem"
	if dir != "" {
		backendName = "file"
	}
	fmt.Printf("E10 — group-commit cost of durability (backend %s, window %s)\n", backendName, window)
	fmt.Printf("%-8s %-6s %-6s %-10s %-8s %12s %10s %10s %10s %12s\n",
		"engine", "ack", "parts", "cross", "workers", "tx/s", "commits", "appends", "fsyncs", "commits/sync")
	for _, ack := range acks {
		for _, cf := range crossFracs {
			paths := crossPaths
			if cf == 0 {
				paths = []string{""}
			}
			for _, cp := range paths {
				for _, parts := range partitions {
					for _, w := range workers {
						for _, kind := range engines {
							cfg := workload.DurableStoreConfig{
								StoreConfig: workload.StoreConfig{
									Keys: keys, Partitions: parts, Workers: w,
									OpsPerWorker: ops, Seed: seed,
									CrossFrac: cf, CrossSweep: cp == "sweep",
								},
								Ack:    ack,
								Window: window,
							}
							if dir != "" {
								cfg.Dir = fmt.Sprintf("%s/e10-%s-%s-p%d-w%d-x%d%s", dir, kind, ack, parts, w, cf, cp)
							}
							res, err := workload.RunDurableStore(kind, cfg)
							if err != nil {
								fmt.Fprintf(os.Stderr, "tmbench: %v\n", err)
								os.Exit(1)
							}
							if res.Sum != res.Writes {
								fmt.Fprintf(os.Stderr, "tmbench: %v/%v sum invariant broken: %d != %d writes\n",
									kind, ack, res.Sum, res.Writes)
								os.Exit(1)
							}
							var appends, syncs uint64
							perSync := 0.0
							if res.Wal != nil {
								appends, syncs = res.Wal.Appends, res.Wal.Syncs
								if syncs > 0 {
									perSync = float64(appends) / float64(syncs)
								}
							}
							crossLabel := "-"
							if cf > 0 {
								crossLabel = fmt.Sprintf("%d%%/%s", cf, cp)
							}
							fmt.Printf("%-8s %-6s %-6d %-10s %-8d %12.0f %10d %10d %10d %12.2f\n",
								kind, ack, res.Config.Partitions, crossLabel, w, res.Throughput,
								res.Commits, appends, syncs, perSync)
							rec := benchfmt.Record{
								Engine: kind.String(), Pattern: "keyed", Workers: w,
								OpsPerWkr: ops, Vars: keys, Seed: seed,
								ElapsedNS: res.Elapsed.Nanoseconds(), Throughput: res.Throughput,
								Commits: res.Commits, Aborts: res.Aborts, Retries: res.Retries,
								AllocsPerOp: res.AllocsPerOp, BytesPerOp: res.BytesPerOp,
								Structure: "store", Partitions: res.Config.Partitions,
								Skew:   res.Config.Skew.String(),
								WalAck: res.WalAck, WalBackend: res.WalBackend,
								WalWindowUS: window.Microseconds(),
							}
							if cf > 0 {
								rec.CrossFrac = cf
								rec.CrossPath = cp
							}
							benchfmt.StampRunner(&rec)
							records = append(records, rec)
						}
					}
				}
			}
		}
		fmt.Println()
	}
	if jsonPath != "" {
		writeJSON(jsonPath, records)
	}
}

// certifyMode is the E9 experiment: the polynomial certifier's cost
// against history size, on the honest path (certify.Synth generates
// deterministic overlapping-interval read-modify-write histories that
// certify by construction; a non-Certified verdict fails the run). The
// history size rides in the pattern label, so every (condition, size)
// pair is its own benchdiff cell.
func certifyMode(sizes []int, items int, seed int64, jsonPath string) {
	var records []benchfmt.Record
	fmt.Println("E9 — polynomial certification cost vs history size")
	fmt.Printf("%-24s %-10s %14s %14s %s\n", "condition", "txns", "elapsed", "txns/s", "method")
	for _, n := range sizes {
		h := certify.Synth(n, items, 8, seed)
		for _, cond := range certify.Conditions() {
			rep := certify.Check(h, cond)
			if rep.Verdict != certify.Certified {
				fmt.Fprintf(os.Stderr, "tmbench: synthetic E9 history not certified: %s\n", rep)
				os.Exit(1)
			}
			tput := float64(n) / rep.Elapsed.Seconds()
			fmt.Printf("%-24s %-10d %14s %14.0f %s\n",
				cond, n, rep.Elapsed.Round(time.Microsecond), tput, rep.Method)
			rec := benchfmt.Record{
				Engine: cond, Pattern: fmt.Sprintf("synthetic-%d", n),
				Vars: items, Seed: seed, Structure: "certify",
				ElapsedNS: rep.Elapsed.Nanoseconds(), Throughput: tput,
				Commits: uint64(rep.Com),
			}
			benchfmt.StampRunner(&rec)
			records = append(records, rec)
		}
		fmt.Println()
	}
	if jsonPath != "" {
		writeJSON(jsonPath, records)
	}
}

// printRegimes renders the adaptive engine's per-regime breakdown under
// its result row: which delegate finished the run, how many switches it
// took, and each delegate's share of the work.
func printRegimes(as *stm.AdaptiveStats) {
	fmt.Printf("%-8s   regimes: current=%s switches=%d\n", "", as.Current, as.Switches)
	for _, r := range as.Regimes {
		if r.Commits == 0 && r.Conflicts == 0 && r.Windows == 0 {
			continue
		}
		fmt.Printf("%-8s     %-6s %10d commits %10d conflicts %10d lock-fails %6d windows\n",
			"", r.Engine, r.Commits, r.Conflicts, r.LockFails, r.Windows)
	}
}

func writeJSON(path string, records []benchfmt.Record) {
	if err := benchfmt.WriteJSON(path, records); err != nil {
		fmt.Fprintf(os.Stderr, "tmbench: %v\n", err)
		os.Exit(1)
	}
}

// simWorkloads names the static transaction sets of sim mode.
func simWorkloads(txns int, seed int64) map[string][]core.TxSpec {
	return map[string][]core.TxSpec{
		"disjoint": workload.DisjointSpecs(txns, 2),
		"chain":    workload.ChainSpecs(txns),
		"star":     workload.StarSpecs(txns),
		"random":   workload.RandomSpecs(txns, txns*2, 4, seed),
	}
}

func simMode(txns int, seed int64) {
	fmt.Println("machine-level accounting — simulated protocols on static workloads")
	fmt.Printf("%-10s %-9s %8s %10s %12s %12s %9s\n",
		"protocol", "workload", "steps", "commits", "contentions", "strict-DAP", "blocked")
	for _, name := range []string{"disjoint", "chain", "star", "random"} {
		specs := simWorkloads(txns, seed)[name]
		for _, proto := range registry.Protocols() {
			b := &stms.Bundle{Protocol: proto, Specs: specs}
			exec, blocked := fairRun(b, len(specs), seed)
			commits := 0
			for _, s := range specs {
				if exec.StatusOf(s.ID) == core.TxCommitted {
					commits++
				}
			}
			fmt.Printf("%-10s %-9s %8d %10d %12d %12d %9v\n",
				proto.Name(), name, len(exec.Steps), commits,
				len(dap.Contentions(exec)), len(dap.CheckStrict(exec)), blocked)
		}
		fmt.Println()
	}
}

// fairRun interleaves all processes with a seeded random fair scheduler.
func fairRun(b *stms.Bundle, nprocs int, seed int64) (*core.Execution, bool) {
	m := b.Build()
	defer m.Close()
	r := rand.New(rand.NewSource(seed))
	const budget = 1 << 18
	for steps := 0; steps < budget; steps++ {
		var live []core.ProcID
		for p := 0; p < nprocs; p++ {
			if !m.Done(core.ProcID(p)) {
				live = append(live, core.ProcID(p))
			}
		}
		if len(live) == 0 {
			return m.Execution(), false
		}
		if _, err := m.Step(live[r.Intn(len(live))]); err != nil {
			break
		}
	}
	return m.Execution(), true
}
