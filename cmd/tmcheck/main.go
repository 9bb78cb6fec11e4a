// Command tmcheck runs the consistency and disjoint-access-parallelism
// analyses on a recorded execution trace (the JSON format of
// internal/trace), or — with -live — records fresh histories from the
// production stm/ engines and runs the same checkers on them.
//
// Usage:
//
//	tmcheck [-check all|<name>] [-dap] trace.json
//	tmcheck -certify trace.json  # polynomial certifier instead of the exhaustive checkers
//	tmcheck -recover DIR         # judge a durable commit log offline
//	tmcheck -demo [protocol]     # generate a demo trace on stdout
//	tmcheck -live [-episodes N] [-seed S] [-engine tl2,...] [-pattern disjoint,...] [-dump DIR]
//
// Recover mode is the offline judge for a durable store's commit log
// (internal/wal, written by tmserve -wal): it scans DIR read-only,
// reports what recovery would do — per-partition horizons, torn tails
// truncated, records dropped past gaps, clean or crashed shutdown —
// replays the surviving prefix into a fresh recorded store, and runs
// the polynomial certifier over each partition's replay history. A
// corrupt log (mid-log checksum mismatch, duplicate sequence number,
// structural damage) is refused with the witness. Exit status: 0 log
// accepted and every partition certified, 1 refused or violated, 3
// accepted but some partition undecided.
//
// Certify mode runs the polynomial consistency certifier
// (internal/certify) on the trace: it scales to load-test-sized
// histories the exhaustive checkers cannot touch, answering Certified,
// Violated (with a witness) or Unknown per condition. Exit status: 0
// all certified, 1 any violated, 3 none violated but some unknown.
//
// Live mode is the conformance harness (internal/conformance) from the
// CLI: every selected engine runs seeded concurrent episodes across the
// selected contention patterns, each recorded history is checked against
// the engine's required conditions, and any violation is dumped in the
// paper's x:v notation with a non-zero exit. With -dump DIR every
// violating history is additionally written to DIR as a trace JSON
// file, replayable through either checking mode.
//
// The known checkers, simulated protocols and production engines are
// enumerated at runtime (run tmcheck -h); nothing here maintains a list
// by hand.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pcltm/internal/certify"
	"pcltm/internal/conformance"
	"pcltm/internal/consistency"
	"pcltm/internal/core"
	"pcltm/internal/dap"
	"pcltm/internal/history"
	"pcltm/internal/machine"
	"pcltm/internal/registry"
	"pcltm/internal/stms"
	"pcltm/internal/trace"
	"pcltm/internal/wal"
	"pcltm/stm"
	"pcltm/store"
)

// checkerNames enumerates the consistency checkers at runtime.
func checkerNames() []string {
	cs := consistency.Checkers()
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	return names
}

func main() {
	check := flag.String("check", "all", "checker name or 'all'")
	dapFlag := flag.Bool("dap", true, "also run the disjoint-access-parallelism analysis")
	certifyFlag := flag.Bool("certify", false, "run the polynomial certifier on the trace instead of the exhaustive checkers")
	demo := flag.Bool("demo", false, "emit a demo trace (optionally: protocol name as arg) and exit")
	live := flag.Bool("live", false, "run conformance against the real stm/ engines instead of a trace")
	episodes := flag.Int("episodes", 8, "episodes per engine × pattern cell (live mode)")
	seed := flag.Int64("seed", 1, "sweep seed; episode shapes and op plans derive from it (live mode)")
	enginesFlag := flag.String("engine", "", "comma-separated engines to sweep (live mode; default all)")
	patternsFlag := flag.String("pattern", "", "comma-separated contention patterns (live mode; default all)")
	dumpDir := flag.String("dump", "", "directory for violating histories as trace JSON (live mode)")
	recoverDir := flag.String("recover", "", "durable commit log directory to judge offline")
	flag.Usage = func() {
		o := flag.CommandLine.Output()
		fmt.Fprintln(o, "usage: tmcheck [-check all|<name>] [-dap] trace.json")
		fmt.Fprintln(o, "       tmcheck -certify trace.json")
		fmt.Fprintln(o, "       tmcheck -recover DIR")
		fmt.Fprintln(o, "       tmcheck -demo [protocol]")
		fmt.Fprintln(o, "       tmcheck -live [-episodes N] [-seed S] [-engine tl2,...] [-pattern disjoint,...] [-dump DIR]")
		fmt.Fprintln(o)
		flag.PrintDefaults()
		// Everything below comes from the registries, so a newly added
		// checker, protocol or engine shows up here without edits.
		fmt.Fprintf(o, "\ncheckers:  %s\n", strings.Join(checkerNames(), ", "))
		fmt.Fprintf(o, "protocols: %s\n", strings.Join(registry.ProtocolNames(), ", "))
		fmt.Fprintf(o, "engines:   %s (production stm/ engines; traces come from the simulated protocols, -live records the engines directly)\n",
			strings.Join(registry.EngineNames(), ", "))
		fmt.Fprintf(o, "patterns:  %s (live mode contention shapes)\n",
			strings.Join(registry.PatternNames(), ", "))
	}
	flag.Parse()

	if *demo {
		emitDemo(flag.Arg(0))
		return
	}
	if *live {
		runLive(*episodes, *seed, *enginesFlag, *patternsFlag, *dumpDir)
		return
	}
	if *recoverDir != "" {
		runRecover(*recoverDir)
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmcheck: %v\n", err)
		os.Exit(1)
	}
	exec, meta, err := trace.DecodeFile(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmcheck: %v\n", err)
		os.Exit(1)
	}
	if meta != nil {
		fmt.Printf("trace: source=%s engine=%s partitions=%d\n", meta.Source, meta.Engine, meta.Partitions)
	}
	if *certifyFlag {
		runCertify(exec, *check)
		return
	}

	if werr := history.CheckWellFormed(exec); werr != nil {
		fmt.Printf("history: NOT well-formed: %v\n", werr)
	} else {
		fmt.Println("history: well-formed")
	}

	v := history.FromExecution(exec)
	fmt.Printf("transactions: %d (%d committed, %d commit-pending)\n",
		len(v.Txns), len(v.Committed()), len(v.CommitPending()))

	ran := false
	for _, c := range consistency.Checkers() {
		if *check != "all" && c.Name != *check {
			continue
		}
		ran = true
		res := c.Check(v)
		verdict := "SATISFIED"
		if !res.Satisfied {
			verdict = "VIOLATED"
			if res.Exhausted {
				verdict = "INCONCLUSIVE (search budget exhausted)"
			}
		}
		fmt.Printf("%-26s %-10s (%d configs, %d nodes)\n", c.Name, verdict, res.Configs, res.Nodes)
		if res.Satisfied && res.Witness != nil {
			fmt.Printf("    witness: %s\n", res.Witness)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "tmcheck: unknown checker %q\n", *check)
		os.Exit(2)
	}

	if *dapFlag {
		strict := dap.CheckStrict(exec)
		chain := dap.CheckChain(exec)
		fmt.Printf("strict disjoint-access-parallelism: %d violation(s)\n", len(strict))
		for _, viol := range strict {
			fmt.Printf("    %s\n", viol)
		}
		fmt.Printf("chain disjoint-access-parallelism:  %d violation(s)\n", len(chain))
	}
}

// runCertify judges the trace with the polynomial certifier: per
// condition one line — verdict, method and cost — plus the violation
// witness when there is one. Exit codes: 0 every selected condition
// certified, 1 any violated, 3 none violated but some undecided.
func runCertify(exec *core.Execution, check string) {
	h := certify.FromExecution(exec)
	fmt.Printf("transactions: %d\n", len(h.Txns))
	ran, violated, unknown := false, false, false
	for _, cond := range certify.Conditions() {
		if check != "all" && cond != check {
			continue
		}
		ran = true
		rep := certify.Check(h, cond)
		fmt.Println(rep)
		switch rep.Verdict {
		case certify.Violated:
			violated = true
			if len(rep.Witness) > 0 {
				fmt.Printf("    witness: %v\n", rep.Witness)
			}
		case certify.Unknown:
			unknown = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "tmcheck: unknown condition %q (certifier knows: %s)\n",
			check, strings.Join(certify.Conditions(), ", "))
		os.Exit(2)
	}
	switch {
	case violated:
		os.Exit(1)
	case unknown:
		os.Exit(3)
	}
}

// runRecover judges a durable commit log offline: scan (read-only),
// report the recovery plan, replay into a recorded store, certify each
// partition's replay history. A corrupt log is refused with its
// witness; torn tails and untrimmed preallocation (zero tails) are
// reported separately but — by design — accepted.
func runRecover(dir string) {
	backend, err := wal.NewFileBackend(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmcheck: -recover: %v\n", err)
		os.Exit(1)
	}
	scan, err := wal.Scan(backend)
	if err != nil {
		var ce *wal.CorruptError
		if errors.As(err, &ce) {
			fmt.Printf("log REFUSED: %s\n", ce)
			fmt.Printf("    witness: segment %s, offset %d: %s\n", ce.Segment, ce.Offset, ce.Reason)
		} else {
			fmt.Fprintf(os.Stderr, "tmcheck: -recover: %v\n", err)
		}
		os.Exit(1)
	}
	shutdown := "crashed (unsealed tail)"
	if scan.Clean {
		shutdown = "clean (sealed)"
	}
	fmt.Printf("log: %d partition(s), %d segment(s), shutdown %s\n",
		scan.Partitions, scan.Segments, shutdown)
	fmt.Printf("replayable: %d commit(s); horizons %v\n", len(scan.Records), scan.Horizon)
	if scan.CrossReplayed > 0 || scan.CrossVoided > 0 {
		fmt.Printf("cross-partition: %d transaction(s) replayed whole, %d voided whole (undecided or incomplete)\n",
			scan.CrossReplayed, scan.CrossVoided)
	}
	if dropped := scan.DroppedRecords(); dropped > 0 {
		fmt.Printf("dropped past per-partition gaps: %d commit(s) %v\n", dropped, scan.DroppedByPart)
	}
	for _, tt := range scan.Torn {
		fmt.Printf("torn tail truncated: segment %s, offset %d: %s\n", tt.Segment, tt.Offset, tt.Reason)
	}
	for _, zt := range scan.ZeroTails {
		fmt.Printf("zero tail skipped: segment %s, offset %d: %d preallocated byte(s) never written (a crashed generation's last segment, not a tear)\n",
			zt.Segment, zt.Offset, zt.Bytes)
	}

	// Replay into a fresh store with one recorder per partition, so the
	// rebuild itself becomes a certifiable history.
	var recs []*stm.Recorder
	s := store.New[int64, int64](store.Config{
		Partitions: scan.Partitions,
		EngineOptions: func(int) []stm.Option {
			r := stm.NewRecorder()
			recs = append(recs, r)
			return []stm.Option{stm.WithRecorder(r)}
		},
	})
	if err := store.Replay(s, store.Int64Codec(), scan.Records, 0); err != nil {
		fmt.Fprintf(os.Stderr, "tmcheck: -recover: replay: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("replayed into %d key(s)\n", s.Len())

	itemOf := func(id uint64) (core.Item, bool) {
		return core.Item(fmt.Sprintf("t%d", id)), true
	}
	violated, unknown := false, false
	for pi, r := range recs {
		attempts := r.Take()
		if len(attempts) == 0 {
			fmt.Printf("partition %d: empty replay history\n", pi)
			continue
		}
		exec, err := conformance.StampInterned(attempts, itemOf, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmcheck: -recover: stamping partition %d: %v\n", pi, err)
			os.Exit(1)
		}
		rep := certify.Check(certify.FromExecution(exec), certify.StrictSerializability)
		fmt.Printf("partition %d: %s\n", pi, rep)
		switch rep.Verdict {
		case certify.Violated:
			violated = true
			if len(rep.Witness) > 0 {
				fmt.Printf("    witness: %v\n", rep.Witness)
			}
		case certify.Unknown:
			unknown = true
		}
	}
	switch {
	case violated:
		os.Exit(1)
	case unknown:
		os.Exit(3)
	}
	fmt.Println("log accepted: recovery certified")
}

// dumpViolations writes every violating report's history to dir as a
// trace JSON file; the returned count excludes reports without an
// execution. Dump failures are fatal: live mode's whole point under
// -dump is leaving the repro behind.
func dumpViolations(dir string, reports []*conformance.Report) int {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "tmcheck: -dump: %v\n", err)
		os.Exit(1)
	}
	n := 0
	for _, rep := range reports {
		if len(rep.Failures()) == 0 || rep.Exec == nil {
			continue
		}
		data, err := trace.EncodeWithMeta(rep.Exec, &trace.Meta{
			Source: "tmcheck -live", Engine: rep.Engine,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmcheck: -dump: %v\n", err)
			os.Exit(1)
		}
		name := fmt.Sprintf("violation-%03d-%s-%s-seed%d.json",
			n, rep.Engine, rep.Episode.Pattern, rep.Episode.Seed)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "tmcheck: -dump: %v\n", err)
			os.Exit(1)
		}
		n++
	}
	return n
}

// runLive sweeps the conformance harness over the real engines: episodes
// per engine × pattern, each recorded, stamped and checked. Violations
// are dumped in the paper's notation and fail the process.
func runLive(episodes int, seed int64, enginesCSV, patternsCSV, dumpDir string) {
	cfg := conformance.StressConfig{Episodes: episodes, Seed: seed}
	if enginesCSV != "" {
		for _, part := range strings.Split(enginesCSV, ",") {
			k, err := registry.EngineByName(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "tmcheck: %v\n", err)
				os.Exit(2)
			}
			cfg.Engines = append(cfg.Engines, k)
		}
	}
	if patternsCSV != "" {
		for _, part := range strings.Split(patternsCSV, ",") {
			p, err := registry.PatternByName(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "tmcheck: %v\n", err)
				os.Exit(2)
			}
			cfg.Patterns = append(cfg.Patterns, p)
		}
	}

	sum, err := conformance.Stress(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmcheck: live: %v\n", err)
		os.Exit(1)
	}

	fmt.Println("conformance of production engines (recorded histories vs. the paper's checkers)")
	fmt.Printf("%-9s %-9s %9s %6s %8s %8s %8s  %s\n",
		"engine", "pattern", "episodes", "txns", "checked", "skipped", "violate", "required")
	type cell struct{ episodes, txns, checked, skipped, violated int }
	cells := make(map[string]*cell)
	var order []string
	for _, rep := range sum.Reports {
		key := rep.Engine + "/" + rep.Episode.Pattern.String()
		c, ok := cells[key]
		if !ok {
			c = &cell{}
			cells[key] = c
			order = append(order, key)
		}
		c.episodes++
		c.txns += rep.Txns
		if rep.Skipped {
			c.skipped++
		} else {
			c.checked++
		}
		if len(rep.Failures()) > 0 {
			c.violated++
		}
	}
	for _, key := range order {
		c := cells[key]
		eng, pat, _ := strings.Cut(key, "/")
		req := conformance.RequiredConditions(eng)
		reqLabel := "all"
		switch {
		case len(req) == 0:
			reqLabel = "none"
		case len(req) < len(consistency.Checkers()):
			reqLabel = req[0] + ",…"
		}
		fmt.Printf("%-9s %-9s %9d %6d %8d %8d %8d  %s\n",
			eng, pat, c.episodes, c.txns, c.checked, c.skipped, c.violated, reqLabel)
	}
	fmt.Printf("\ntotal: %d episodes, %d checked, %d skipped (oversized), %d inconclusive (budget)\n",
		sum.Episodes, sum.Checked, sum.Skipped, sum.Inconclusive)

	// The structure layer: the same checkers over histories of the
	// transactional data structures (tstructs.TMap) and the partitioned
	// store — keyspace-level operation histories plus every partition's
	// own TVar-level history — with the planted aliased-TMap fixture as
	// the layer's self-test.
	ssum, err := conformance.StressStructures(conformance.StructStressConfig{
		Episodes: max(1, episodes/2), Seed: seed, Engines: cfg.Engines})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmcheck: live structures: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nconformance of transactional structures (TMap + partitioned store)\n")
	fmt.Printf("histories: %d map-level, %d store-level, %d per-partition, %d stitched cross-partition; %d checked, %d skipped, %d inconclusive\n",
		ssum.MapHistories, ssum.StoreHistories, ssum.PartitionHistories, ssum.StitchedHistories,
		ssum.Checked, ssum.Skipped, ssum.Inconclusive)
	if ssum.AliasedConvicted {
		fmt.Println("planted aliased-TMap fixture: convicted (self-test passed)")
	} else {
		fmt.Println("planted aliased-TMap fixture: NOT convicted — the structure harness is vacuous")
	}
	if ssum.HalfCrossConvicted {
		fmt.Println("planted half-applied-cross fixture: convicted (self-test passed)")
	} else {
		fmt.Println("planted half-applied-cross fixture: NOT convicted — the stitching checker is vacuous")
	}

	if dumpDir != "" {
		dumped := dumpViolations(dumpDir, append(append([]*conformance.Report(nil), sum.Reports...), ssum.Reports...))
		fmt.Printf("dumped %d violating histor(ies) to %s\n", dumped, dumpDir)
	}

	failures := len(sum.Failures) + len(ssum.Failures)
	if failures > 0 || !ssum.AliasedConvicted || !ssum.HalfCrossConvicted {
		if failures > 0 {
			fmt.Printf("\n%d VIOLATION(S):\n", failures)
			for _, f := range sum.Failures {
				fmt.Println(f)
			}
			for _, f := range ssum.Failures {
				fmt.Println(f)
			}
		}
		os.Exit(1)
	}
	fmt.Println("all engines satisfied their required conditions")
}

// emitDemo records a small two-transaction run under the named protocol
// (default naive) and writes the JSON trace to stdout. Protocols resolve
// through the shared registry.
func emitDemo(protoName string) {
	if protoName == "" {
		protoName = "naive"
	}
	proto, err := registry.ProtocolByName(protoName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmcheck: %v\n", err)
		os.Exit(2)
	}
	specs := []core.TxSpec{
		{ID: 1, Proc: 0, Ops: []core.TxOp{core.R("x"), core.W("x", 1), core.W("y", 1)}},
		{ID: 2, Proc: 1, Ops: []core.TxOp{core.R("x"), core.R("y"), core.W("z", 2)}},
	}
	b := &stms.Bundle{Protocol: proto, Specs: specs}
	exec, err := b.Run(machine.Schedule{machine.Solo(0), machine.Solo(1)})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmcheck: demo run: %v\n", err)
		os.Exit(1)
	}
	data, err := trace.Encode(exec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmcheck: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
	fmt.Println()
}
