// Command tmserve boots the network front end: the partitioned
// transactional store behind the server package's HTTP surface.
//
//	tmserve [-addr :7070] [-partitions N] [-engine tl2|tl2s|twopl|glock|adaptive]
//	        [-buckets N] [-batch-max 64] [-rate-limit 0] [-rate-burst 0] [-record]
//	        [-wal DIR] [-wal-ack group|sync|async] [-wal-window 0] [-history-cap N]
//
// Endpoints:
//
//	POST /tx       {"cmds":[{"op":"incr","key":7},...]} — batched commands;
//	               a batch whose keys span partitions commits atomically
//	               through the store's scoped cross-partition path
//	GET  /kv/{key}                                      — single-key query
//	GET  /healthz                                       — liveness
//	GET  /stats                                         — engine + applier counters
//	GET  /history  (with -record)                       — recorded execution as trace JSON
//
// -rate-limit caps admitted commands per second through the
// transactional token bucket (0 = unlimited); -batch-max caps how many
// queued command groups one applier transaction absorbs. Drive it with
// cmd/tmload for open-loop latency numbers.
//
// -record attaches one shared recorder to every partition engine;
// GET /history then serves everything recorded since boot as a trace
// file for `tmcheck -certify` — a load test becomes a consistency
// certificate:
//
//	tmserve -record &  tmload -duration 5s
//	curl -s localhost:7070/history > hist.json
//	tmcheck -certify hist.json
//
// -wal DIR makes the store durable: boot recovers whatever the commit
// log in DIR certifies (after a crash, the per-partition acknowledged
// prefixes; after a clean shutdown, everything), and every commit is
// appended and acknowledged per -wal-ack before the client sees 200 —
// "sync" fsyncs per commit, "group" (default) batches concurrent
// commits into one fsync, "async" acknowledges before the fsync and is
// allowed to lose the unflushed tail. -wal-window widens group commit:
// the log writer waits at most that long (e.g. 200us) to absorb more
// concurrent commits into one fsync, trading a bounded latency floor
// for fewer fsyncs. SIGTERM/SIGINT shut down
// gracefully: the tail segment is flushed and sealed, so the next boot
// reports a clean recovery. `tmcheck -recover DIR` judges a log
// offline.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"pcltm/internal/registry"
	"pcltm/internal/wal"
	"pcltm/server"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	partitions := flag.Int("partitions", 0, "store partitions (0 = GOMAXPROCS, or adopted from -wal)")
	engine := flag.String("engine", "tl2", "engine kind every partition runs")
	buckets := flag.Int("buckets", 0, "per-partition TMap buckets (0 = default)")
	batchMax := flag.Int("batch-max", 64, "max command groups per applier transaction")
	rateLimit := flag.Float64("rate-limit", 0, "admitted commands per second (0 = unlimited)")
	rateBurst := flag.Int64("rate-burst", 0, "admission burst capacity (0 = one second of rate)")
	record := flag.Bool("record", false, "record the execution; GET /history serves it as trace JSON")
	historyCap := flag.Int("history-cap", 0, "max recorded attempts retained for /history (0 = default)")
	walDir := flag.String("wal", "", "durable commit log directory (empty = not durable)")
	walAck := flag.String("wal-ack", "group", "WAL acknowledgement mode: group, sync or async")
	walWindow := flag.Duration("wal-window", 0, "group-commit batch window: fsync at most every this often (0 = fsync as soon as the queue drains)")
	flag.Parse()

	kind, err := registry.EngineByName(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmserve: %v\n", err)
		os.Exit(2)
	}
	cfg := server.Config{
		Partitions: *partitions, Engine: kind, Buckets: *buckets,
		BatchMax: *batchMax, RateLimit: *rateLimit, RateBurst: *rateBurst,
		Record: *record, HistoryCap: *historyCap,
	}
	if *walDir != "" {
		ack, ok := wal.AckByName(*walAck)
		if !ok {
			fmt.Fprintf(os.Stderr, "tmserve: unknown -wal-ack %q (group, sync or async)\n", *walAck)
			os.Exit(2)
		}
		backend, err := wal.NewFileBackend(*walDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmserve: %v\n", err)
			os.Exit(1)
		}
		cfg.WAL = backend
		cfg.WALAck = ack
		cfg.WALWindow = *walWindow
	}
	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmserve: %v\n", err)
		os.Exit(1)
	}
	if rec := s.Recovery(); rec != nil {
		if rec.Segments == 0 {
			fmt.Printf("tmserve: fresh log in %s, ack %s\n", *walDir, *walAck)
		} else {
			var replayed uint64
			for _, h := range rec.Horizon {
				replayed += h
			}
			fmt.Printf("tmserve: recovered %s from %s: %d segments, %d commits replayed, %d dropped past gaps, %d torn tails, %d zero tails (%d preallocated bytes skipped), ack %s\n",
				map[bool]string{true: "clean", false: "crashed"}[rec.Clean],
				*walDir, rec.Segments, replayed, rec.DroppedRecords(), len(rec.Torn), len(rec.ZeroTails), rec.ZeroTailBytes(), *walAck)
		}
	}
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	// sealed closes only after s.Close() returns: main must not exit
	// before the WAL tail is flushed and sealed, or a graceful shutdown
	// would race its own durability.
	sealed := make(chan struct{})
	go func() {
		<-stop
		fmt.Fprintln(os.Stderr, "tmserve: shutting down")
		_ = httpSrv.Close()
		if err := s.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tmserve: sealing wal: %v\n", err)
		}
		close(sealed)
	}()

	st := s.StatsSnapshot()
	fmt.Printf("tmserve: %s, %d partitions, batch-max %d, listening on %s\n",
		st.Engine, st.Partitions, *batchMax, *addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "tmserve: %v\n", err)
		os.Exit(1)
	}
	<-sealed
}
