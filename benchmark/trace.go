package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"pcltm/internal/certify"
)

// perLayer are the metrics of the traced run. Layer names are the
// module names; a layer a workload leaves idle reads 0.
var perLayer = []metricDef{
	{"server.handler_us_per_req", "us"},   // level 2
	{"server.transport_us_per_req", "us"}, // level 1 - level 2: socket, net/http on both ends
	{"server.self_us_per_req", "us"},      // level 2 - level 3: routing, JSON, queue hand-off
	{"server.cmds_per_batch", "count"},
	{"server.cross_txs", "count"},
	{"server.rejected", "count"},
	{"store.atomically_us_per_tx", "us"}, // level 3, single-partition writes and embedded transactions
	{"store.cross_us_per_tx", "us"},      // level 3, transfers
	{"store.get_us", "us"},               // level 3, reads
	{"store.self_us_per_tx", "us"},       // level 3 - level 4 - wal.append_us
	{"store.replay_s", "s"},
	{"store.recover_s", "s"},
	{"tstructs.tmap_us_per_op", "us"}, // level 4
	{"tstructs.self_us_per_op", "us"}, // level 4 - level 5
	{"stm.tx_us", "us"},               // level 5
	{"stm.commits", "count"},
	{"stm.retries_per_commit", "ratio"},
	{"stm.lock_fails_per_commit", "ratio"},
	{"wal.append_us", "us"},
	{"wal.append_us_conc", "us"},
	{"wal.appends_per_sync", "ratio"},
	{"wal.max_batch", "count"},
	{"wal.syncs", "count"},
	{"wal.bytes_per_record", "B"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.crosses", "count"},
	{"wal.scan_s", "s"},
	{"certify.load_s", "s"}, // fetching /history and building the certifier's input from it
	{"certify.check_s", "s"},
	{"certify.txns", "count"},
	{"benchmark.gen_late_p99_us", "us"},
	{"benchmark.open_p99_us", "us"},
	{"benchmark.trace_overhead_frac", "ratio"},
}

// peelChunks: every peeling pass is cut into this many chunks and the
// levels take turns chunk by chunk, so a collector cycle or a stall of
// the machine falls on neighbouring levels alike. A level's cost is its
// median chunk mean; a difference of two levels is the median of the
// chunk-by-chunk differences, which cancels what the pair shared.
const peelChunks = 100

// span is one traced call. Spans of one request share req; parent is the
// index of the span one level up for the same request (-1 at the top),
// the call that would have caused this one in a nested execution.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) record(name string, req uint64, parent int, fn func()) int {
	start := time.Since(t.t0)
	fn()
	t.spans = append(t.spans, span{Name: name, Req: req, Start: int64(start), End: int64(time.Since(t.t0)), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) write(path string, w *workload, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// level is one depth of the peeling: a public entry point the request
// stream is replayed against.
type level struct {
	name  string
	do    func(i int, r *request) bool
	c     *client         // non-nil when the level runs on the live system: its requests count toward the model
	durs  []time.Duration // one per request, in the order run
	kinds []reqKind       // the kind of the request behind each dur
	spans []int           // per request index: its span (-1 for the untraced pass)
	cause *level          // the level whose call would have made this one, nil at the top
}

// chunkRotation staggers the passes: at step s, pass p works on chunk
// (s + p*chunkRotation) mod peelChunks. Every pass still replays every
// request exactly once, but no two passes touch the same keys back to
// back — otherwise the first pass over a chunk would pay the cache
// misses and the deeper levels after it would look cheaper than they
// are. Seven passes at most, and 7*13 < peelChunks keeps them apart.
const chunkRotation = 13

// peel replays requests 0..n-1 against each level — the loopback socket,
// the handler, the store, one TMap, bare TVars, and beside the TMap the
// WAL on a log of its own; embedded_hot starts at the store — with a
// span around every call. Served workloads also get the socket once more
// with no spans, to price the tracing. Levels are returned by name.
func peel(sys *system, tr *tracer, n int, tmp string) (map[string]*level, error) {
	sc := newScratch(sys.gen)
	live := func(name string, cause *level, via func(*client, *request) bool) *level {
		c := sys.newClient(0, 1)
		c.count = uint64(n) // by the end of the peeling it has run requests 0..n-1
		return &level{name: name, cause: cause, c: c, do: func(_ int, r *request) bool { return via(c, r) }}
	}
	var passes []*level
	var top *level
	var walErr error
	if sys.w.served {
		http := live("http", nil, (*client).viaHTTP)
		top = live("server.handler", http, (*client).viaHandler)
		passes = append(passes, live("untraced", nil, (*client).viaHTTP), http, top)
	}
	st := live("store", top, (*client).viaStore)
	tmap := &level{name: "tstructs.tmap", cause: st, do: func(_ int, r *request) bool { return sc.viaTMap(r) }}
	passes = append(passes, st, tmap,
		&level{name: "stm.tx", cause: tmap, do: func(_ int, r *request) bool { return sc.viaSTM(r) }})
	if sys.w.wal != "" {
		a, err := newWALAppender(sys.gen, tmp)
		if err != nil {
			return nil, err
		}
		defer func() { _ = a.close() }() // a timing replica: nothing reads this log back
		passes = append(passes, &level{name: "wal.append", cause: st, do: func(i int, r *request) bool {
			if err := a.append(r, int64(i)); err != nil && walErr == nil {
				walErr = err
			}
			return true
		}})
	}
	byName := make(map[string]*level, len(passes))
	for _, lv := range passes {
		lv.spans = make([]int, n)
		byName[lv.name] = lv
	}

	per := n / peelChunks
	for step := 0; step < peelChunks; step++ {
		for p := range passes {
			if sys.w.served && p < 2 && step%2 == 1 {
				p = 1 - p // the two socket passes swap turns every step, so neither always runs first
			}
			lv := passes[p]
			lo := (step + p*chunkRotation) % peelChunks * per
			t0 := time.Now()
			for i := lo; i < lo+per; i++ {
				r := sys.gen.at(uint64(i))
				ok := true
				if lv.name == "untraced" {
					ok, lv.spans[i] = lv.do(i, &r), -1
				} else {
					lv.spans[i] = tr.record(lv.name, uint64(i), -1, func() { ok = lv.do(i, &r) })
					sp := tr.spans[lv.spans[i]]
					lv.durs = append(lv.durs, time.Duration(sp.End-sp.Start))
				}
				if !ok && lv.c != nil {
					lv.c.failed = append(lv.c.failed, uint64(i))
				}
				lv.kinds = append(lv.kinds, r.kind)
			}
			if lv.name == "untraced" {
				// One clock pair per chunk, spread evenly over its requests.
				each := time.Since(t0) / time.Duration(per)
				for i := 0; i < per; i++ {
					lv.durs = append(lv.durs, each)
				}
			}
		}
	}
	if walErr != nil {
		return nil, fmt.Errorf("wal pass: %w", walErr)
	}
	for _, lv := range passes {
		if lv.cause == nil || lv.name == "untraced" {
			continue
		}
		for i := 0; i < n; i++ {
			tr.spans[lv.spans[i]].Parent = lv.cause.spans[i]
		}
	}
	return byName, nil
}

// chunkMeans returns the mean microseconds per request of each chunk,
// counting only the requests keep selects (nil = all); a chunk with none
// is left out.
func chunkMeans(durs []time.Duration, keep func(i int) bool) []float64 {
	per := max(1, len(durs)/peelChunks)
	var means []float64
	for lo := 0; lo < len(durs); lo += per {
		var sum time.Duration
		var n int
		for i := lo; i < min(lo+per, len(durs)); i++ {
			if keep == nil || keep(i) {
				sum += durs[i]
				n++
			}
		}
		if n > 0 {
			means = append(means, float64(sum)/float64(n)/float64(time.Microsecond))
		}
	}
	return means
}

// chunkwise is f(a[chunk], b[chunk]) for every chunk.
func chunkwise(a, b []float64, f func(x, y float64) float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = f(a[i], b[i])
	}
	return out
}

// paired is the median over chunks of f(a[chunk], b[chunk]).
func paired(a, b []float64, f func(x, y float64) float64) float64 {
	return median(chunkwise(a, b, f))
}

func minus(x, y float64) float64 { return x - y }

// runTraced is the layer-peeling run. It counts instead of timing
// wherever it can: every pass has a fixed number of requests, so the
// counters it reports repeat exactly between runs of one commit.
//
//  1. Boot as the timed run does.
//  2. Counter pass: traceN requests, closed loop, nproc clients — the
//     server, stm and wal counters under concurrency.
//  3. Open-loop pass at the frozen rate — generator lateness.
//  4. Peeling: the stream's first traceN requests replayed by one client
//     against each level in turn, a span around every call. One of the
//     levels appends the stream's writes to a fresh log on the
//     workload's backend and ack mode.
//  5. The same appends again from nproc appenders.
//  6. The correctness checks of the timed run, which on a WAL workload
//     scan and replay the log — timed as wal.scan_s and store.replay_s.
//  7. Certified pass: a small recorded instance serves the same mix and
//     its whole history must certify strictly serializable.
func runTraced(w *workload, seed uint64, nproc int, out, tmp string) (*result, error) {
	res := newResult(perLayer)
	gen := newGenerator(w, seed)
	stage := time.Now()
	lap := func(what string) {
		fmt.Printf("  [%6.2fs] %s\n", time.Since(stage).Seconds(), what)
		stage = time.Now()
	}
	sys, _, err := boot(gen, false, tmp)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	res.set("store.recover_s", sys.recoverS)
	n := w.traceN
	lap("boot")

	// 2. Counters under concurrency.
	before := sys.counters()
	clients := sys.runFixed(nproc, n)
	sys.counters().since(before).report(res, gen, n/nproc*nproc)
	lap("counter pass")

	// 3. Generator lateness.
	if w.served {
		open := openLoop(clients, w.openRate, 4*time.Second)
		res.set("benchmark.gen_late_p99_us", open.lateP99())
		res.set("benchmark.open_p99_us", open.overall(0.99))
	}

	lap("open-loop pass")

	// 4 and 5. Peeling, the WAL among the levels; then the WAL again
	// under concurrent appenders.
	tr := &tracer{t0: time.Now()}
	levels, err := peel(sys, tr, n, tmp)
	if err != nil {
		return nil, err
	}
	cost := make(map[string][]float64, len(levels)) // per level, per chunk
	for name, lv := range levels {
		cost[name] = chunkMeans(lv.durs, nil)
		if lv.c != nil {
			clients = append(clients, lv.c)
		}
	}
	st := levels["store"]
	storeCost := func(want ...reqKind) float64 {
		return median(chunkMeans(st.durs, func(j int) bool { return slices.Contains(want, st.kinds[j]) }))
	}
	if w.served {
		res.set("server.handler_us_per_req", median(cost["server.handler"]))
		res.set("server.transport_us_per_req", paired(cost["http"], cost["server.handler"], minus))
		res.set("server.self_us_per_req", paired(cost["server.handler"], cost["store"], minus))
		res.set("benchmark.trace_overhead_frac",
			paired(cost["http"], cost["untraced"], func(x, y float64) float64 { return x/y - 1 }))
	}
	res.set("store.get_us", storeCost(kindGet))
	res.set("store.atomically_us_per_tx", storeCost(kindIncr, kindHotRW, kindHotRO))
	res.set("store.cross_us_per_tx", storeCost(kindTransfer))
	// The store's children are the TMap work and, on a WAL workload, the
	// append it waits for; what is left is its own.
	self := paired(cost["store"], cost["tstructs.tmap"], minus)
	if wl := levels["wal.append"]; wl != nil {
		self = paired(chunkwise(cost["store"], cost["tstructs.tmap"], minus), cost["wal.append"], minus)
		res.set("wal.append_us", median(chunkMeans(wl.durs, func(j int) bool { return wl.kinds[j].writes() })))
		conc, err := concurrentAppend(gen, nproc, n, tmp)
		if err != nil {
			return nil, err
		}
		res.set("wal.append_us_conc", conc)
	}
	res.set("store.self_us_per_tx", self)
	res.set("tstructs.tmap_us_per_op", median(cost["tstructs.tmap"]))
	res.set("tstructs.self_us_per_op", paired(cost["tstructs.tmap"], cost["stm.tx"], minus))
	res.set("stm.tx_us", median(cost["stm.tx"]))
	lap("peeling and wal passes")

	// 6. The same checks as the timed run.
	scanS, replayS := verify(res, sys, clients)
	res.set("wal.scan_s", scanS)
	res.set("store.replay_s", replayS)
	lap("correctness checks")

	// 7. Certificate.
	if err := certifiedPass(res, w, seed, nproc, tmp); err != nil {
		return nil, err
	}
	lap("certified pass")

	path := filepath.Join(out, "trace-"+w.name+".json")
	if err := tr.write(path, w, seed); err != nil {
		return nil, err
	}
	fmt.Printf("  %d spans written to %s\n", len(tr.spans), path)
	return res, nil
}

// runFixed drives n requests (rounded down to a multiple of nproc)
// through nproc closed-loop clients and returns the clients.
func (s *system) runFixed(nproc, n int) []*client {
	clients := make([]*client, nproc)
	var wg sync.WaitGroup
	for i := range clients {
		c := s.newClient(uint64(i), uint64(nproc))
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < n/nproc; k++ {
				c.step()
			}
		}()
	}
	wg.Wait()
	return clients
}

// certifyAttempts: the certifier is three-valued, and a few recorded
// runs in a hundred come back "unknown" (ambiguous reads-from, and its
// candidate serializations fail to replay) — undecided, not wrong. An
// undecided pass is repeated on a fresh instance; "violated" fails the
// run at once, and so does a third "unknown".
const certifyAttempts = 3

// certifiedPass boots the workload's small recorded copy, serves
// certifyRequests of its stream from nproc clients, has the whole
// recorded history — preload, log replay, requests — certified, and runs
// the correctness checks on that instance too.
func certifiedPass(res *result, w *workload, seed uint64, nproc int, tmp string) error {
	gen := newGenerator(w.certifyCopy(), seed)
	for attempt := 1; ; attempt++ {
		sys, _, err := boot(gen, true, tmp)
		if err != nil {
			return err
		}
		clients := sys.runFixed(nproc, certifyRequests)
		verdict, err := certifyHistory(res, sys)
		verify(res, sys, clients)
		sys.close()
		switch {
		case err != nil:
			res.fail(err)
		case verdict == certify.Unknown && attempt < certifyAttempts:
			continue
		case verdict != certify.Certified:
			res.fail(fmt.Errorf("certify: history is %s after %d attempt(s), want certified", verdict, attempt))
		}
		return nil
	}
}
