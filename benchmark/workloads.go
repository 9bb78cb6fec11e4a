package main

import (
	"math"
	"slices"
	"sort"
	"time"

	"pcltm/stm"
	"pcltm/store"
)

// Frozen parameters shared by every workload. They are constants, not
// flags: a benchmark whose workload changes with the machine or the
// command line cannot compare two commits.
const (
	partitions = 4 // everywhere, so routing does not change with the machine

	hotKeysPerPart = 256 // embedded_hot: keys per partition (fits L1/L2)
	hotKeysPerTx   = 4   // embedded_hot: keys each transaction touches, all in one partition
	hotZipfS       = 1.2 // embedded_hot: zipf exponent of the key draw
	hotReadOnlyPct = 50  // embedded_hot: share of read-only transactions

	warmupSeconds = 1.0 // before the timed phases; not part of -seconds
	closedShare   = 0.5 // of -seconds, served workloads; the rest is the open-loop phase

	// maxSamplesPerSecond is more clocked calls than one closed-loop client
	// makes in a second on the reference box (embedded_hot: ~75 000); past
	// it the sample slices just grow.
	maxSamplesPerSecond = 150_000

	// Latency quantiles are taken per window of this length and the
	// median window is reported (load.go, phase.latency).
	latencyWindow = 250 * time.Millisecond

	// Set-ups per run: at least setupMin, then more while they have taken
	// under setupBudget seconds in all, up to setupMax. setup_s is their
	// median.
	setupMin    = 5
	setupMax    = 25
	setupBudget = 1.0
)

// workload is one frozen traffic mix. BENCHMARK.json carries only the
// name and the reason; everything else lives here and in README.md.
type workload struct {
	name    string
	served  bool // through a loopback http.Server; false = Store.Atomically called directly
	engine  stm.EngineKind
	keys    int    // keyspace size (served workloads: keys are 0..keys-1)
	preset  int64  // value every key is preloaded with (0 = keys start absent)
	wal     string // "", "file" (FileBackend, AckGroup, window 0) or "mem" (MemBackend, AckGroup, window 0)
	logTxs  int    // transactions in the seeded log that set-up writes, closes and recovers (write_durable)
	getPct  int    // share of requests that are GET /kv/{key}
	xferPct int    // share of requests that are two-key cross-partition transfers
	// openRate is the frozen open-loop arrival rate in requests per
	// second, calibrated once at about a tenth of the closed-loop
	// tx_per_s on the reference box — the highest of the rates tried at
	// which lat_p90_us repeats — and never derived at run time.
	openRate float64
	// traceN is the fixed request count of every pass of the traced run,
	// so its counters repeat exactly.
	traceN int
	// latEvery: the closed loop clocks one call in latEvery (embedded
	// calls are shorter than two clock reads are cheap).
	latEvery int
}

var workloads = []workload{
	{name: "read_mostly", served: true, engine: stm.EngineTL2, keys: 262144, preset: 1,
		getPct: 95, openRate: 3500, traceN: 20000, latEvery: 1},
	{name: "write_durable", served: true, engine: stm.EngineTL2, keys: 65536, wal: "file", logTxs: 100_000,
		openRate: 400, traceN: 4000, latEvery: 1},
	{name: "cross_transfer", served: true, engine: stm.EngineTL2, keys: 65536, preset: 1000, wal: "mem",
		xferPct: 30, openRate: 2500, traceN: 20000, latEvery: 1},
	{name: "embedded_hot", engine: stm.EngineAdaptive, keys: partitions * hotKeysPerPart, preset: 1,
		traceN: 40000, latEvery: 8},
}

// storeConfig is the store every instance of the workload runs on.
// Served workloads size each partition's bucket table to its share of
// the keys, as an operator who knows the key count would: growing a
// TMap there from the default 64 buckets rehashes inside single
// transactions whose commit cost is quadratic in the write set — tens
// of seconds of set-up at these sizes (see README.md, "Findings").
func (w *workload) storeConfig() store.Config {
	sc := store.Config{Partitions: partitions, Engine: w.engine}
	if w.served {
		sc.Buckets = w.keys / partitions
	}
	return sc
}

// The certified pass of the traced run records every transaction since
// boot and hands the history to the certifier through the server's
// /history; encoding it and turning it back into a certifiable history
// are both quadratic in transactions (20 000 take half a minute) and
// hold the whole execution in memory. So it runs the workload's mix on
// a small copy: few keys to preload, a short log to replay, a thousand
// requests. Certification judges consistency, not speed; every timing
// comes from the full-size, unrecorded instance.
const (
	certifyKeys     = 1024
	certifyLogTxs   = 500
	certifyRequests = 1000
)

func (w *workload) certifyCopy() *workload {
	c := *w
	c.keys = min(c.keys, certifyKeys)
	c.logTxs = min(c.logTxs, certifyLogTxs)
	return &c
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

type reqKind uint8

const (
	kindGet      reqKind = iota // GET /kv/{key}
	kindIncr                    // POST /tx, one incr +1
	kindTransfer                // POST /tx, incr -1 on keys[0] and +1 on keys[1], different partitions
	kindHotRW                   // embedded: +1 on each of four keys of one partition
	kindHotRO                   // embedded: read four keys of one partition
)

// request is one generated operation. It is a pure function of
// (workload, seed, index), so every level of the traced run replays
// exactly the stream the timed run drew from.
type request struct {
	kind reqKind
	n    int
	keys [hotKeysPerTx]int64
}

func (k reqKind) writes() bool { return k != kindGet && k != kindHotRO }

// writes reports how many key-value writes the request commits.
func (r *request) writes() int {
	if !r.kind.writes() {
		return 0
	}
	return r.n
}

// generator draws the seeded request stream of one workload.
type generator struct {
	w     *workload
	seed  uint64
	route func(int64) int // key → partition, the store's own routing
	keys  []int64         // every key the workload can touch
	hot   [][]int64       // embedded_hot: hot[p][rank] is partition p's rank'th key
	zipf  []float64       // embedded_hot: cumulative zipf weights over ranks
}

func newGenerator(w *workload, seed uint64) *generator {
	// Routing is a pure function of the partition count, so an empty
	// store answers it for every store the benchmark later builds.
	router := store.New[int64, int64](store.Config{Partitions: partitions})
	g := &generator{w: w, seed: seed, route: router.PartitionOf}
	if w.served {
		g.keys = make([]int64, w.keys)
		for i := range g.keys {
			g.keys[i] = int64(i)
		}
	} else {
		g.hot = make([][]int64, partitions)
		for k, filled := int64(0), 0; filled < partitions; k++ {
			p := g.route(k)
			if len(g.hot[p]) < hotKeysPerPart {
				g.hot[p] = append(g.hot[p], k)
				if len(g.hot[p]) == hotKeysPerPart {
					filled++
				}
			}
		}
		g.zipf = make([]float64, hotKeysPerPart)
		var sum float64
		for i := range g.zipf {
			sum += 1 / math.Pow(float64(i+1), hotZipfS)
			g.zipf[i] = sum
		}
		for i := range g.zipf {
			g.zipf[i] /= sum
		}
		for _, part := range g.hot {
			g.keys = append(g.keys, part...)
		}
	}
	return g
}

// maxKey bounds the dense arrays indexed by key.
func (g *generator) maxKey() int64 { return slices.Max(g.keys) }

// Independent streams of the one seed.
const (
	streamRequests = 1
	streamFixedLog = 2
)

// rng is splitmix64: stateless enough that request i is addressable
// without generating requests 0..i-1.
type rng struct{ s uint64 }

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (g *generator) rngAt(stream, i uint64) rng {
	return rng{s: mix64(mix64(g.seed*0x9E3779B97F4A7C15+stream) ^ (i+1)*0xD1B54A32D192ED03)}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix64(r.s)
}

// at returns request i of the stream.
func (g *generator) at(i uint64) request {
	r := g.rngAt(streamRequests, i)
	pct := int(r.next() % 100)
	if !g.w.served {
		req := request{kind: kindHotRW, n: hotKeysPerTx}
		if pct < hotReadOnlyPct {
			req.kind = kindHotRO
		}
		part := g.hot[r.next()%partitions]
		for j := range req.keys {
			u := float64(r.next()>>11) / (1 << 53)
			req.keys[j] = part[sort.SearchFloat64s(g.zipf, u)]
		}
		return req
	}
	keys := uint64(g.w.keys)
	a := int64(r.next() % keys)
	switch {
	case pct < g.w.getPct:
		return request{kind: kindGet, n: 1, keys: [hotKeysPerTx]int64{a}}
	case pct < g.w.getPct+g.w.xferPct:
		b := int64(r.next() % keys)
		for g.route(b) == g.route(a) {
			b = int64(r.next() % keys)
		}
		return request{kind: kindTransfer, n: 2, keys: [hotKeysPerTx]int64{a, b}}
	}
	return request{kind: kindIncr, n: 1, keys: [hotKeysPerTx]int64{a}}
}

// fixedLogKey is the key transaction i of write_durable's seeded log
// increments.
func (g *generator) fixedLogKey(i uint64) int64 {
	r := g.rngAt(streamFixedLog, i)
	return int64(r.next() % uint64(g.w.keys))
}

// model is the expected value of every key: preset, plus the fixed log,
// plus (once replayed into it) every request that succeeded. Transfers move value between keys
// and conserve the total.
type model struct {
	val []int64
}

func newModel(g *generator) *model {
	m := &model{val: make([]int64, g.maxKey()+1)}
	for _, k := range g.keys {
		m.val[k] = g.w.preset
	}
	// What set-up writes beyond the preset: write_durable's fixed log.
	for i := 0; i < g.w.logTxs; i++ {
		m.val[g.fixedLogKey(uint64(i))]++
	}
	return m
}

func (m *model) apply(r *request) {
	switch r.kind {
	case kindIncr:
		m.val[r.keys[0]]++
	case kindTransfer:
		m.val[r.keys[0]]--
		m.val[r.keys[1]]++
	case kindHotRW:
		for _, k := range r.keys {
			m.val[k]++
		}
	}
}

// ran names a strided slice of the request stream that was executed:
// indices first, first+stride, ... (count of them).
type ran struct{ first, stride, count uint64 }
