// Package server is the network front end of the partitioned store —
// the first storey of this repo that serves traffic instead of
// simulating it. It exposes store.Store[int64,int64] over HTTP with a
// command/query split:
//
//   - POST /tx   — commands: a batch of read-modify-write operations
//     (get/put/incr/delete), routed by key to per-partition appliers; a
//     batch whose keys span partitions commits atomically through the
//     store's scoped cross-partition path (only the touched partitions
//     lock; on a durable server the batch recovers all-or-nothing);
//   - GET /kv/{key} — queries: one single-partition read transaction,
//     no queue, no batching;
//   - GET /healthz, GET /stats — liveness and introspection;
//   - GET /history — with Config.Record, the recorded execution as a
//     trace file for cmd/tmcheck to judge (see below).
//
// Recording (Config.Record) attaches ONE stm.Recorder to every
// partition engine. The recorder owns the stamp counter, so sharing it
// makes the per-partition logs one totally ordered history — exactly
// the precondition the certifier's stitching relies on — and GET
// /history serves that history, stamped into the paper's vocabulary,
// as a trace JSON artifact that `tmcheck -certify` can pass judgment
// on. The artifact is cumulative: each /history call drains the
// recorder and re-serves everything observed since boot.
//
// The command path is where the PCL trade-off meets a wire: instead of
// paying one Atomically per command, each partition runs an applier
// goroutine fed by a tstructs.TQueue. Handlers enqueue pending command
// groups; the applier drains up to Config.BatchMax groups and applies
// them in ONE store.Atomically, so the per-commit cost (clock ticks,
// lock traffic, validation) is amortized across the batch exactly when
// load is high enough for it to matter — at low load batches are size
// one and latency is untouched. Queue hand-off and batch application
// are transactions on the partition's own engine, so the network tier
// inherits the store's isolation rather than reimplementing it.
//
// The two hot routes, /tx and /kv, are built to allocate next to
// nothing per request: the wire format is read and written by the
// hand-written codec in codec.go (encoding/json serves only /stats and
// /history), routing is a switch on method and path, and everything a
// request needs — body buffer, decoded commands, result slots, response
// buffer, the pending hand-off with its done channel — lives in a
// reqState recycled through a sync.Pool. The ownership rule that makes
// the recycling safe: a reqState belongs to the handler goroutine that
// took it, except between the commit of the enqueue transaction and the
// receive on pending.done, when the partition's applier owns the
// pending's commands and result slots; the applier's send on done is its
// last touch of a pending, and the handler always waits for it.
//
// Admission is a tstructs.TBucket — the transactional token bucket —
// spent inside a transaction per request batch: over-rate commands get
// 429 before they touch a queue. The applier never parks holding its
// partition's escalation lock (waiting happens in a queue-only
// transaction), so Cross and the exact store.Len keep working while
// the server idles.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pcltm/internal/conformance"
	"pcltm/internal/core"
	"pcltm/internal/trace"
	"pcltm/internal/wal"
	"pcltm/stm"
	"pcltm/store"
	"pcltm/tstructs"
)

// Config sizes the server.
type Config struct {
	// Partitions, Engine, Buckets configure the underlying store (see
	// store.Config; zero values mean GOMAXPROCS partitions, TL2).
	Partitions int
	Engine     stm.EngineKind
	Buckets    int
	// BatchMax caps how many pending command groups one applier
	// transaction drains (default 64). Batching is opportunistic: an
	// idle server applies singletons immediately.
	BatchMax int
	// RateLimit, when positive, caps admitted commands per second with
	// burst capacity RateBurst (default: one second's worth). Zero
	// disables admission control.
	RateLimit float64
	RateBurst int64
	// Record attaches a shared recorder to every partition engine and
	// enables GET /history, which serves the recorded execution as a
	// trace artifact for `tmcheck -certify`. Recording costs one log
	// append per transaction; leave it off for latency benchmarks.
	Record bool
	// HistoryCap bounds the accumulated attempt log behind /history
	// (default 1<<20 attempts). The log rotates in segments: when the
	// total exceeds the cap, whole oldest segments are dropped and
	// counted in Stats.HistoryDropped and the trace's meta — /history
	// then serves a suffix of the run, which keeps a long-lived recorded
	// server bounded at the price of whole-run certification.
	HistoryCap int
	// WAL, when non-nil, opens the store on a durable commit log: boot
	// recovers whatever state the log certifies (see store.OpenDurable),
	// and every applier commit is appended and acknowledged per WALAck
	// before the client sees 200. A failed append surfaces as 500 — the
	// commit applied in memory, durability is lost, and the log is
	// poisoned.
	WAL wal.Backend
	// WALAck is the acknowledgement mode (default wal.AckGroup).
	WALAck wal.AckMode
	// WALSegmentBytes caps log segment size (0 = wal default).
	WALSegmentBytes int64
	// WALWindow is the group-commit batch window: the log writer waits
	// at most this long to widen a batch before fsyncing (0 = fsync as
	// soon as the queue drains).
	WALWindow time.Duration
}

// Command is one operation of a POST /tx batch.
type Command struct {
	// Op is one of "get", "put", "incr", "delete".
	Op string `json:"op"`
	// Key routes the command to its partition.
	Key int64 `json:"key"`
	// Value is stored by put and added by incr (incr of 0 means 1, so
	// `{"op":"incr","key":k}` is a plain counter bump).
	Value int64 `json:"value,omitempty"`
}

// CmdResult is one command's outcome, index-aligned with the request.
type CmdResult struct {
	// Value: get returns the read value, incr the post-increment value;
	// put and delete return the stored/removed value.
	Value int64 `json:"value"`
	// Found: whether the key existed before the command (get/delete) or
	// at all (put/incr report true — the key exists afterwards).
	Found bool `json:"found"`
}

// TxRequest and TxResponse are the /tx wire format.
type TxRequest struct {
	Cmds []Command `json:"cmds"`
}

type TxResponse struct {
	Results []CmdResult `json:"results"`
}

// KVResponse is the /kv/{key} wire format.
type KVResponse struct {
	Value int64 `json:"value"`
	Found bool  `json:"found"`
}

// Stats is the /stats wire format.
type Stats struct {
	Engine     string `json:"engine"`
	Partitions int    `json:"partitions"`
	// Batches and Cmds count applier transactions and the commands they
	// carried; Cmds/Batches is the realized amortization factor.
	Batches uint64 `json:"batches"`
	Cmds    uint64 `json:"cmds"`
	// CrossTxs counts /tx requests whose commands spanned partitions and
	// therefore committed through the scoped cross-partition path.
	CrossTxs uint64 `json:"cross_txs,omitempty"`
	// Rejected counts 429s from the admission bucket.
	Rejected uint64 `json:"rejected"`
	// HistoryDropped counts recorded attempts rotated out of the bounded
	// /history accumulator (0 unless the server outlived HistoryCap).
	HistoryDropped uint64 `json:"history_dropped,omitempty"`
	// WalAck and Wal describe the commit log on a durable server.
	WalAck string     `json:"wal_ack,omitempty"`
	Wal    *wal.Stats `json:"wal,omitempty"`
	// Store is every partition engine's counters, indexed by partition.
	// Retries counts conflicts only; an applier parked on its empty queue
	// is counted under Waits, so an idle server reads zero retries.
	Store []stm.Stats `json:"store"`
}

// pending is a single-partition /tx request on its way through the
// partition's applier: the commands and the response slots they fill,
// index-aligned. It crosses from handler to applier through the
// partition's TQueue; done is the only synchronization of res — the
// handler must not read res before receiving on done, and the applier
// must not touch the pending after sending on it, because the handler
// recycles it then. done is buffered, so the applier never waits for the
// handler, and carries exactly one value per use, so it is reused as is.
type pending struct {
	cmds []Command
	res  []CmdResult
	done chan error
}

// reqState is everything one /tx or /kv request needs that would
// otherwise be allocated per request. See the package comment for who
// owns it when.
type reqState struct {
	body  []byte      // request body, as read
	cmds  []Command   // decoded from body
	res   []CmdResult // one slot per command
	parts []int       // distinct partitions of the commands' keys, in first-use order
	out   []byte      // encoded reply
	pend  pending     // the hand-off to an applier, pointing at cmds and res
	add   *adder      // incr's function on the cross path, which runs on the handler's goroutine
}

var reqStates = sync.Pool{New: func() any {
	return &reqState{pend: pending{done: make(chan error, 1)}, add: newAdder()}
}}

// Buffers larger than these are not kept by a recycled reqState, so one
// huge batch does not pin its megabytes for the life of the process.
const (
	keptBodyBytes = 64 << 10
	keptCmds      = 4096
)

func getReqState() *reqState { return reqStates.Get().(*reqState) }

func putReqState(st *reqState) {
	if cap(st.body) > keptBodyBytes || cap(st.cmds) > keptCmds {
		return
	}
	reqStates.Put(st)
}

// ErrClosed is reported for commands caught in a server shutdown.
var ErrClosed = errors.New("server: closed")

// Server routes HTTP traffic onto the store. Create with New, attach
// via Handler, stop with Close.
type Server struct {
	store    *store.Store[int64, int64]
	queues   []*tstructs.TQueue[*pending]
	stopped  []*stm.TVar[bool]
	batchMax int

	limiter  *tstructs.TBucket // nil = unlimited
	admitEng *stm.Engine       // engine admission transactions run on

	// recorder is the shared per-partition-engine recorder when
	// Config.Record is set. The accumulated attempt log is segmented so
	// it can rotate: histSegs holds up to histSegMax attempts per
	// segment, oldest first; histLen is the total retained; histDropped
	// counts attempts rotated away. histMu guards all of them. A
	// background ticker drains the recorder even when nobody polls
	// /history, so the recorder's own buffer stays bounded too.
	recorder    *stm.Recorder
	histMu      sync.Mutex
	histSegs    [][]*stm.AttemptRecord
	histLen     int
	histCap     int
	histDropped uint64
	drainStop   chan struct{}

	// recovery is what boot found in the WAL (nil when not durable).
	recovery *wal.ScanResult

	closed atomic.Bool
	// crossGate is held shared by every cross batch in flight and taken
	// exclusive once by Close, after closed is set: the appliers drain
	// their own work, but a cross batch commits on its handler's
	// goroutine, and the WAL must not be sealed under it.
	crossGate sync.RWMutex
	wg        sync.WaitGroup
	batches   atomic.Uint64
	cmds      atomic.Uint64
	crosses   atomic.Uint64
	reject    atomic.Uint64
}

// histSegMax is the rotation grain: attempts per history segment.
const histSegMax = 1 << 14

// New builds the store — recovering it from the WAL when Config.WAL is
// set — starts one applier per partition, and returns the server.
func New(cfg Config) (*Server, error) {
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 64
	}
	if cfg.HistoryCap <= 0 {
		cfg.HistoryCap = 1 << 20
	}
	sc := store.Config{Partitions: cfg.Partitions, Engine: cfg.Engine, Buckets: cfg.Buckets}
	var rec *stm.Recorder
	if cfg.Record {
		rec = stm.NewRecorder()
		sc.EngineOptions = func(int) []stm.Option { return []stm.Option{stm.WithRecorder(rec)} }
	}
	var st *store.Store[int64, int64]
	var recovery *wal.ScanResult
	if cfg.WAL != nil {
		// Recovery replays through recorded store transactions, so with
		// Record set the served history begins with the replayed
		// prefix — recovered state arrives pre-justified.
		var err error
		st, recovery, err = store.OpenDurable(store.DurableConfig[int64, int64]{
			Store:        sc,
			Backend:      cfg.WAL,
			Ack:          cfg.WALAck,
			SegmentBytes: cfg.WALSegmentBytes,
			BatchWindow:  cfg.WALWindow,
			Codec:        store.Int64Codec(),
		})
		if err != nil {
			return nil, fmt.Errorf("server: opening durable store: %w", err)
		}
	} else {
		st = store.New[int64, int64](sc)
	}
	s := &Server{
		store:    st,
		recorder: rec,
		batchMax: cfg.BatchMax,
		histCap:  cfg.HistoryCap,
		recovery: recovery,
	}
	// Admission normally serializes on partition 0's engine. When
	// recording it moves to a private, unrecorded engine: the token
	// bucket's TVar starts at full capacity — a non-zero initial value
	// the checkers' vocabulary cannot express (reads of it would look
	// unjustifiable) — and admission state is not store data, so the
	// history is cleaner without it.
	s.admitEng = s.store.Engine(0)
	if cfg.Record {
		s.admitEng = stm.NewEngine(cfg.Engine)
	}
	if cfg.RateLimit > 0 {
		burst := cfg.RateBurst
		if burst <= 0 {
			burst = int64(cfg.RateLimit)
			if burst < 1 {
				burst = 1
			}
		}
		s.limiter = tstructs.NewTBucket(burst, cfg.RateLimit)
	}
	n := s.store.Partitions()
	s.queues = make([]*tstructs.TQueue[*pending], n)
	s.stopped = make([]*stm.TVar[bool], n)
	for p := 0; p < n; p++ {
		s.queues[p] = tstructs.NewTQueue[*pending]()
		s.stopped[p] = stm.NewTVar(false)
		s.wg.Add(1)
		go s.applier(p)
	}
	if rec != nil {
		s.drainStop = make(chan struct{})
		s.wg.Add(1)
		go s.drainLoop()
	}
	return s, nil
}

// Store exposes the underlying store (tests, embedding).
func (s *Server) Store() *store.Store[int64, int64] { return s.store }

// Recovery returns what boot found in the WAL: nil for a non-durable
// server, otherwise the scan result (horizons, torn tails, Clean).
func (s *Server) Recovery() *wal.ScanResult { return s.recovery }

// drainLoop moves recorder attempts into the rotating history
// accumulator on a timer, so a recorded server that nobody polls stays
// bounded.
func (s *Server) drainLoop() {
	defer s.wg.Done()
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.histMu.Lock()
			s.drainLocked()
			s.histMu.Unlock()
		case <-s.drainStop:
			return
		}
	}
}

// drainLocked pulls everything the recorder has and rotates whole
// oldest segments out while the total exceeds the cap. Callers hold
// histMu.
func (s *Server) drainLocked() {
	fresh := s.recorder.Take()
	for len(fresh) > 0 {
		if n := len(s.histSegs); n > 0 && len(s.histSegs[n-1]) < histSegMax {
			room := histSegMax - len(s.histSegs[n-1])
			if room > len(fresh) {
				room = len(fresh)
			}
			s.histSegs[n-1] = append(s.histSegs[n-1], fresh[:room]...)
			s.histLen += room
			fresh = fresh[room:]
			continue
		}
		s.histSegs = append(s.histSegs, make([]*stm.AttemptRecord, 0, histSegMax))
	}
	for s.histLen > s.histCap && len(s.histSegs) > 1 {
		s.histDropped += uint64(len(s.histSegs[0]))
		s.histLen -= len(s.histSegs[0])
		s.histSegs[0] = nil
		s.histSegs = s.histSegs[1:]
	}
}

// applier is partition part's consumer: it blocks on the queue in a
// queue-only transaction (holding no partition lock while parked — a
// parked RLock would deadlock Cross and the exact Len), then drains up
// to batchMax pending groups and applies them in one store.Atomically.
func (s *Server) applier(part int) {
	defer s.wg.Done()
	eng := s.store.Engine(part)
	q := s.queues[part]
	stopTV := s.stopped[part]
	batch := make([]*pending, 0, s.batchMax)
	add := newAdder()
	for {
		// Wait for work. This transaction touches only the queue and the
		// stop flag, so parking in Retry holds no store lock.
		var first *pending
		var stopping bool
		_ = eng.Atomically(func(tx *stm.Tx) error {
			first, stopping = nil, false
			if p, ok := q.TryTake(tx); ok {
				first = p
				return nil
			}
			if stm.Get(tx, stopTV) {
				stopping = true
				return nil
			}
			stm.Retry(tx)
			return nil
		})
		if stopping {
			// Drain stragglers that beat the stop flag, then exit. Any
			// enqueue serialized after the stop flag was set has been
			// rejected by the handler's same-transaction check, so after
			// this drain the queue stays empty forever.
			for {
				var p *pending
				_ = eng.Atomically(func(tx *stm.Tx) error {
					p, _ = q.TryTake(tx)
					return nil
				})
				if p == nil {
					return
				}
				p.done <- ErrClosed
			}
		}

		// Apply a batch in one store transaction: first plus whatever
		// else queued meanwhile, at most batchMax groups. On conflict
		// retry the drains re-run, so batch is rebuilt from scratch. On
		// a durable store the transaction blocks here until the WAL
		// acknowledges it; an append failure (DurabilityError) fails the
		// whole batch — the writes applied in memory but the clients
		// must not be told they are durable.
		err := s.store.Atomically(part, func(tx *stm.Tx, ph *store.Part[int64, int64]) error {
			batch = append(batch[:0], first)
			for len(batch) < s.batchMax {
				p, ok := q.TryTake(tx)
				if !ok {
					break
				}
				batch = append(batch, p)
			}
			for _, p := range batch {
				applyCmds(partTx{tx, ph}, p.cmds, p.res, add)
			}
			return nil
		})
		s.batches.Add(1)
		for _, p := range batch {
			s.cmds.Add(uint64(len(p.cmds)))
			p.done <- err // the last touch of p: its handler recycles it now
		}
	}
}

// kv is what one command needs of the transaction it runs in. Both
// commit paths provide it: partTx on the applier's single-partition
// path, *store.CrossTx on the cross-partition one.
type kv interface {
	Get(k int64) (int64, bool)
	Put(k, v int64)
	Delete(k int64) bool
	Update(k int64, fn func(v int64, ok bool) int64) int64
}

// partTx is a partition handle bound to its transaction.
type partTx struct {
	tx *stm.Tx
	ph *store.Part[int64, int64]
}

func (p partTx) Get(k int64) (int64, bool) { return p.ph.Get(p.tx, k) }
func (p partTx) Put(k, v int64)            { p.ph.Put(p.tx, k, v) }
func (p partTx) Delete(k int64) bool       { return p.ph.Delete(p.tx, k) }
func (p partTx) Update(k int64, fn func(v int64, ok bool) int64) int64 {
	return p.ph.Update(p.tx, k, fn)
}

// adder is incr's read-modify-write function with the delta in a field
// instead of a captured variable: fn is bound once, so whoever owns an
// adder interprets any number of incrs without allocating a closure for
// each.
type adder struct {
	delta int64
	fn    func(v int64, ok bool) int64 // add, bound
}

func newAdder() *adder {
	a := new(adder)
	a.fn = a.add
	return a
}

func (a *adder) add(v int64, _ bool) int64 { return v + a.delta }

// applyCmds is the command interpreter: it runs cmds in order inside t,
// filling the index-aligned response slots. A type parameter instead of
// an interface value keeps the applier's per-batch partTx off the heap.
// add is the caller's adder; the decoder has already rejected any op
// outside the four.
func applyCmds[T kv](t T, cmds []Command, res []CmdResult, add *adder) {
	for i, c := range cmds {
		switch c.Op {
		case "get":
			v, ok := t.Get(c.Key)
			res[i] = CmdResult{Value: v, Found: ok}
		case "put":
			t.Put(c.Key, c.Value)
			res[i] = CmdResult{Value: c.Value, Found: true}
		case "incr":
			add.delta = c.Value
			if add.delta == 0 {
				add.delta = 1
			}
			res[i] = CmdResult{Value: t.Update(c.Key, add.fn), Found: true}
		case "delete":
			v, ok := t.Get(c.Key)
			if ok {
				t.Delete(c.Key)
			}
			res[i] = CmdResult{Value: v, Found: ok}
		}
	}
}

// Handler returns the HTTP surface: the five routes, matched on method
// and exact path by hand. /tx and /kv replies all carry the same
// Content-Type value slice (jsonContentType), so whatever wraps the
// handler or its ResponseWriter may replace that header but must not
// write through the slice it finds there.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.route) }

func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	switch path := r.URL.Path; {
	case path == "/tx":
		if allowed(w, r, http.MethodPost) {
			s.handleTx(w, r)
		}
	case strings.HasPrefix(path, "/kv/"):
		// One non-empty segment after /kv/, as the pattern /kv/{key} had.
		if key := path[len("/kv/"):]; key == "" || strings.Contains(key, "/") {
			http.NotFound(w, r)
		} else if allowed(w, r, http.MethodGet) {
			s.handleKV(w, key)
		}
	case path == "/healthz":
		if allowed(w, r, http.MethodGet) {
			_, _ = io.WriteString(w, "ok\n")
		}
	case path == "/stats":
		if allowed(w, r, http.MethodGet) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(s.StatsSnapshot())
		}
	case path == "/history":
		if allowed(w, r, http.MethodGet) {
			s.handleHistory(w, r)
		}
	default:
		http.NotFound(w, r)
	}
}

// allowed reports whether r uses the route's method, answering 405 with
// an Allow header when it does not. A GET route serves HEAD too.
func allowed(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method || method == http.MethodGet && r.Method == http.MethodHead {
		return true
	}
	if method == http.MethodGet {
		method = "GET, HEAD"
	}
	w.Header().Set("Allow", method)
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	return false
}

// jsonContentType is the Content-Type value of every hot-route reply,
// shared so that setting the header allocates nothing; net/http only
// reads it (TestRoutes checks it after serving).
var jsonContentType = []string{"application/json"}

func writeReply(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(body)
}

// handleHistory drains the shared recorder into the accumulated attempt
// log, stamps the whole log into the paper's vocabulary, and serves it
// as a trace file. Answers 409 when the server was built without
// Config.Record.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		http.Error(w, "history recording disabled; start the server with Record set (tmserve -record)",
			http.StatusConflict)
		return
	}
	s.histMu.Lock()
	defer s.histMu.Unlock()
	s.drainLocked()
	attempts := make([]*stm.AttemptRecord, 0, s.histLen)
	for _, seg := range s.histSegs {
		attempts = append(attempts, seg...)
	}
	nprocs := 1
	for _, a := range attempts {
		if a.Proc+1 > nprocs {
			nprocs = a.Proc + 1
		}
	}
	exec, err := conformance.StampInterned(attempts,
		func(id uint64) (core.Item, bool) { return core.Item(fmt.Sprintf("t%d", id)), true }, nprocs)
	if err != nil {
		http.Error(w, "stamping history: "+err.Error(), http.StatusInternalServerError)
		return
	}
	data, err := trace.EncodeWithMeta(exec, &trace.Meta{
		Source:         "tmserve",
		Engine:         s.store.Engine(0).Kind().String(),
		Partitions:     s.store.Partitions(),
		HistoryDropped: s.histDropped,
	})
	if err != nil {
		http.Error(w, "encoding history: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (s *Server) handleTx(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		http.Error(w, "server closed", http.StatusServiceUnavailable)
		return
	}
	st := getReqState()
	defer putReqState(st)
	var err error
	if st.body, err = readBody(r.Body, r.ContentLength, st.body); err != nil {
		if errors.Is(err, errBodyTooLarge) {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "bad request: reading the body: "+err.Error(), http.StatusBadRequest)
		}
		return
	}
	if st.cmds, err = decodeTxRequest(st.body, st.cmds); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(st.cmds) == 0 {
		http.Error(w, "empty command batch", http.StatusBadRequest)
		return
	}
	if !s.admit(int64(len(st.cmds))) {
		s.reject.Add(1)
		http.Error(w, "rate limited", http.StatusTooManyRequests)
		return
	}
	st.res = slices.Grow(st.res[:0], len(st.cmds))[:len(st.cmds)]
	st.parts = st.parts[:0]
	for _, c := range st.cmds {
		if part := s.store.PartitionOf(c.Key); !slices.Contains(st.parts, part) {
			st.parts = append(st.parts, part)
		}
	}

	// A batch that spans partitions is one transaction to the client, so
	// it commits through the scoped cross-partition path; one that stays
	// inside a partition goes through that partition's applier.
	if len(st.parts) > 1 {
		err = s.crossTx(st)
	} else {
		err = s.partTx(st, st.parts[0])
	}
	if err != nil {
		status := http.StatusServiceUnavailable
		var de *store.DurabilityError
		if errors.As(err, &de) {
			// Applied in memory, not durable: the server's log is poisoned
			// and this commit cannot be acknowledged.
			status = http.StatusInternalServerError
		}
		http.Error(w, err.Error(), status)
		return
	}
	st.out = AppendTxResponse(st.out[:0], st.res)
	writeReply(w, st.out)
}

// partTx hands a single-partition batch to its partition's applier and
// waits for the outcome. The stop flag is checked inside the enqueue
// transaction, so an enqueue can never commit after the applier's final
// drain (both orders of the two commits are handled: flag-first rejects
// here, enqueue-first is caught by the drain) — which is also why a
// pending that was enqueued is always answered on done.
func (s *Server) partTx(st *reqState, part int) error {
	p := &st.pend
	p.cmds, p.res = st.cmds, st.res
	var closed bool
	_ = s.store.Engine(part).Atomically(func(tx *stm.Tx) error {
		closed = stm.Get(tx, s.stopped[part])
		if !closed {
			s.queues[part].Put(tx, p)
		}
		return nil
	})
	if closed {
		return ErrClosed
	}
	return <-p.done
}

// crossTx applies a multi-partition batch atomically via store.CrossOn,
// on the handler's goroutine. The batch's keys name its partitions, so
// the footprint is declared and the body runs once: only those
// partitions lock, traffic on the rest is unaffected, and on a durable
// server the decision record makes the whole batch recover
// all-or-nothing. (The body is still written to tolerate re-execution,
// as every cross body must be: each run rewrites all the response
// slots.)
func (s *Server) crossTx(st *reqState) error {
	s.crossGate.RLock()
	defer s.crossGate.RUnlock()
	if s.closed.Load() {
		return ErrClosed
	}
	err := s.store.CrossOn(st.parts, func(ct *store.CrossTx[int64, int64]) error {
		applyCmds(ct, st.cmds, st.res, st.add)
		return nil
	})
	if err == nil {
		s.crosses.Add(1)
		s.cmds.Add(uint64(len(st.cmds)))
	}
	return err
}

// admit spends n tokens from the admission bucket (one transaction on
// partition 0's engine — admission is global, its serialization point
// deliberate; see tstructs.TBucket).
func (s *Server) admit(n int64) bool {
	if s.limiter == nil {
		return true
	}
	now := time.Now().UnixNano()
	ok := false
	_ = s.admitEng.Atomically(func(tx *stm.Tx) error {
		ok = s.limiter.TryTake(tx, now, n)
		return nil
	})
	return ok
}

func (s *Server) handleKV(w http.ResponseWriter, rawKey string) {
	if s.closed.Load() {
		http.Error(w, "server closed", http.StatusServiceUnavailable)
		return
	}
	key, err := strconv.ParseInt(rawKey, 10, 64)
	if err != nil {
		http.Error(w, "bad key: "+err.Error(), http.StatusBadRequest)
		return
	}
	if !s.admit(1) {
		s.reject.Add(1)
		http.Error(w, "rate limited", http.StatusTooManyRequests)
		return
	}
	v, ok := s.store.Get(key)
	st := getReqState()
	st.out = AppendKVResponse(st.out[:0], v, ok)
	writeReply(w, st.out)
	putReqState(st)
}

// StatsSnapshot returns the server's counters.
func (s *Server) StatsSnapshot() Stats {
	st := Stats{
		Engine:     s.store.Engine(0).Kind().String(),
		Partitions: s.store.Partitions(),
		Batches:    s.batches.Load(),
		Cmds:       s.cmds.Load(),
		CrossTxs:   s.crosses.Load(),
		Rejected:   s.reject.Load(),
		Store:      s.store.Stats(),
	}
	if s.recorder != nil {
		s.histMu.Lock()
		st.HistoryDropped = s.histDropped
		s.histMu.Unlock()
	}
	if ws, ok := s.store.WALStats(); ok {
		ack, _ := s.store.WALAck()
		st.WalAck = ack.String()
		st.Wal = &ws
	}
	return st
}

// Close stops accepting requests, wakes every applier, fails whatever
// was still queued with ErrClosed, waits for the appliers to exit and
// for cross batches in flight to commit, and on a durable server flushes and seals the WAL's tail segment — the
// graceful-shutdown path recovery recognizes as clean. The returned
// error is the seal's (nil for a non-durable server). Safe to call more
// than once.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		s.wg.Wait()
		return nil
	}
	for p := range s.stopped {
		_ = s.store.Engine(p).Atomically(func(tx *stm.Tx) error {
			stm.Set(tx, s.stopped[p], true)
			return nil
		})
	}
	if s.drainStop != nil {
		close(s.drainStop)
	}
	s.wg.Wait()
	s.crossGate.Lock() // waits out the cross batches in flight; later ones see closed
	s.crossGate.Unlock()
	return s.store.CloseWAL()
}
