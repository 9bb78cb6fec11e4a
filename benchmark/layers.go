package main

import (
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"pcltm/internal/certify"
	tracefile "pcltm/internal/trace"
	"pcltm/internal/wal"
	"pcltm/server"
	"pcltm/stm"
	"pcltm/store"
	"pcltm/tstructs"
)

// This file holds what the traced run needs from each layer below the
// store: replicas to time (a TMap, bare TVars, a WAL of its own), the
// program's counters, and the certifier.

// scratch holds the structures levels 4 and 5 run on: one TMap and one
// array of bare TVars, both on one engine of the workload's kind, loaded
// like the store (same keys, same load factor). Nothing checks their
// final state; they exist to be timed.
type scratch struct {
	eng  *stm.Engine
	m    *tstructs.TMap[int64, int64]
	vars []*stm.TVar[int64]
	sink int64
}

func newScratch(g *generator) *scratch {
	buckets := g.w.storeConfig().Buckets
	if buckets == 0 {
		buckets = tstructs.DefaultBuckets
	}
	sc := &scratch{
		eng:  stm.NewEngine(g.w.engine),
		m:    tstructs.NewTMap[int64, int64](buckets * partitions),
		vars: make([]*stm.TVar[int64], g.maxKey()+1),
	}
	keys := g.keys
	for len(keys) > 0 {
		n := min(16, len(keys))
		batch := keys[:n]
		keys = keys[n:]
		_ = sc.eng.Atomically(func(tx *stm.Tx) error {
			for _, k := range batch {
				sc.m.Put(tx, k, g.w.preset)
			}
			return nil
		})
	}
	for i := range sc.vars {
		sc.vars[i] = stm.NewTVar(g.w.preset)
	}
	return sc
}

// viaTMap is level 4: the request's reads and writes on one TMap in one
// transaction of one engine — no partitions, no routing, no WAL.
func (sc *scratch) viaTMap(r *request) bool {
	return sc.eng.Atomically(func(tx *stm.Tx) error {
		switch r.kind {
		case kindGet, kindHotRO:
			for _, k := range r.keys[:r.n] {
				v, _ := sc.m.Get(tx, k)
				sc.sink += v
			}
		case kindTransfer:
			a, _ := sc.m.Get(tx, r.keys[0])
			sc.m.Put(tx, r.keys[0], a-1)
			b, _ := sc.m.Get(tx, r.keys[1])
			sc.m.Put(tx, r.keys[1], b+1)
		default:
			for _, k := range r.keys[:r.n] {
				v, _ := sc.m.Get(tx, k)
				sc.m.Put(tx, k, v+1)
			}
		}
		return nil
	}) == nil
}

// viaSTM is level 5: a bare transaction of the same shape — as many
// TVar reads and writes as the request has keys.
func (sc *scratch) viaSTM(r *request) bool {
	return sc.eng.Atomically(func(tx *stm.Tx) error {
		switch r.kind {
		case kindGet, kindHotRO:
			for _, k := range r.keys[:r.n] {
				sc.sink += stm.Get(tx, sc.vars[k])
			}
		case kindTransfer:
			stm.Set(tx, sc.vars[r.keys[0]], stm.Get(tx, sc.vars[r.keys[0]])-1)
			stm.Set(tx, sc.vars[r.keys[1]], stm.Get(tx, sc.vars[r.keys[1]])+1)
		default:
			for _, k := range r.keys[:r.n] {
				stm.Set(tx, sc.vars[k], stm.Get(tx, sc.vars[k])+1)
			}
		}
		return nil
	}) == nil
}

// walAppender logs requests to a fresh log of its own as the store
// would — the same encoded payloads, on the workload's backend, under
// its ack mode (AckGroup, window 0) — so the log can be timed alone.
type walAppender struct {
	g       *generator
	log     *wal.Log
	cleanup func()
	codec   store.Codec[int64, int64]
	// Sequences are dense per partition; mu orders their allocation the
	// way the store's per-partition sequence TVar does.
	mu  sync.Mutex
	seq [partitions]uint64
}

func newWALAppender(g *generator, tmp string) (*walAppender, error) {
	a := &walAppender{g: g, codec: store.Int64Codec(), cleanup: func() {}}
	var backend wal.Backend = wal.NewMemBackend()
	if g.w.wal == "file" {
		dir, err := os.MkdirTemp(tmp, "walpass-")
		if err != nil {
			return nil, err
		}
		a.cleanup = func() { _ = os.RemoveAll(dir) }
		if backend, err = wal.NewFileBackend(dir); err != nil {
			a.cleanup()
			return nil, err
		}
	}
	var err error
	if a.log, _, err = wal.Open(backend, wal.Options{Ack: wal.AckGroup, Partitions: partitions}); err != nil {
		a.cleanup()
		return nil, err
	}
	return a, nil
}

// append logs r's writes and waits for the acknowledgement: one record,
// or for a transfer one record per partition plus the decision record.
// A request that writes nothing appends nothing.
func (a *walAppender) append(r *request, val int64) error {
	if r.writes() == 0 {
		return nil
	}
	var kb, vb [10]byte
	op := func(k, v int64) []byte {
		return wal.AppendOp(nil, false, a.codec.AppendKey(kb[:0], k), a.codec.AppendVal(vb[:0], v))
	}
	a.mu.Lock()
	if r.kind == kindTransfer {
		pa, pb := a.g.route(r.keys[0]), a.g.route(r.keys[1])
		a.seq[pa]++
		a.seq[pb]++
		wait, err := a.log.AppendCross([]wal.CrossPart{
			{Part: pa, Seq: a.seq[pa], Nops: 1, Ops: op(r.keys[0], val-1)},
			{Part: pb, Seq: a.seq[pb], Nops: 1, Ops: op(r.keys[1], val+1)},
		}) // enqueued in sequence order; awaited outside the lock
		a.mu.Unlock()
		if err != nil {
			return err
		}
		return wait()
	}
	p := a.g.route(r.keys[0])
	a.seq[p]++
	seq := a.seq[p]
	a.mu.Unlock()
	// One op per record, as many records as the request has writes
	// (embedded_hot has no WAL, so in practice one).
	return a.log.Append(p, seq, 1, op(r.keys[0], val))
}

func (a *walAppender) close() error {
	err := a.log.Close()
	a.cleanup()
	return err
}

// concurrentAppend has nproc appenders log requests 0..n-1 between them
// and returns the mean microseconds a writing request waited.
func concurrentAppend(g *generator, nproc, n int, tmp string) (float64, error) {
	a, err := newWALAppender(g, tmp)
	if err != nil {
		return 0, err
	}
	var mu sync.Mutex
	var total time.Duration
	var writers int
	var firstErr error
	var wg sync.WaitGroup
	for k := 0; k < nproc; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine time.Duration
			var count int
			var err error
			for i := k; i < n && err == nil; i += nproc {
				r := g.at(uint64(i))
				if r.writes() == 0 {
					continue
				}
				t0 := time.Now()
				err = a.append(&r, int64(i))
				mine += time.Since(t0)
				count++
			}
			mu.Lock()
			total += mine
			writers += count
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err := a.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return 0, fmt.Errorf("concurrent wal pass: %w", firstErr)
	}
	return float64(total) / float64(max(1, writers)) / float64(time.Microsecond), nil
}

// counters is a snapshot of every counter the program keeps.
type counters struct {
	srv server.Stats // zero for embedded_hot
	stm stm.Stats    // summed over partitions
	wal wal.Stats
}

func (s *system) counters() counters {
	var c counters
	if s.srv != nil {
		c.srv = s.srv.StatsSnapshot()
	}
	for _, st := range s.st.Stats() {
		c.stm.Commits += st.Commits
		c.stm.Retries += st.Retries
		c.stm.LockFails += st.LockFails
	}
	c.wal, _ = s.st.WALStats()
	return c
}

// since subtracts an earlier snapshot; MaxBatch is a high-water mark and
// stays as read.
func (c counters) since(b counters) counters {
	c.srv.Batches -= b.srv.Batches
	c.srv.Cmds -= b.srv.Cmds
	c.srv.CrossTxs -= b.srv.CrossTxs
	c.srv.Rejected -= b.srv.Rejected
	c.stm.Commits -= b.stm.Commits
	c.stm.Retries -= b.stm.Retries
	c.stm.LockFails -= b.stm.LockFails
	c.wal.Appends -= b.wal.Appends
	c.wal.Records -= b.wal.Records
	c.wal.Syncs -= b.wal.Syncs
	c.wal.Bytes -= b.wal.Bytes
	c.wal.Crosses -= b.wal.Crosses
	return c
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// report sets the counter metrics of a pass that ran requests 0..n-1.
func (c counters) report(res *result, g *generator, n int) {
	res.set("server.cmds_per_batch", ratio(c.srv.Cmds, c.srv.Batches))
	res.set("server.cross_txs", float64(c.srv.CrossTxs))
	res.set("server.rejected", float64(c.srv.Rejected))
	res.set("stm.commits", float64(c.stm.Commits))
	res.set("stm.retries_per_commit", ratio(c.stm.Retries, c.stm.Commits))
	res.set("stm.lock_fails_per_commit", ratio(c.stm.LockFails, c.stm.Commits))
	res.set("wal.appends_per_sync", ratio(c.wal.Appends, c.wal.Syncs))
	res.set("wal.max_batch", float64(c.wal.MaxBatch))
	res.set("wal.syncs", float64(c.wal.Syncs))
	res.set("wal.bytes_per_record", ratio(c.wal.Bytes, c.wal.Records))
	res.set("wal.crosses", float64(c.wal.Crosses))
	var writes uint64
	for i := 0; i < n; i++ {
		r := g.at(uint64(i))
		writes += uint64(r.writes())
	}
	// A key and a value are an int64 each: 16 bytes of user data a write.
	res.set("wal.bytes_per_user_byte", ratio(c.wal.Bytes, 16*writes))
}

// certifyHistory has everything the recorder saw since boot judged for
// strict serializability and returns the verdict; an error means no
// verdict could be had.
func certifyHistory(res *result, sys *system) (certify.Verdict, error) {
	t0 := time.Now()
	var h *certify.History
	if sys.srv != nil {
		w := replyBuffer{header: make(http.Header), status: http.StatusOK}
		req, _ := http.NewRequest(http.MethodGet, "/history", nil)
		sys.handler.ServeHTTP(&w, req)
		if w.status != http.StatusOK {
			return certify.Unknown, fmt.Errorf("certify: /history answered %d: %s", w.status, w.body.String())
		}
		exec, meta, err := tracefile.DecodeFile(w.body.Bytes())
		if err != nil {
			return certify.Unknown, fmt.Errorf("certify: decoding /history: %w", err)
		}
		if meta != nil && meta.HistoryDropped > 0 {
			return certify.Unknown, fmt.Errorf("certify: the server dropped %d recorded attempts; raise HistoryCap", meta.HistoryDropped)
		}
		h = certify.FromExecution(exec)
	} else {
		b := certify.NewBuilder()
		b.Add(sys.recorder.Take())
		var err error
		if h, err = b.Finish(); err != nil {
			return certify.Unknown, fmt.Errorf("certify: %w", err)
		}
	}
	res.set("certify.load_s", time.Since(t0).Seconds())
	rep := certify.Check(h, certify.StrictSerializability)
	fmt.Printf("  certificate: %s\n", rep)
	res.set("certify.check_s", rep.Elapsed.Seconds())
	res.set("certify.txns", float64(rep.Txns))
	return rep.Verdict, nil
}
