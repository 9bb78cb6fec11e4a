package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"pcltm/internal/wal"
	"pcltm/server"
	"pcltm/stm"
	"pcltm/store"
)

// system is one booted instance of the program under test: the store,
// and for served workloads the server around it on a loopback socket.
type system struct {
	w   *workload
	gen *generator

	st      *store.Store[int64, int64]
	srv     *server.Server // nil for embedded_hot
	handler http.Handler
	httpSrv *http.Server
	base    string // http://127.0.0.1:port
	tr      *http.Transport

	backend  wal.Backend   // nil without a WAL
	walDir   string        // FileBackend directory, removed on close
	recorder *stm.Recorder // embedded traced run only; the server owns its own
	recoverS float64       // write_durable: timed re-open of the fixed log
}

// boot builds the system for w and returns it with the set-up time in
// seconds. record attaches the history recorder (traced run). tmp is a
// directory inside the checkout for the file WAL.
func boot(g *generator, record bool, tmp string) (*system, float64, error) {
	w := g.w
	s := &system{w: w, gen: g}
	start := time.Now()

	sc := w.storeConfig()
	cfg := server.Config{Partitions: sc.Partitions, Engine: sc.Engine, Buckets: sc.Buckets,
		Record: record, HistoryCap: 1 << 23}
	switch w.wal {
	case "file":
		dir, err := os.MkdirTemp(tmp, "wal-")
		if err != nil {
			return nil, 0, err
		}
		s.walDir = dir
		if err := s.writeFixedLog(dir); err != nil {
			s.close()
			return nil, 0, err
		}
		fb, err := wal.NewFileBackend(dir)
		if err != nil {
			s.close()
			return nil, 0, err
		}
		s.backend = fb
	case "mem":
		s.backend = wal.NewMemBackend()
	}
	cfg.WAL, cfg.WALAck, cfg.WALWindow = s.backend, wal.AckGroup, 0

	if !w.served {
		if record {
			s.recorder = stm.NewRecorder()
			sc.EngineOptions = func(int) []stm.Option { return []stm.Option{stm.WithRecorder(s.recorder)} }
		}
		s.st = store.New[int64, int64](sc)
	} else {
		reopen := time.Now()
		srv, err := server.New(cfg)
		if err != nil {
			s.close()
			return nil, 0, err
		}
		if w.wal == "file" {
			s.recoverS = time.Since(reopen).Seconds()
			if rec := srv.Recovery(); !rec.Clean || len(rec.Records) != w.logTxs {
				_ = srv.Close()
				s.close()
				return nil, 0, fmt.Errorf("fixed log recovered %d records (clean=%v), want %d clean",
					len(rec.Records), rec.Clean, w.logTxs)
			}
		}
		s.srv, s.st, s.handler = srv, srv.Store(), srv.Handler()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, 0, err
		}
		s.base = "http://" + ln.Addr().String()
		hs := &http.Server{Handler: s.handler}
		s.httpSrv = hs
		go func() { _ = hs.Serve(ln) }() // returns when shutdown() calls hs.Close
		s.tr = &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16}
	}

	if w.preset != 0 {
		if err := s.preload(); err != nil {
			s.close()
			return nil, 0, err
		}
	}
	return s, time.Since(start).Seconds(), nil
}

// writeFixedLog writes write_durable's seeded log: logTxs
// single-key increments through a durable store, then a clean close.
// AckAsync only spares the writer an fsync wait per record; with one
// committer the bytes are the same under any ack mode, and Close
// flushes and seals them.
func (s *system) writeFixedLog(dir string) error {
	fb, err := wal.NewFileBackend(dir)
	if err != nil {
		return err
	}
	st, _, err := store.OpenDurable(store.DurableConfig[int64, int64]{
		Store:   s.w.storeConfig(),
		Backend: fb, Ack: wal.AckAsync, Codec: store.Int64Codec(),
	})
	if err != nil {
		return err
	}
	for i := uint64(0); i < uint64(s.w.logTxs); i++ {
		st.Update(s.gen.fixedLogKey(i), func(v int64, _ bool) int64 { return v + 1 })
	}
	return st.CloseWAL()
}

// preload stores the preset under every key through the store's public
// path (so a recorded run sees the preload as history and a WAL sees it
// as commits). Sixteen keys per transaction: larger write sets commit
// super-linearly and leave the engine's pooled transaction state
// enlarged, which would tax every later transaction.
func (s *system) preload() error {
	const perTx = 16
	byPart := make([][]int64, partitions)
	for _, k := range s.gen.keys {
		p := s.gen.route(k)
		byPart[p] = append(byPart[p], k)
	}
	for p, keys := range byPart {
		for len(keys) > 0 {
			n := min(perTx, len(keys))
			batch := keys[:n]
			keys = keys[n:]
			err := s.st.Atomically(p, func(tx *stm.Tx, ph *store.Part[int64, int64]) error {
				for _, k := range batch {
					ph.Put(tx, k, s.w.preset)
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("preload: %w", err)
			}
		}
	}
	return nil
}

// shutdown stops serving and seals the WAL — the graceful path; the
// durability check then reads the log back. close() still has to run.
func (s *system) shutdown() error {
	if s.httpSrv != nil {
		s.tr.CloseIdleConnections()
		_ = s.httpSrv.Close()
		s.httpSrv = nil
	}
	if s.srv != nil {
		srv := s.srv
		s.srv = nil
		return srv.Close()
	}
	return nil
}

// close releases everything, including the temp WAL directory.
func (s *system) close() {
	_ = s.shutdown()
	if s.walDir != "" {
		_ = os.RemoveAll(s.walDir)
	}
}

// client is one load-generating goroutine's state: its slice of the
// request stream, its reusable buffers, and what it saw fail.
type client struct {
	sys    *system
	first  uint64 // stream indices first, first+stride, ...
	stride uint64
	count  uint64 // requests taken so far
	failed []uint64

	hc   *http.Client
	body bytes.Buffer
	rd   bytes.Reader
	resp [256]byte
	sink int64
}

func (s *system) newClient(first, stride uint64) *client {
	c := &client{sys: s, first: first, stride: stride}
	if s.w.served {
		c.hc = &http.Client{Transport: s.tr, Timeout: 30 * time.Second}
	}
	return c
}

// step takes the client's next request off the stream, runs it on the
// workload's user-facing path, and notes it if it failed.
func (c *client) step() {
	idx := c.first + c.count*c.stride
	c.count++
	r := c.sys.gen.at(idx)
	if !c.do(&r) {
		c.failed = append(c.failed, idx)
	}
}

func (c *client) ran() ran { return ran{first: c.first, stride: c.stride, count: c.count} }

// httpRequest renders r on the server's wire format.
func (c *client) httpRequest(r *request) *http.Request {
	if r.kind == kindGet {
		req, _ := http.NewRequest(http.MethodGet, c.sys.base+"/kv/"+strconv.FormatInt(r.keys[0], 10), nil)
		return req
	}
	b := &c.body
	b.Reset()
	b.WriteString(`{"cmds":[`)
	cmd := func(key, delta int64) {
		b.WriteString(`{"op":"incr","key":`)
		b.WriteString(strconv.FormatInt(key, 10))
		b.WriteString(`,"value":`)
		b.WriteString(strconv.FormatInt(delta, 10))
		b.WriteByte('}')
	}
	if r.kind == kindTransfer {
		cmd(r.keys[0], -1)
		b.WriteByte(',')
		cmd(r.keys[1], 1)
	} else {
		cmd(r.keys[0], 1)
	}
	b.WriteString(`]}`)
	c.rd.Reset(b.Bytes())
	req, _ := http.NewRequest(http.MethodPost, c.sys.base+"/tx", &c.rd)
	req.Header.Set("Content-Type", "application/json")
	return req
}

// goodReply checks one response: 2xx, and a GET must have found its key
// (every key of a workload with GETs is preloaded).
func goodReply(r *request, status int, body []byte) bool {
	if status != http.StatusOK {
		return false
	}
	return r.kind != kindGet || bytes.Contains(body, []byte(`"found":true`))
}

// viaHTTP is level 1: the request over the loopback socket.
func (c *client) viaHTTP(r *request) bool {
	resp, err := c.hc.Do(c.httpRequest(r))
	if err != nil {
		return false
	}
	n, _ := io.ReadFull(resp.Body, c.resp[:])
	_, _ = io.Copy(io.Discard, resp.Body) // to EOF, so the connection is reused
	_ = resp.Body.Close()
	return goodReply(r, resp.StatusCode, c.resp[:n])
}

// replyBuffer is the least http.ResponseWriter the handler needs, so
// level 2 costs the handler and nothing else.
type replyBuffer struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *replyBuffer) Header() http.Header         { return w.header }
func (w *replyBuffer) WriteHeader(status int)      { w.status = status }
func (w *replyBuffer) Write(p []byte) (int, error) { return w.body.Write(p) }

// viaHandler is level 2: Server.Handler().ServeHTTP with no socket.
func (c *client) viaHandler(r *request) bool {
	w := replyBuffer{header: make(http.Header, 2), status: http.StatusOK}
	c.sys.handler.ServeHTTP(&w, c.httpRequest(r))
	return goodReply(r, w.status, w.body.Bytes())
}

// viaStore is level 3, and the whole path of embedded_hot: the same
// operations as direct calls on the store.
func (c *client) viaStore(r *request) bool {
	st := c.sys.st
	bump := func(v int64, _ bool) int64 { return v + 1 }
	switch r.kind {
	case kindGet:
		v, ok := st.Get(r.keys[0])
		c.sink += v
		return ok
	case kindIncr:
		return st.Atomically(st.PartitionOf(r.keys[0]), func(tx *stm.Tx, p *store.Part[int64, int64]) error {
			p.Update(tx, r.keys[0], bump)
			return nil
		}) == nil
	case kindTransfer:
		return st.Cross(func(ct *store.CrossTx[int64, int64]) error {
			a, _ := ct.Get(r.keys[0])
			ct.Put(r.keys[0], a-1)
			b, _ := ct.Get(r.keys[1])
			ct.Put(r.keys[1], b+1)
			return nil
		}) == nil
	case kindHotRW:
		return st.Atomically(st.PartitionOf(r.keys[0]), func(tx *stm.Tx, p *store.Part[int64, int64]) error {
			for _, k := range r.keys {
				p.Update(tx, k, bump)
			}
			return nil
		}) == nil
	default: // kindHotRO
		var sum int64
		err := st.Atomically(st.PartitionOf(r.keys[0]), func(tx *stm.Tx, p *store.Part[int64, int64]) error {
			sum = 0
			for _, k := range r.keys {
				v, _ := p.Get(tx, k)
				sum += v
			}
			return nil
		})
		c.sink += sum
		return err == nil
	}
}

// do runs r on the workload's user-facing path.
func (c *client) do(r *request) bool {
	if c.sys.w.served {
		return c.viaHTTP(r)
	}
	return c.viaStore(r)
}
