package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcltm/internal/wal"
)

// reusableBody is a request body that can be rewound and sent again, so
// the allocation gate builds its request once.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// TestHandlerAllocBudget is the allocation gate of the served request
// path: whole-process allocations per request — handler, applier, store
// and WAL together — for the three request shapes the benchmark sends,
// on a server with an in-memory WAL, driven through Handler().ServeHTTP
// with a reusable writer and request so nothing of the harness is
// counted.
//
// The budgets are what the path costs today: the TQueue node and its
// link TVar (3 allocations per enqueue) and the log's queue array, which
// the writer takes whole with every batch, so enqueueing regrows it (1
// for one record, 3 for a transfer's two records and decision). A GET
// costs nothing: the Part handle store.Atomically passes its body comes
// from the store's pool. They are fixed numbers on purpose; a handle
// that escapes again costs 1.
// Decoding a body with encoding/json costs 9 allocations or more,
// encoding a reply 1, a per-request map or channel 2 or more each, a
// discovery run of the cross path 4: any of those coming back lands
// over the budget.
func TestHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, err := New(Config{Partitions: 4, Buckets: 64, WAL: wal.NewMemBackend()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	a, b := keyInPartition(t, s, 0), keyInPartition(t, s, 1)

	cases := []struct {
		name, method, path, body string
		budget                   float64
	}{
		{"GET /kv", http.MethodGet, "/kv/" + strconv.FormatInt(a, 10), "", 0},
		{"one-key incr", http.MethodPost, "/tx", fmt.Sprintf(`{"cmds":[{"op":"incr","key":%d,"value":1}]}`, a), 4},
		{"two-partition transfer", http.MethodPost, "/tx",
			fmt.Sprintf(`{"cmds":[{"op":"incr","key":%d,"value":-1},{"op":"incr","key":%d,"value":1}]}`, a, b), 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body, raw := &reusableBody{}, []byte(c.body)
			req, err := http.NewRequest(c.method, c.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Body, req.ContentLength = body, int64(len(raw))
			w := newReplyRecorder()
			serve := func() {
				body.Reset(raw)
				w.reset()
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					t.Fatalf("status %d: %s", w.status, w.body.String())
				}
			}
			for i := 0; i < 64; i++ {
				serve() // pools filled, TMap entries created, WAL buffers grown
			}
			if got := testing.AllocsPerRun(500, serve); got > c.budget {
				t.Errorf("%.1f allocs/op, budget %.0f", got, c.budget)
			}
		})
	}
}

// TestRoutes pins the hand-written router against what the ServeMux
// patterns it replaced answered: exact paths, one key segment, 405 with
// an Allow header on the wrong method, HEAD on GET routes.
func TestRoutes(t *testing.T) {
	_, ts := startServer(t, Config{Partitions: 2})
	cases := []struct {
		method, path string
		want         int
		allow        string
	}{
		{http.MethodGet, "/healthz", 200, ""},
		{http.MethodHead, "/healthz", 200, ""},
		{http.MethodGet, "/stats", 200, ""},
		{http.MethodGet, "/kv/1", 200, ""},
		{http.MethodHead, "/kv/1", 200, ""},
		{http.MethodGet, "/history", 409, ""}, // routed; recording is off
		{http.MethodPost, "/kv/1", 405, "GET, HEAD"},
		{http.MethodGet, "/tx", 405, "POST"},
		{http.MethodPut, "/tx", 405, "POST"},
		{http.MethodPost, "/stats", 405, "GET, HEAD"},
		{http.MethodGet, "/kv/", 404, ""},
		{http.MethodGet, "/kv", 404, ""},
		{http.MethodGet, "/kv/1/2", 404, ""},
		{http.MethodPost, "/tx/", 404, ""},
		{http.MethodGet, "/", 404, ""},
		{http.MethodGet, "/statsx", 404, ""},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want || resp.Header.Get("Allow") != c.allow {
			t.Errorf("%s %s: status %d Allow %q, want %d %q",
				c.method, c.path, resp.StatusCode, resp.Header.Get("Allow"), c.want, c.allow)
		}
	}
	resp, err := http.Get(ts.URL + "/kv/1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("GET /kv Content-Type %q, want application/json", ct)
	}
	// Every hot-route reply carries the one shared value slice (see
	// Handler): net/http must have left it as it was.
	if len(jsonContentType) != 1 || jsonContentType[0] != "application/json" {
		t.Errorf("shared Content-Type value is %q after serving, want [application/json]", jsonContentType)
	}
}

// TestPooledStateHammer drives the recycled request state from many
// connections at once — single-partition batches through the appliers,
// cross batches on the handlers' own goroutines, queries — and closes
// the server in the middle of it. Run under -race -count=10 it is the
// check on the ownership rule: were an applier to touch a pending after
// answering it, or two requests to share a reqState, the detector sees
// the write. Without the detector it still checks that every 200 carries
// its own request's results (a put of a per-request value and the get
// that reads it back), that requests after Close get 503, and that the
// account keys — only ever moved between, by batches that are atomic on
// either path — still sum to zero.
func TestPooledStateHammer(t *testing.T) {
	const (
		clients = 12
		parts   = 4
		keys    = 4 // scratch keys and account keys per partition
	)
	s, err := New(Config{Partitions: parts, Buckets: 16, WAL: wal.NewMemBackend(), BatchMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	scratch, account := make([][]int64, parts), make([][]int64, parts)
	for k, short := int64(0), parts; short > 0; k++ {
		p := s.Store().PartitionOf(k)
		switch {
		case len(scratch[p]) < keys:
			scratch[p] = append(scratch[p], k)
		case len(account[p]) < keys:
			if account[p] = append(account[p], k); len(account[p]) == keys {
				short--
			}
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if t.Failed() || time.Now().After(deadline) {
				t.Fatalf("gave up waiting for %s", what)
			}
		}
	}

	var refused atomic.Int64 // 503s seen
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p, x := (c+i)%parts, i%keys
				mark := int64(c*1_000_000 + i + 1) // no two requests share one
				var resp *http.Response
				var err error
				switch i % 3 {
				case 0: // one partition, four commands: the applier path
					resp, err = client.Post(ts.URL+"/tx", "application/json", bytes.NewReader(AppendTxRequest(nil, []Command{
						{Op: "put", Key: scratch[p][x], Value: mark},
						{Op: "get", Key: scratch[p][x]},
						{Op: "incr", Key: account[p][x], Value: mark},
						{Op: "incr", Key: account[p][(x+1)%keys], Value: -mark},
					})))
				case 1: // two partitions: the cross path
					resp, err = client.Post(ts.URL+"/tx", "application/json", bytes.NewReader(AppendTxRequest(nil, []Command{
						{Op: "incr", Key: account[p][x], Value: -mark},
						{Op: "incr", Key: account[(p+1)%parts][x], Value: mark},
					})))
				default:
					resp, err = client.Get(fmt.Sprintf("%s/kv/%d", ts.URL, account[p][x]))
				}
				if err != nil {
					t.Error(err)
					return
				}
				reply, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusServiceUnavailable:
					refused.Add(1)
				case http.StatusOK:
					want := fmt.Sprintf(`{"results":[{"value":%d,"found":true},{"value":%d,"found":true},`, mark, mark)
					if i%3 == 0 && !bytes.HasPrefix(reply, []byte(want)) {
						t.Errorf("reply %q does not begin %q: not this request's results", reply, want)
						return
					}
				default:
					t.Errorf("status %d: %s", resp.StatusCode, reply)
					return
				}
			}
		}()
	}

	waitFor("cross traffic", func() bool { return s.StatsSnapshot().CrossTxs >= 50 })
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	waitFor("every client to be refused", func() bool { return refused.Load() >= clients })
	close(stop)
	wg.Wait()

	var sum int64
	for _, keys := range account {
		for _, k := range keys {
			v, _ := s.Store().Get(k)
			sum += v
		}
	}
	if sum != 0 {
		t.Errorf("account keys sum to %d after the run, want 0: some batch applied in part", sum)
	}
}
