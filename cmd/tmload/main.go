// Command tmload is the open-loop load generator for tmserve: it offers
// requests at a fixed arrival rate regardless of how fast the server
// answers, and measures each response's latency from its *scheduled*
// arrival instant — the coordinated-omission-safe discipline of
// internal/hist. A slow server therefore inflates the tail instead of
// silently throttling the measurement.
//
//	tmload -url http://127.0.0.1:7070 [-rate 200,500,1000] [-duration 5s]
//	       [-conns 4] [-keys 1024] [-read-frac 0.5] [-batch 4] [-cross-frac 0]
//	       [-retry-for 0] [-json BENCH_serve.json] [-hist latency.json] [-strict]
//
// Each arrival is one HTTP request: a GET /kv/{key} query with
// probability -read-frac, else a POST /tx carrying -batch incr
// commands. A write normally aims all its commands at one key (one
// partition — the applier fast path); with probability -cross-frac (a
// percentage) it spreads them over -batch distinct random keys instead,
// an atomic multi-key group that usually spans partitions and so
// commits through the server's scoped cross-partition path. -rate takes
// a comma-separated sweep; each point runs for -duration and emits one
// benchfmt record (Pattern "openloop", Structure "served", stamped with
// cross_frac when set) with p50/p99/p999 from the latency histogram and
// the runner-class stamp. -hist additionally writes the raw histograms
// (one per rate point) so CI can archive full distributions, not just
// three quantiles. -strict exits nonzero if any response was non-2xx —
// the serve-smoke gate.
//
// -retry-for gives each arrival a retry budget for transient connection
// errors (dial refused, reset, a connection dying mid-response): capped
// exponential backoff with per-arrival jitter, so a crash-recovery load
// test rides through the server's restart window instead of reporting
// the outage as failures. Transport errors are counted separately from
// non-2xx — the transp column and the transport_errs benchfmt field —
// and do not trip -strict; a retried arrival's latency still runs from
// its scheduled instant, so downtime shows up in the tail, honestly.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pcltm/internal/benchfmt"
	"pcltm/internal/hist"
	"pcltm/server"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:7070", "tmserve base URL")
	rates := flag.String("rate", "200", "comma-separated offered request rates (req/s)")
	duration := flag.Duration("duration", 5*time.Second, "run length per rate point")
	conns := flag.Int("conns", 4, "concurrent responder workers (and idle conns kept to the host)")
	keys := flag.Int("keys", 1024, "keyspace size; preloaded before measuring")
	readFrac := flag.Float64("read-frac", 0.5, "fraction of arrivals that are GET /kv queries")
	batch := flag.Int("batch", 4, "incr commands per POST /tx write request")
	crossFrac := flag.Int("cross-frac", 0, "percent of write requests that are atomic multi-key groups over distinct random keys (usually cross-partition)")
	jsonPath := flag.String("json", "", "write benchfmt records to this file (\"-\" = stdout)")
	histPath := flag.String("hist", "", "write per-rate latency histograms to this file")
	strict := flag.Bool("strict", false, "exit nonzero if any response was non-2xx")
	retryFor := flag.Duration("retry-for", 0, "per-arrival retry budget for transient connection errors (0 = no retries)")
	flag.Parse()

	base := strings.TrimRight(*url, "/")
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: *conns},
		Timeout:   30 * time.Second,
	}

	engine, partitions, err := serverInfo(client, base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmload: cannot reach %s: %v\n", base, err)
		os.Exit(1)
	}
	if err := preload(client, base, *keys); err != nil {
		fmt.Fprintf(os.Stderr, "tmload: preload: %v\n", err)
		os.Exit(1)
	}

	var records []benchfmt.Record
	var hists []ratePoint
	var anyNon2xx uint64
	fmt.Printf("tmload — open-loop against %s (%s, %d partitions)\n", base, engine, partitions)
	fmt.Printf("%-10s %10s %10s %10s %8s %10s %10s %10s\n",
		"rate", "done", "non2xx", "transp", "ach/s", "p50", "p99", "p999")
	for _, rate := range parseRates(*rates) {
		res := runPoint(client, base, rate, *duration, *conns, *keys, *readFrac, *batch, *crossFrac, *retryFor)
		anyNon2xx += res.Non2xx
		achieved := float64(res.Done) / res.Elapsed.Seconds()
		p50, p99, p999 := res.Hist.Quantile(0.50), res.Hist.Quantile(0.99), res.Hist.Quantile(0.999)
		fmt.Printf("%-10.0f %10d %10d %10d %8.0f %10s %10s %10s\n",
			rate, res.Done, res.Non2xx, res.Transport, achieved,
			time.Duration(p50), time.Duration(p99), time.Duration(p999))

		rec := benchfmt.Record{
			Engine: engine, Pattern: "openloop", Workers: *conns,
			Vars: *keys, Structure: "served", Partitions: partitions,
			ElapsedNS:  res.Elapsed.Nanoseconds(),
			Throughput: achieved,
			Commits:    res.Done - res.Errors,
			RateRPS:    rate,
			P50NS:      p50, P99NS: p99, P999NS: p999,
			Non2xx:        res.Non2xx,
			TransportErrs: res.Transport,
			CrossFrac:     *crossFrac,
		}
		benchfmt.StampRunner(&rec)
		records = append(records, rec)
		hists = append(hists, ratePoint{
			RateRPS: rate, Scheduled: res.Scheduled, Done: res.Done,
			Errors: res.Errors, Non2xx: res.Non2xx, TransportErrs: res.Transport,
			Hist: res.Hist,
		})
	}

	if *jsonPath != "" {
		if err := benchfmt.WriteJSON(*jsonPath, records); err != nil {
			fmt.Fprintf(os.Stderr, "tmload: %v\n", err)
			os.Exit(1)
		}
	}
	if *histPath != "" {
		data, err := json.MarshalIndent(hists, "", "  ")
		if err == nil {
			err = os.WriteFile(*histPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmload: %v\n", err)
			os.Exit(1)
		}
	}
	if *strict && anyNon2xx > 0 {
		fmt.Fprintf(os.Stderr, "tmload: %d non-2xx responses under -strict\n", anyNon2xx)
		os.Exit(1)
	}
}

// ratePoint is one entry of the -hist artifact: the full latency
// distribution at one offered rate. Errors is the total failed
// arrivals; Non2xx and TransportErrs break it down by blame (server
// answer vs. connection noise; TransportErrs also counts retried
// errors that eventually succeeded).
type ratePoint struct {
	RateRPS       float64 `json:"rate_rps"`
	Scheduled     uint64  `json:"scheduled"`
	Done          uint64  `json:"done"`
	Errors        uint64  `json:"errors"`
	Non2xx        uint64  `json:"non2xx"`
	TransportErrs uint64  `json:"transport_errs"`
	Hist          *hist.H `json:"hist"`
}

func parseRates(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || r <= 0 {
			fmt.Fprintf(os.Stderr, "tmload: bad rate %q\n", part)
			os.Exit(2)
		}
		out = append(out, r)
	}
	return out
}

// serverInfo labels the records with what is actually serving: engine
// kind and partition count from GET /stats.
func serverInfo(client *http.Client, base string) (string, int, error) {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", 0, err
	}
	return st.Engine, st.Partitions, nil
}

// preload puts every key once so measured GETs hit existing keys, in
// chunks of 128 commands per request.
func preload(client *http.Client, base string, keys int) error {
	const chunk = 128
	for lo := 0; lo < keys; lo += chunk {
		hi := lo + chunk
		if hi > keys {
			hi = keys
		}
		cmds := make([]server.Command, 0, hi-lo)
		for k := lo; k < hi; k++ {
			cmds = append(cmds, server.Command{Op: "put", Key: int64(k), Value: int64(k)})
		}
		if err := postTx(client, base, cmds); err != nil {
			return err
		}
	}
	return nil
}

// postTx renders cmds with the server's own append-style encoder — so
// the generator measures the server, not its own marshalling — into a
// fresh slice: the transport may still be reading a request's body after
// the response has come back, so the bytes are not reused.
func postTx(client *http.Client, base string, cmds []server.Command) error {
	body := server.AppendTxRequest(nil, cmds)
	resp, err := client.Post(base+"/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return statusError{code: resp.StatusCode}
	}
	return nil
}

// pointResult is one rate point's outcome: the open-loop measurement
// plus the error breakdown. Non2xx counts server answers outside 2xx;
// Transport counts transient connection errors (retried or given up).
type pointResult struct {
	hist.OpenLoopResult
	Non2xx    uint64
	Transport uint64
}

// runPoint drives one rate point through hist.OpenLoop. The Send
// closure is called from cfg.Workers goroutines concurrently, so key
// picking uses an atomic sequence hashed through splitmix64 — no shared
// rand.Rand lock on the measured path; the same hash seeds each
// arrival's retry jitter.
func runPoint(client *http.Client, base string, rate float64, duration time.Duration,
	conns, keys int, readFrac float64, batch, crossFrac int, retryFor time.Duration) pointResult {
	var seq atomic.Uint64
	var non2xx, retries, giveups atomic.Uint64
	rt := &retrier{budget: retryFor, sleep: time.Sleep, retries: &retries, giveups: &giveups}
	readCut := uint64(readFrac * (1 << 32))
	res := hist.OpenLoop(hist.OpenLoopConfig{
		Rate:     rate,
		Duration: duration,
		Workers:  conns,
		Send: func() error {
			h := splitmix64(seq.Add(1))
			send := func() error {
				if h>>32 < readCut {
					return getKV(client, base, int64(h%uint64(keys)))
				}
				cmds := make([]server.Command, batch)
				if int(splitmix64(h^0x5ca1ab1e)%100) < crossFrac {
					// Atomic multi-key group: distinct random keys, almost
					// always spanning partitions → the scoped cross path.
					for i := range cmds {
						cmds[i] = server.Command{Op: "incr", Key: int64(splitmix64(h+uint64(i)) % uint64(keys))}
					}
				} else {
					// Single-key batch: one partition, the applier fast path.
					for i := range cmds {
						cmds[i] = server.Command{Op: "incr", Key: int64(h % uint64(keys))}
					}
				}
				return postTx(client, base, cmds)
			}
			err := rt.do(send, h)
			var se statusError
			if errors.As(err, &se) {
				non2xx.Add(1)
			}
			return err
		},
	})
	return pointResult{
		OpenLoopResult: res,
		Non2xx:         non2xx.Load(),
		Transport:      retries.Load() + giveups.Load(),
	}
}

func getKV(client *http.Client, base string, key int64) error {
	resp, err := client.Get(fmt.Sprintf("%s/kv/%d", base, key))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return statusError{code: resp.StatusCode}
	}
	return nil
}

// splitmix64 is the standard 64-bit finalizer; it turns the arrival
// sequence number into a well-mixed key without shared RNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
