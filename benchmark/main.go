// Command benchmark is the repo's benchmark: it boots the system
// in-process, drives one seeded workload at it from nproc client
// goroutines, checks the outputs, and prints every metric by name with
// its unit and, as the last line, one JSON object for the driver.
//
//	benchmark -workload read_mostly -seed 1 -seconds 10 -trace 0
//
// -trace 0 measures the end-to-end metrics with tracing off; -trace 1 is
// the separate traced run that peels the layers apart (trace.go).
// README.md defines the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order; a unit test holds the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tx_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p90_us", "us"},
	{"alloc_bytes_per_op", "B/op"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's last-line contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(defs []metricDef) *result {
	r := &result{Correct: true, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Unit: d.unit}
	}
	return r
}

// set records a declared metric; an undeclared name is a bug here.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}

// fail marks the run incorrect and says why.
func (r *result) fail(err error) {
	r.Correct = false
	fmt.Println("INCORRECT:", err)
}

// print writes the metrics in declaration order, then the JSON line.
func (r *result) print(defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("  %-32s %16.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("  attempted %d, failed %d, fail_frac %.6f, correct %v\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(1, r.Attempted)), r.Correct)
	line, _ := json.Marshal(r)
	fmt.Println(string(line))
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed of the generated request stream")
	seconds := flag.Float64("seconds", 10, "length of the timed phases")
	trace := flag.Int("trace", 0, "1 = the traced layer-peeling run (per-layer metrics), 0 = end-to-end metrics")
	out := flag.String("out", "", "directory for trace files and the temporary WAL (default: out/ beside this package)")
	flag.Parse()
	if *out == "" {
		// run.sh starts the binary at the checkout root; go run starts it here.
		*out = "out"
		if _, err := os.Stat("benchmark/go.mod"); err == nil {
			*out = "benchmark/out"
		}
	}

	// Noise discipline: a fixed number of Ps whatever the host offers
	// beyond four, and the collector at its documented default so an
	// inherited GOGC cannot move allocation-sensitive numbers.
	nproc := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(nproc)
	debug.SetGCPercent(100)

	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := workloadByName(*name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	// The file WAL lives under the output directory, inside the checkout.
	tmp := filepath.Join(*out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}

	ok := true
	for _, w := range todo {
		fmt.Printf("workload %s  seed %d  seconds %g  trace %d  nproc %d  GOGC 100  %s\n",
			w.name, *seed, *seconds, *trace, nproc, runtime.Version())
		var res *result
		var err error
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
			res, err = runTraced(w, *seed, nproc, *out, tmp)
		} else {
			res, err = runTimed(w, *seed, *seconds, nproc, tmp)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		res.print(defs)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// runTimed is the untraced run: set-up (timed, repeated), warm-up, a
// closed-loop phase for throughput and allocation, an open-loop phase at
// the workload's frozen rate for latency, then the correctness checks.
func runTimed(w *workload, seed uint64, seconds float64, nproc int, tmp string) (*result, error) {
	res := newResult(endToEnd)
	gen := newGenerator(w, seed)

	// Set-up is paid several times and reported as the median — more
	// times the shorter it is, because a millisecond is timed less
	// steadily than a second. The last instance is the one measured.
	var sys *system
	var setups []float64
	for spent := 0.0; len(setups) < setupMin || (spent < setupBudget && len(setups) < setupMax); spent += setups[len(setups)-1] {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		var took float64
		var err error
		if sys, took, err = boot(gen, false, tmp); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	defer sys.close()
	res.set("setup_s", median(setups))

	clients := make([]*client, nproc)
	for i := range clients {
		clients[i] = sys.newClient(uint64(i), uint64(nproc))
	}
	dur := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

	// Warm-up: connections dialled, pools filled, TMap tables grown.
	closedLoop(clients, dur(warmupSeconds))

	var closed, lat phase
	if w.served {
		closed = closedLoop(clients, dur(seconds*closedShare))
		lat = openLoop(clients, w.openRate, dur(seconds*(1-closedShare)))
		fmt.Printf("  open loop: %.0f req/s offered, %d requests, generator p99 lateness %.1f us\n",
			w.openRate, lat.requests, lat.lateP99())
	} else {
		// Library callers wait for the reply: closed loop throughout.
		closed = closedLoop(clients, dur(seconds))
		lat = closed
	}
	res.set("tx_per_s", closed.throughput())
	res.set("alloc_bytes_per_op", float64(closed.allocs)/float64(max(1, closed.requests)))
	p50, _ := lat.latency(0.50)
	p90, least := lat.latency(0.90)
	res.set("lat_p50_us", p50)
	res.set("lat_p90_us", p90)
	fmt.Printf("  latency: %d samples, at least %d per %v window; over the whole phase p99 %.1f us, p99.9 %.1f us (informative: they do not repeat)\n",
		len(lat.samples), least, latencyWindow, lat.overall(0.99), lat.overall(0.999))

	verify(res, sys, clients)
	return res, nil
}

// verify runs the correctness checks shared by both kinds of run: every
// reply was good, the live store matches the model key by key, and on a
// WAL workload the log read back after a graceful close recovers the
// same state. It returns the scan and replay times of that recovery.
func verify(res *result, sys *system, clients []*client) (scanS, replayS float64) {
	m := newModel(sys.gen)
	var parts []ran
	var failed []uint64
	for _, c := range clients {
		parts = append(parts, c.ran())
		failed = append(failed, c.failed...)
	}
	attempted := m.replayInto(sys.gen, parts, failed)
	res.Attempted += attempted
	res.Failed += uint64(len(failed))
	if len(failed) > 0 {
		res.fail(fmt.Errorf("%d of %d requests failed or answered wrongly", len(failed), attempted))
	}
	if err := m.matches(sys.gen, sys.st, "live store"); err != nil {
		res.fail(err)
	}
	if sys.backend != nil {
		if err := sys.shutdown(); err != nil {
			res.fail(fmt.Errorf("durability: close: %w", err))
		}
		var err error
		if scanS, replayS, err = recovered(sys, m); err != nil {
			res.fail(err)
		}
	}
	return scanS, replayS
}
