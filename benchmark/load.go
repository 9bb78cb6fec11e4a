package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// sample is one clocked request: when it was due (closed loop: when it
// was sent), relative to the phase start, and how long it took.
type sample struct {
	at  time.Duration
	lat time.Duration
}

// phase is what one timed phase observed.
type phase struct {
	length   time.Duration
	samples  []sample
	late     []time.Duration // open loop: how late the generator noticed each arrival it was waiting for
	allocs   uint64          // TotalAlloc delta over the phase
	requests uint64          // completed inside the phase
}

// closedLoop runs every client flat out for d: each sends its next
// request when the previous one returns. Library callers and
// connection-bound clients behave like this; a slow system receives
// less load.
func closedLoop(clients []*client, d time.Duration) phase {
	every := uint64(clients[0].sys.w.latEvery)
	done := make([]uint64, len(clients))
	// Room for the samples is made before the allocation snapshot, so the
	// harness's own bookkeeping stays out of alloc_bytes_per_op (growing
	// the slices inside the phase moved it by 5 % from run to run).
	samples := make([][]sample, len(clients))
	for ci := range samples {
		samples[ci] = make([]sample, 0, int(d.Seconds()*maxSamplesPerSecond))
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine uint64
			got := samples[ci]
			for {
				// One call in latEvery is clocked; the rest ride between
				// clock reads.
				for i := uint64(1); i < every; i++ {
					c.step()
				}
				t0 := time.Since(start)
				c.step()
				t1 := time.Since(start)
				if t1 >= d {
					// The straddling calls completed, so the model counts
					// them; the throughput does not.
					break
				}
				mine += every
				got = append(got, sample{at: t0, lat: t1 - t0})
			}
			done[ci], samples[ci] = mine, got
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)

	p := phase{length: d, allocs: after.TotalAlloc - before.TotalAlloc}
	for ci := range clients {
		p.requests += done[ci]
		p.samples = append(p.samples, samples[ci]...)
	}
	return p
}

// openLoop offers requests on a fixed schedule of rate per second for d,
// whatever the system is doing — independent users. Arrival i is due at
// i/rate and belongs to client i mod n, so each client (one connection)
// carries its own evenly spaced share of the schedule. A request's
// latency runs from the instant it was due, not from when the client got
// to it, so a stall is charged to every request that waited behind it.
//
// A client early for its next arrival sleeps in nanosleep(2), not
// time.Sleep: an otherwise idle Go process parks in epoll_wait, whose
// millisecond timeout turns a 200 µs schedule into bursts a millisecond
// apart and measures the timer, not the program. (Spinning with Gosched
// is worse: Ps that always find a runnable goroutine stop polling the
// network.) nanosleep wakes some tens of microseconds late; that
// lateness is inside every latency and reported as generator lateness.
func openLoop(clients []*client, rate float64, d time.Duration) phase {
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	samples := make([][]sample, len(clients))
	late := make([][]time.Duration, len(clients))

	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]sample, 0, n/len(clients)+1)
			var waited []time.Duration
			for i := ci; i < n; i += len(clients) {
				due := time.Duration(i) * interval
				if wait := due - time.Since(start); wait > 0 {
					ts := syscall.NsecToTimespec(int64(wait))
					_ = syscall.Nanosleep(&ts, nil) // woken early by a signal: the request goes out early, which latency from due absorbs
					waited = append(waited, max(0, time.Since(start)-due))
				}
				c.step()
				got = append(got, sample{at: due, lat: time.Since(start) - due})
			}
			samples[ci], late[ci] = got, waited
		}()
	}
	wg.Wait()

	p := phase{length: d, requests: uint64(n)}
	for ci := range clients {
		p.samples = append(p.samples, samples[ci]...)
		p.late = append(p.late, late[ci]...)
	}
	return p
}

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(len(sorted)-1, int(q*float64(len(sorted))))]
}

// median of a copy of xs; the mean of the middle pair when even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// throughput is requests completed per second over the whole phase. A
// mean, deliberately: the collector makes throughput alternate between
// two levels several times a second, and a median of windows would land
// on one level or the other by luck.
func (p *phase) throughput() float64 {
	return float64(p.requests) / p.length.Seconds()
}

// latency cuts the phase into windows of latencyWindow by due time,
// takes the q-quantile of each, and returns the median window in
// microseconds with the sample count of the smallest window. The median
// over windows keeps a collector cycle or a stall of the VM, which
// spoils a minority of windows, out of the figure; the same quantile
// over the whole phase does not repeat between identical runs.
func (p *phase) latency(q float64) (us float64, minSamples int) {
	nwin := max(1, int(p.length/latencyWindow))
	wins := make([][]time.Duration, nwin)
	for _, s := range p.samples {
		// The tail shorter than a window joins the last one.
		i := min(nwin-1, int(s.at/latencyWindow))
		wins[i] = append(wins[i], s.lat)
	}
	qs := make([]float64, 0, nwin)
	minSamples = math.MaxInt
	for _, w := range wins {
		slices.Sort(w)
		qs = append(qs, float64(quantile(w, q))/float64(time.Microsecond))
		minSamples = min(minSamples, len(w))
	}
	return median(qs), minSamples
}

// overall is the q-quantile over every sample of the phase, in
// microseconds — the figure the windows exist to steady.
func (p *phase) overall(q float64) float64 {
	all := make([]time.Duration, len(p.samples))
	for i, s := range p.samples {
		all[i] = s.lat
	}
	slices.Sort(all)
	return float64(quantile(all, q)) / float64(time.Microsecond)
}

// lateP99 is how late the open-loop dispatcher ran, in microseconds.
func (p *phase) lateP99() float64 {
	s := slices.Clone(p.late)
	slices.Sort(s)
	return float64(quantile(s, 0.99)) / float64(time.Microsecond)
}
