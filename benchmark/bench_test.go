package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

const testRequests = 100_000

func TestStreamIsDeterministicPerSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, other := newGenerator(w, 1), newGenerator(w, 1), newGenerator(w, 2)
		differ := 0
		for i := uint64(0); i < 10_000; i++ {
			if a.at(i) != b.at(i) {
				t.Fatalf("%s: request %d differs between two generators of seed 1", w.name, i)
			}
			if a.at(i) != other.at(i) {
				differ++
			}
		}
		// embedded_hot draws from few keys, so a minority of requests may coincide.
		if differ < 5_000 {
			t.Errorf("%s: only %d of 10000 requests differ between seeds 1 and 2", w.name, differ)
		}
	}
	g := newGenerator(workloadByName("write_durable"), 1)
	h := newGenerator(workloadByName("write_durable"), 2)
	same := 0
	for i := uint64(0); i < 1000; i++ {
		if g.fixedLogKey(i) == h.fixedLogKey(i) {
			same++
		}
	}
	if same > 10 {
		t.Errorf("fixed log: %d of 1000 keys coincide between seeds", same)
	}
}

func TestMixMatchesDeclaredParameters(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		g := newGenerator(w, 7)
		counts := map[reqKind]int{}
		for i := uint64(0); i < testRequests; i++ {
			r := g.at(i)
			counts[r.kind]++
			for _, k := range r.keys[:r.n] {
				if w.served && (k < 0 || k >= int64(w.keys)) {
					t.Fatalf("%s: key %d outside 0..%d", w.name, k, w.keys)
				}
			}
			switch r.kind {
			case kindTransfer:
				if g.route(r.keys[0]) == g.route(r.keys[1]) {
					t.Fatalf("%s: transfer %d keeps both keys in partition %d", w.name, i, g.route(r.keys[0]))
				}
			case kindHotRW, kindHotRO:
				for _, k := range r.keys {
					if g.route(k) != g.route(r.keys[0]) {
						t.Fatalf("%s: transaction %d spans partitions", w.name, i)
					}
				}
			}
		}
		share := func(k reqKind) float64 { return 100 * float64(counts[k]) / testRequests }
		near := func(what string, got float64, want int) {
			if math.Abs(got-float64(want)) > 1 {
				t.Errorf("%s: %s is %.2f %% of requests, declared %d %%", w.name, what, got, want)
			}
		}
		if w.served {
			near("GET", share(kindGet), w.getPct)
			near("transfer", share(kindTransfer), w.xferPct)
			near("incr", share(kindIncr), 100-w.getPct-w.xferPct)
		} else {
			near("read-only", share(kindHotRO), hotReadOnlyPct)
			near("read-write", share(kindHotRW), 100-hotReadOnlyPct)
		}
	}
}

func TestHotKeysAreZipfOverOnePartitionEach(t *testing.T) {
	g := newGenerator(workloadByName("embedded_hot"), 3)
	for p, keys := range g.hot {
		if len(keys) != hotKeysPerPart {
			t.Fatalf("partition %d has %d hot keys, want %d", p, len(keys), hotKeysPerPart)
		}
		for _, k := range keys {
			if g.route(k) != p {
				t.Fatalf("hot key %d listed under partition %d routes to %d", k, p, g.route(k))
			}
		}
	}
	hits := map[int64]int{}
	for i := uint64(0); i < testRequests; i++ {
		r := g.at(i)
		for _, k := range r.keys {
			hits[k]++
		}
	}
	// Under zipf(1.2) over 256 ranks the first rank draws about 25 % and
	// the last about 0.03 %.
	first, last := 0, 0
	for _, keys := range g.hot {
		first += hits[keys[0]]
		last += hits[keys[hotKeysPerPart-1]]
	}
	total := float64(testRequests * hotKeysPerTx)
	if f := float64(first) / total; f < 0.20 || f > 0.27 {
		t.Errorf("rank 1 draws %.3f of accesses, want about 0.25", f)
	}
	if f := float64(last) / total; f > 0.002 {
		t.Errorf("rank %d draws %.4f of accesses, want about 0.0003", hotKeysPerPart, f)
	}
}

// BENCHMARK.json and the tables in the code must name the same
// workloads and the same metrics with the same units, in the same order.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var decl struct {
		Workloads []declared
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, decl.Workloads[i].Name, w.name)
		}
	}
	same := func(what string, got []declared, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", what, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the code",
					what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
}

func TestTracedRunParameters(t *testing.T) {
	for _, w := range workloads {
		if w.traceN%peelChunks != 0 {
			t.Errorf("%s: traceN %d is not a multiple of peelChunks %d", w.name, w.traceN, peelChunks)
		}
	}
	if 7*chunkRotation >= peelChunks {
		t.Errorf("seven passes %d chunks apart do not fit in %d chunks", chunkRotation, peelChunks)
	}
}

// A one-second run of every workload must pass its own correctness
// checks: every reply good, the store equal to the model key by key, and
// on a WAL workload the log recovering the same state after a close.
func TestSmokeTimed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := runTimed(w, 1, 1, 2, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s is %v, want positive", d.name, res.Metrics[d.name].Value)
				}
			}
		})
	}
}

// The traced run must pass the same checks, certify its history, and
// read idle where the workload leaves a layer idle.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced runs take some ten seconds each")
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runTraced(w, 1, 2, dir, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			v := func(name string) float64 { return res.Metrics[name].Value }
			if w.wal == "" && (v("wal.syncs") != 0 || v("wal.append_us") != 0) {
				t.Errorf("no WAL, yet wal.syncs=%v wal.append_us=%v", v("wal.syncs"), v("wal.append_us"))
			}
			if w.xferPct == 0 && v("server.cross_txs") != 0 {
				t.Errorf("no transfers, yet server.cross_txs=%v", v("server.cross_txs"))
			}
			if w.xferPct > 0 && v("server.cross_txs") == 0 {
				t.Error("transfers, yet server.cross_txs=0")
			}
			if v("certify.txns") == 0 {
				t.Error("certify.txns=0")
			}
			// Every traced level holds one span for each of the traceN requests.
			data, err := os.ReadFile(dir + "/trace-" + w.name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var file struct{ Spans []span }
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatal(err)
			}
			seen := map[string]map[uint64]bool{}
			for _, sp := range file.Spans {
				if seen[sp.Name] == nil {
					seen[sp.Name] = map[uint64]bool{}
				}
				seen[sp.Name][sp.Req] = true
				if sp.Parent >= 0 && file.Spans[sp.Parent].Req != sp.Req {
					t.Fatalf("span %s of request %d has a parent of request %d", sp.Name, sp.Req, file.Spans[sp.Parent].Req)
				}
			}
			for name, reqs := range seen {
				if len(reqs) != w.traceN {
					t.Errorf("level %s traced %d distinct requests, want %d", name, len(reqs), w.traceN)
				}
			}
		})
	}
}
