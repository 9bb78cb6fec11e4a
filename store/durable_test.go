package store_test

import (
	"errors"
	"fmt"
	"testing"

	"pcltm/internal/certify"
	"pcltm/internal/conformance"
	"pcltm/internal/core"
	"pcltm/internal/wal"
	"pcltm/stm"
	"pcltm/store"
)

func durCfg(b wal.Backend, parts int) store.DurableConfig[int64, int64] {
	return store.DurableConfig[int64, int64]{
		Store:   store.Config{Partitions: parts, Buckets: 8},
		Backend: b,
		Codec:   store.Int64Codec(),
	}
}

func durPut(t *testing.T, s *store.Store[int64, int64], k, v int64) {
	t.Helper()
	err := s.Atomically(s.PartitionOf(k), func(tx *stm.Tx, p *store.Part[int64, int64]) error {
		p.Put(tx, k, v)
		return nil
	})
	if err != nil {
		t.Fatalf("durable put %d=%d: %v", k, v, err)
	}
}

func TestDurableRoundTrip(t *testing.T) {
	b := wal.NewMemBackend()
	s, scan, err := store.OpenDurable(durCfg(b, 4))
	if err != nil {
		t.Fatalf("store.OpenDurable: %v", err)
	}
	if scan.Segments != 0 {
		t.Errorf("fresh log has %d segments in scan", scan.Segments)
	}
	for k := int64(1); k <= 50; k++ {
		durPut(t, s, k, k*10)
	}
	// Delete a few, update a few — every op class must survive replay.
	for k := int64(1); k <= 10; k++ {
		if err := s.Atomically(s.PartitionOf(k), func(tx *stm.Tx, p *store.Part[int64, int64]) error {
			p.Delete(tx, k)
			return nil
		}); err != nil {
			t.Fatalf("delete: %v", err)
		}
	}
	for k := int64(11); k <= 20; k++ {
		if err := s.Atomically(s.PartitionOf(k), func(tx *stm.Tx, p *store.Part[int64, int64]) error {
			p.Update(tx, k, func(v int64, ok bool) int64 { return v + 1 })
			return nil
		}); err != nil {
			t.Fatalf("update: %v", err)
		}
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}

	s2, scan2, err := store.OpenDurable(durCfg(b, 0)) // partitions adopted from log
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !scan2.Clean {
		t.Error("sealed log not Clean on reopen")
	}
	if s2.Partitions() != 4 {
		t.Errorf("adopted partitions = %d, want 4", s2.Partitions())
	}
	for k := int64(1); k <= 50; k++ {
		v, ok := s2.Get(k)
		switch {
		case k <= 10:
			if ok {
				t.Errorf("deleted key %d resurrected as %d", k, v)
			}
		case k <= 20:
			if !ok || v != k*10+1 {
				t.Errorf("updated key %d = %d,%v, want %d", k, v, ok, k*10+1)
			}
		default:
			if !ok || v != k*10 {
				t.Errorf("key %d = %d,%v, want %d", k, v, ok, k*10)
			}
		}
	}
	if err := s2.CloseWAL(); err != nil {
		t.Fatalf("second CloseWAL: %v", err)
	}
}

func TestDurableCrossSurvives(t *testing.T) {
	b := wal.NewMemBackend()
	s, _, err := store.OpenDurable(durCfg(b, 4))
	if err != nil {
		t.Fatalf("store.OpenDurable: %v", err)
	}
	durPut(t, s, 100, 1)
	if err := s.Cross(func(ct *store.CrossTx[int64, int64]) error {
		for k := int64(200); k < 220; k++ {
			ct.Put(k, k)
		}
		ct.Delete(100)
		return nil
	}); err != nil {
		t.Fatalf("Cross: %v", err)
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}
	s2, _, err := store.OpenDurable(durCfg(b, 4))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, ok := s2.Get(100); ok {
		t.Error("cross-deleted key survived")
	}
	for k := int64(200); k < 220; k++ {
		if v, ok := s2.Get(k); !ok || v != k {
			t.Errorf("cross-written key %d = %d,%v", k, v, ok)
		}
	}
	_ = s2.CloseWAL()
}

func TestDurableAckedSurvivesHardCrash(t *testing.T) {
	// Group-ack contract at the store level: every Atomically that
	// returned nil must survive a crash that keeps only fsynced bytes.
	b := wal.NewMemBackend()
	s, _, err := store.OpenDurable(durCfg(b, 2))
	if err != nil {
		t.Fatalf("store.OpenDurable: %v", err)
	}
	for k := int64(1); k <= 30; k++ {
		durPut(t, s, k, k)
	}
	img := b.Clone(0) // no CloseWAL: simulated power cut
	s2, scan, err := store.OpenDurable(durCfg(img, 2))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if scan.Clean {
		t.Error("crash image reported Clean")
	}
	for k := int64(1); k <= 30; k++ {
		if v, ok := s2.Get(k); !ok || v != k {
			t.Errorf("acked key %d lost (got %d,%v)", k, v, ok)
		}
	}
	_ = s2.CloseWAL()
	_ = s.CloseWAL()
}

func TestDurabilityErrorPoisons(t *testing.T) {
	fb := wal.NewFailBackend(wal.NewMemBackend())
	cfg := durCfg(fb, 1)
	cfg.Ack = wal.AckSync
	s, _, err := store.OpenDurable(cfg)
	if err != nil {
		t.Fatalf("store.OpenDurable: %v", err)
	}
	durPut(t, s, 1, 1)
	fb.Arm(wal.FailPoint{Kind: wal.FailSync, N: 2}) // next record's fsync
	err = s.Atomically(0, func(tx *stm.Tx, p *store.Part[int64, int64]) error {
		p.Put(tx, mustKeyIn(s, 0, 100), 2)
		return nil
	})
	var de *store.DurabilityError
	if !errors.As(err, &de) {
		t.Fatalf("write over failed fsync = %v, want store.DurabilityError", err)
	}
	// In-memory state advanced (documented), but the log is poisoned:
	// the next write also fails durability.
	err = s.Atomically(0, func(tx *stm.Tx, p *store.Part[int64, int64]) error {
		p.Put(tx, mustKeyIn(s, 0, 200), 3)
		return nil
	})
	if !errors.As(err, &de) {
		t.Fatalf("write after poison = %v, want store.DurabilityError", err)
	}
	if st, ok := s.WALStats(); !ok || st.Failed == 0 {
		t.Errorf("WALStats = %+v, %v; want Failed set", st, ok)
	}
}

// mustKeyIn finds a key >= from routing to partition part.
func mustKeyIn(s *store.Store[int64, int64], part int, from int64) int64 {
	for k := from; ; k++ {
		if s.PartitionOf(k) == part {
			return k
		}
	}
}

// TestTornFixturesCertified drives the four damaged-log fixtures
// through the store's recovery path: the recoverable ones (truncated
// tail, empty final segment) must rebuild a certified per-partition
// prefix; the corrupt ones (mid-log bit flip, duplicated segment) must
// be refused with a witness. Deterministic — the fixtures damage a
// fixed sealed log.
func TestTornFixturesCertified(t *testing.T) {
	const parts, keys = 2, 30
	build := func(t *testing.T) *wal.MemBackend {
		t.Helper()
		b := wal.NewMemBackend()
		cfg := durCfg(b, parts)
		cfg.SegmentBytes = 256 // force several segments
		s, _, err := store.OpenDurable(cfg)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		for k := int64(1); k <= keys; k++ {
			durPut(t, s, k, k*7)
		}
		if err := s.CloseWAL(); err != nil {
			t.Fatalf("build seal: %v", err)
		}
		return b
	}
	names := func(t *testing.T, b *wal.MemBackend) []string {
		t.Helper()
		ns, err := b.List()
		if err != nil || len(ns) < 2 {
			t.Fatalf("fixture log has segments %v (%v), want several", ns, err)
		}
		return ns
	}
	// recoverCertified opens the damaged log with one recorder per
	// partition and requires the replay histories to certify.
	recoverCertified := func(t *testing.T, b *wal.MemBackend) (*store.Store[int64, int64], *wal.ScanResult) {
		t.Helper()
		var recs []*stm.Recorder
		cfg := durCfg(b, parts)
		cfg.Store.EngineOptions = func(int) []stm.Option {
			r := stm.NewRecorder()
			recs = append(recs, r)
			return []stm.Option{stm.WithRecorder(r)}
		}
		s, scan, err := store.OpenDurable(cfg)
		if err != nil {
			t.Fatalf("recovery refused: %v", err)
		}
		itemOf := func(id uint64) (core.Item, bool) {
			return core.Item(fmt.Sprintf("t%d", id)), true
		}
		for pi, r := range recs {
			attempts := r.Take()
			if len(attempts) == 0 {
				continue
			}
			exec, err := conformance.StampInterned(attempts, itemOf, 1)
			if err != nil {
				t.Fatalf("stamp partition %d: %v", pi, err)
			}
			if rep := certify.Check(certify.FromExecution(exec), certify.StrictSerializability); rep.Verdict == certify.Violated {
				t.Fatalf("partition %d replay history violated: %s", pi, rep)
			}
		}
		return s, scan
	}
	// assertPrefix requires the recovered state to be a per-partition
	// prefix of the build workload with correct values.
	assertPrefix := func(t *testing.T, s *store.Store[int64, int64]) {
		t.Helper()
		gone := map[int]bool{}
		for k := int64(1); k <= keys; k++ {
			p := s.PartitionOf(k)
			v, ok := s.Get(k)
			if ok && gone[p] {
				t.Fatalf("non-prefix recovery: key %d present after a gap in partition %d", k, p)
			}
			if ok && v != k*7 {
				t.Fatalf("key %d recovered as %d, want %d", k, v, k*7)
			}
			if !ok {
				gone[p] = true
			}
		}
	}

	t.Run("truncated-tail", func(t *testing.T) {
		b := build(t)
		ns := names(t, b)
		last := ns[len(ns)-1]
		data, err := b.Load(last)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Truncate(last, len(data)-7); err != nil {
			t.Fatal(err)
		}
		s, scan := recoverCertified(t, b)
		if scan.Clean {
			t.Error("truncated log reported Clean")
		}
		if len(scan.Torn) == 0 {
			t.Error("truncation not reported as a torn tail")
		}
		assertPrefix(t, s)
		_ = s.CloseWAL()
	})

	t.Run("empty-final-segment", func(t *testing.T) {
		b := build(t)
		ns := names(t, b)
		var idx int
		if _, err := fmt.Sscanf(ns[len(ns)-1], "wal-%d.seg", &idx); err != nil {
			t.Fatalf("parsing segment name %q: %v", ns[len(ns)-1], err)
		}
		seg, err := b.Create(fmt.Sprintf("wal-%016d.seg", idx+1))
		if err != nil {
			t.Fatal(err)
		}
		_ = seg.Close()
		s, scan := recoverCertified(t, b)
		if scan.Clean {
			t.Error("log with empty final segment reported Clean (seal is not last)")
		}
		assertPrefix(t, s)
		for k := int64(1); k <= keys; k++ {
			if _, ok := s.Get(k); !ok {
				t.Fatalf("key %d lost to an empty segment that held no data", k)
			}
		}
		_ = s.CloseWAL()
	})

	t.Run("bit-flip-refuses", func(t *testing.T) {
		b := build(t)
		ns := names(t, b)
		if err := b.Corrupt(ns[0], 30); err != nil { // mid-record of the first segment
			t.Fatal(err)
		}
		_, _, err := store.OpenDurable(durCfg(b, parts))
		var ce *wal.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("bit-flipped log opened: err = %v, want wal.CorruptError", err)
		}
		if ce.Segment != ns[0] {
			t.Errorf("witness names segment %q, want %q", ce.Segment, ns[0])
		}
	})

	t.Run("duplicated-segment-refuses", func(t *testing.T) {
		b := build(t)
		ns := names(t, b)
		var idx int
		if _, err := fmt.Sscanf(ns[len(ns)-1], "wal-%d.seg", &idx); err != nil {
			t.Fatal(err)
		}
		if err := b.Duplicate(ns[0], fmt.Sprintf("wal-%016d.seg", idx+1)); err != nil {
			t.Fatal(err)
		}
		_, _, err := store.OpenDurable(durCfg(b, parts))
		var ce *wal.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("duplicated-segment log opened: err = %v, want wal.CorruptError", err)
		}
	})
}

// crashShapes are the images the crash-point sweeps recover from. The
// log writes into preallocated segments, so a crash never shortens a
// segment: "synced" keeps only what an fsync covered, zeros after it;
// "killed" keeps every byte written, the shape a SIGKILL leaves (the
// page cache survives the process), zeros after them; "torn" stops the
// fatal write itself at a sector boundary.
var crashShapes = []struct {
	name string
	kind wal.FailKind
	keep int
}{
	{"synced", wal.FailCrash, 0},
	{"killed", wal.FailCrash, -1},
	{"torn", wal.FailTear, -1},
}

// TestDurableCrashPointSweepCertified is the PR's acceptance criterion:
// kill the store at every numbered backend operation, recover from the
// fsynced image, and require (a) every acknowledged commit survived,
// (b) the recovered state is a per-partition commit prefix, and (c) a
// recorded recovery — replay plus fresh post-recovery traffic — is
// certified strictly serializable.
func TestDurableCrashPointSweepCertified(t *testing.T) {
	const parts, keys = 2, 24
	type ranResult struct {
		acked []int64 // keys whose Atomically returned nil, in order
	}
	workload := func(backend wal.Backend) (ranResult, error) {
		var res ranResult
		cfg := durCfg(backend, parts)
		cfg.SegmentBytes = 512
		s, _, err := store.OpenDurable(cfg)
		if err != nil {
			return res, err
		}
		for k := int64(1); k <= keys; k++ {
			k := k
			err := s.Atomically(s.PartitionOf(k), func(tx *stm.Tx, p *store.Part[int64, int64]) error {
				p.Put(tx, k, k*7)
				return nil
			})
			if err != nil {
				return res, err
			}
			res.acked = append(res.acked, k)
		}
		return res, s.CloseWAL()
	}

	probe := wal.NewFailBackend(wal.NewMemBackend())
	if _, err := workload(probe); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	total := probe.Ops()
	if total < keys {
		t.Fatalf("workload exposes only %d crash points", total)
	}

	for _, shape := range crashShapes {
		t.Run(shape.name, func(t *testing.T) {
			for n := uint64(1); n <= total; n++ {
				mem := wal.NewMemBackend()
				fb := wal.NewFailBackend(mem)
				fb.Arm(wal.FailPoint{Kind: shape.kind, N: n, TearBytes: 64})
				ran, err := workload(fb)
				if err == nil {
					if fb.Crashed() {
						t.Fatalf("crash point %d fired but workload succeeded", n)
					}
					continue
				}

				// Recover with one recorder per partition so replay and the
				// post-recovery probe become one certified history.
				img := mem.Clone(shape.keep)
				recs := make([]*stm.Recorder, 0, parts)
				cfg := durCfg(img, parts)
				cfg.Store.EngineOptions = func(part int) []stm.Option {
					r := stm.NewRecorder()
					recs = append(recs, r)
					return []stm.Option{stm.WithRecorder(r)}
				}
				s2, scan, err := store.OpenDurable(cfg)
				if err != nil {
					t.Fatalf("crash point %d: recovery refused: %v", n, err)
				}

				// (a) acked ⇒ survives; (b) prefix shape: key k present only if
				// every earlier key of its partition is present.
				seen := map[int64]bool{}
				for k := int64(1); k <= keys; k++ {
					_, ok := s2.Get(k)
					seen[k] = ok
				}
				for _, k := range ran.acked {
					// The crashing Atomically is not in acked; everything acked
					// before it must be here.
					if !seen[k] {
						t.Fatalf("crash point %d: acked key %d lost (horizons %v)", n, k, scan.Horizon)
					}
				}
				for k := int64(1); k <= keys; k++ {
					if seen[k] {
						continue
					}
					// Keys were written in order, one commit each: if k is gone,
					// no later key of k's partition may have survived.
					p := s2.PartitionOf(k)
					for k2 := k + 1; k2 <= keys; k2++ {
						if s2.PartitionOf(k2) == p && seen[k2] {
							t.Fatalf("crash point %d: non-prefix recovery: key %d absent but %d present (partition %d)",
								n, k, k2, p)
						}
					}
				}

				// Post-recovery traffic on the recovered store.
				for k := int64(keys + 1); k <= keys+4; k++ {
					if err := s2.Atomically(s2.PartitionOf(k), func(tx *stm.Tx, p *store.Part[int64, int64]) error {
						p.Put(tx, k, k)
						return nil
					}); err != nil {
						t.Fatalf("crash point %d: post-recovery write: %v", n, err)
					}
				}
				_ = s2.CloseWAL()

				// (c) certify the stitched history, one partition engine at a
				// time (partitions share no state, so each is its own history).
				itemOf := func(id uint64) (core.Item, bool) {
					return core.Item(fmt.Sprintf("t%d", id)), true
				}
				for pi, r := range recs {
					attempts := r.Take()
					if len(attempts) == 0 {
						continue
					}
					exec, err := conformance.StampInterned(attempts, itemOf, 1)
					if err != nil {
						t.Fatalf("crash point %d: stamp partition %d: %v", n, pi, err)
					}
					rep := certify.Check(certify.FromExecution(exec), certify.StrictSerializability)
					if rep.Verdict == certify.Violated {
						t.Fatalf("crash point %d: partition %d recovery history violated: %s", n, pi, rep)
					}
				}
			}
		})
	}

}
