package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func mustStart(t *testing.T, b Backend, opts Options) *Log {
	t.Helper()
	l, _, err := Open(b, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendN(t *testing.T, l *Log, part int, from, to uint64) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		ops := AppendOp(nil, false, []byte(fmt.Sprintf("k%d", seq)), []byte(fmt.Sprintf("v%d", seq)))
		if err := l.Append(part, seq, 1, ops); err != nil {
			t.Fatalf("Append(part=%d seq=%d): %v", part, seq, err)
		}
	}
}

func TestRoundTripSealed(t *testing.T) {
	for _, ack := range AckModes() {
		t.Run(ack.String(), func(t *testing.T) {
			b := NewMemBackend()
			l := mustStart(t, b, Options{Partitions: 2, Ack: ack})
			appendN(t, l, 0, 1, 5)
			appendN(t, l, 1, 1, 3)
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			scan, err := Scan(b)
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if !scan.Clean {
				t.Error("sealed log not reported Clean")
			}
			if scan.Partitions != 2 {
				t.Errorf("Partitions = %d, want 2", scan.Partitions)
			}
			if got, want := fmt.Sprint(scan.Horizon), "[5 3]"; got != want {
				t.Errorf("Horizon = %s, want %s", got, want)
			}
			if len(scan.Records) != 8 {
				t.Fatalf("Records = %d, want 8", len(scan.Records))
			}
			// Replay plan is (partition, seq) ordered with intact ops.
			r := scan.Records[4]
			if r.Part != 0 || r.Seq != 5 || len(r.Ops) != 1 ||
				string(r.Ops[0].Key) != "k5" || string(r.Ops[0].Val) != "v5" {
				t.Errorf("record 4 = %+v, want part 0 seq 5 k5=v5", r)
			}
		})
	}
}

func TestEmptyLog(t *testing.T) {
	scan, err := Scan(NewMemBackend())
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if scan.Partitions != 0 || len(scan.Records) != 0 || scan.Clean {
		t.Errorf("empty scan = %+v, want zero state", scan)
	}
}

func TestUnsealedNotClean(t *testing.T) {
	b := NewMemBackend()
	l := mustStart(t, b, Options{Partitions: 1})
	appendN(t, l, 0, 1, 3)
	b.Crash(-1) // keep all buffered bytes, but no seal was written
	scan, err := Scan(b.Clone(-1))
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if scan.Clean {
		t.Error("unsealed log reported Clean")
	}
	if scan.Horizon[0] != 3 {
		t.Errorf("Horizon = %d, want 3", scan.Horizon[0])
	}
	_ = l
}

// slowBackend adds latency to every fsync so concurrent appends pile up
// behind the writer — the condition group commit exists for.
type slowBackend struct{ Backend }

func (b slowBackend) Create(name string) (Segment, error) {
	s, err := b.Backend.Create(name)
	if err != nil {
		return nil, err
	}
	return slowSegment{s}, nil
}

type slowSegment struct{ Segment }

func (s slowSegment) Sync() error {
	time.Sleep(200 * time.Microsecond)
	return s.Segment.Sync()
}

func TestGroupCommitBatches(t *testing.T) {
	b := NewMemBackend()
	l := mustStart(t, slowBackend{b}, Options{Partitions: 4, Ack: AckGroup})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for seq := uint64(1); seq <= 50; seq++ {
				ops := AppendOp(nil, false, []byte{byte(p)}, []byte{byte(seq)})
				if err := l.Append(p, seq, 1, ops); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != 200 {
		t.Errorf("Appends = %d, want 200", st.Appends)
	}
	if st.Syncs >= st.Appends {
		t.Errorf("group commit did not batch: %d syncs for %d appends", st.Syncs, st.Appends)
	}
	if st.MaxBatch < 2 {
		t.Errorf("MaxBatch = %d, want >= 2", st.MaxBatch)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	scan, err := Scan(b)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	for p := 0; p < 4; p++ {
		if scan.Horizon[p] != 50 {
			t.Errorf("Horizon[%d] = %d, want 50", p, scan.Horizon[p])
		}
	}
}

func TestSyncModeOneFsyncPerRecord(t *testing.T) {
	b := NewMemBackend()
	l := mustStart(t, b, Options{Partitions: 1, Ack: AckSync})
	appendN(t, l, 0, 1, 10)
	st := l.Stats()
	// 1 Start sync + 10 record syncs (no rotation at this volume).
	if st.Syncs < 11 {
		t.Errorf("Syncs = %d, want >= 11 in sync mode", st.Syncs)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestAckedSurvivesCrash(t *testing.T) {
	// The durability contract: once Append returns nil (group mode), a
	// crash that preserves only synced bytes must keep the record.
	b := NewMemBackend()
	l := mustStart(t, b, Options{Partitions: 1, Ack: AckGroup})
	appendN(t, l, 0, 1, 20)
	img := b.Clone(0) // synced bytes only — the harshest crash
	scan, err := Scan(img)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if scan.Horizon[0] != 20 {
		t.Errorf("acked seq 20 not durable: horizon %d", scan.Horizon[0])
	}
	_ = l.Close()
}

func TestRotation(t *testing.T) {
	b := NewMemBackend()
	l := mustStart(t, b, Options{Partitions: 1, SegmentBytes: 256})
	appendN(t, l, 0, 1, 100)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, _ := b.List()
	if len(names) < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", len(names))
	}
	scan, err := Scan(b)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if !scan.Clean || scan.Horizon[0] != 100 {
		t.Errorf("after rotation: clean=%v horizon=%d, want true/100", scan.Clean, scan.Horizon[0])
	}
}

func TestTornTailTruncates(t *testing.T) {
	b := NewMemBackend()
	l := mustStart(t, b, Options{Partitions: 1})
	appendN(t, l, 0, 1, 5)
	_ = l.Close()
	names, _ := b.List()
	last := names[len(names)-1]
	data, _ := b.Load(last)
	// Chop into the middle of the final (seal) record.
	if err := b.Truncate(last, len(data)-3); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	scan, err := Scan(b)
	if err != nil {
		t.Fatalf("Scan after torn tail: %v", err)
	}
	if scan.Clean {
		t.Error("torn log reported Clean")
	}
	if len(scan.Torn) != 1 {
		t.Fatalf("Torn = %v, want one entry", scan.Torn)
	}
	if scan.Horizon[0] != 5 {
		t.Errorf("Horizon = %d, want 5 (only the seal was torn)", scan.Horizon[0])
	}
}

func TestBitFlipRefuses(t *testing.T) {
	b := NewMemBackend()
	l := mustStart(t, b, Options{Partitions: 1})
	appendN(t, l, 0, 1, 5)
	_ = l.Close()
	names, _ := b.List()
	// Flip a bit inside the first txn record's payload (past magic +
	// meta frame) — mid-log damage, not a tail.
	if err := b.Corrupt(names[0], len(Magic)+headerSize+3+headerSize+4); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	_, err := Scan(b)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Scan = %v, want CorruptError", err)
	}
	if ce.Segment != names[0] || ce.Offset == 0 {
		t.Errorf("witness = %+v, want segment %s with nonzero offset", ce, names[0])
	}
}

func TestDuplicateSegmentRefuses(t *testing.T) {
	b := NewMemBackend()
	l := mustStart(t, b, Options{Partitions: 1})
	appendN(t, l, 0, 1, 5)
	_ = l.Close()
	names, _ := b.List()
	if err := b.Duplicate(names[0], "wal-0000000000000009.seg"); err != nil {
		t.Fatalf("Duplicate: %v", err)
	}
	_, err := Scan(b)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Scan = %v, want CorruptError for duplicated segment", err)
	}
	if ce.Reason == "" || ce.Segment == "" {
		t.Errorf("witness incomplete: %+v", ce)
	}
}

func TestEmptyFinalSegmentRecovers(t *testing.T) {
	b := NewMemBackend()
	l := mustStart(t, b, Options{Partitions: 1})
	appendN(t, l, 0, 1, 5)
	_ = l.Close()
	// A crash right after segment creation leaves an empty file.
	if _, err := b.Create("wal-0000000000000009.seg"); err != nil {
		t.Fatalf("Create: %v", err)
	}
	scan, err := Scan(b)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if scan.Horizon[0] != 5 {
		t.Errorf("Horizon = %d, want 5", scan.Horizon[0])
	}
	if scan.Clean {
		t.Error("log with empty trailing segment reported Clean")
	}
	// And the next generation can open on top of it... except the name
	// collides; nextSegIdx must step past it.
	l2, scan2, err := Open(b, Options{Partitions: 1})
	if err != nil {
		t.Fatalf("reopen over empty segment: %v", err)
	}
	if scan2.Horizon[0] != 5 {
		t.Errorf("reopen horizon = %d, want 5", scan2.Horizon[0])
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestGapTruncationAndCut(t *testing.T) {
	// Forge a gap: write seqs 1..3 and 5 (4 missing — its append "was
	// lost in the crash"), then recover twice to prove cut records make
	// sequence reuse safe.
	b := NewMemBackend()
	l := mustStart(t, b, Options{Partitions: 1, Ack: AckAsync})
	appendN(t, l, 0, 1, 3)
	if err := l.Append(0, 5, 1, AppendOp(nil, false, []byte("k5"), []byte("v5"))); err != nil {
		t.Fatalf("Append: %v", err)
	}
	_ = l.Close()

	scan, err := Scan(b)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if scan.Horizon[0] != 3 || scan.DroppedByPart[0] != 1 {
		t.Fatalf("gap scan: horizon=%d dropped=%d, want 3/1", scan.Horizon[0], scan.DroppedByPart[0])
	}
	// Reopen (writes the cut), then reuse seqs 4 and 5.
	l2, err := Start(b, Options{Partitions: 1}, scan)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	appendN(t, l2, 0, 4, 6)
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	scan2, err := Scan(b)
	if err != nil {
		t.Fatalf("second Scan: %v", err)
	}
	if scan2.Horizon[0] != 6 || scan2.DroppedByPart[0] != 0 {
		t.Errorf("after cut+reuse: horizon=%d dropped=%d, want 6/0", scan2.Horizon[0], scan2.DroppedByPart[0])
	}
	if !scan2.Clean {
		t.Error("cleanly closed second generation not Clean")
	}
	// The reused seq 5 must carry the new generation's value.
	for _, r := range scan2.Records {
		if r.Seq == 5 && string(r.Ops[0].Key) != "k5" {
			t.Errorf("seq 5 key = %q", r.Ops[0].Key)
		}
	}
}

func TestPartitionMismatchRefuses(t *testing.T) {
	b := NewMemBackend()
	l := mustStart(t, b, Options{Partitions: 4})
	appendN(t, l, 0, 1, 2)
	_ = l.Close()
	scan, err := Scan(b)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if _, err := Start(b, Options{Partitions: 8}, scan); err == nil {
		t.Fatal("Start with mismatched partition count succeeded")
	}
}

func TestFailpointSyncPoisons(t *testing.T) {
	fb := NewFailBackend(NewMemBackend())
	l := mustStart(t, fb, Options{Partitions: 1, Ack: AckSync})
	appendN(t, l, 0, 1, 2)
	// Arm resets the op counter: the next record is append (1), sync (2).
	fb.Arm(FailPoint{Kind: FailSync, N: 2})
	err := l.Append(0, 3, 1, AppendOp(nil, false, []byte("k"), []byte("v")))
	var fe *FailedError
	if !errors.As(err, &fe) {
		t.Fatalf("Append over failed fsync = %v, want FailedError", err)
	}
	// Poisoned: every later append fails fast.
	if err := l.Append(0, 4, 1, nil); !errors.As(err, &fe) {
		t.Errorf("append after poison = %v, want FailedError", err)
	}
	if l.Stats().Failed == 0 {
		t.Error("Stats.Failed not set")
	}
}

func TestFailpointCrashSweep(t *testing.T) {
	// Measure the workload's crash surface, then kill it at every
	// numbered point and prove scan always yields a usable prefix that
	// holds everything acknowledged — from the synced image, from the
	// image a killed process leaves (every written byte, zeros after),
	// and from one that lost all but a sector or so of the unsynced tail.
	workload := func(fb *FailBackend) (acked [2]uint64, err error) {
		l, _, err := Open(fb, Options{Partitions: 2, Ack: AckGroup, SegmentBytes: 512})
		if err != nil {
			return acked, err
		}
		for seq := uint64(1); seq <= 30; seq++ {
			if seq%10 == 0 {
				wait, err := l.AppendCross([]CrossPart{
					{Part: 0, Seq: seq, Nops: 1, Ops: crossOps(seq, 0)},
					{Part: 1, Seq: seq, Nops: 1, Ops: crossOps(seq, 1)},
				})
				if err == nil {
					err = wait()
				}
				if err != nil {
					return acked, err
				}
				acked = [2]uint64{seq, seq}
				continue
			}
			for p := 0; p < 2; p++ {
				ops := AppendOp(nil, false, []byte{byte(p), byte(seq)}, []byte{1})
				if err := l.Append(p, seq, 1, ops); err != nil {
					return acked, err
				}
				acked[p] = seq
			}
		}
		return acked, l.Close()
	}
	probe := NewFailBackend(NewMemBackend())
	if _, err := workload(probe); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	total := probe.Ops()
	if total < 30 {
		t.Fatalf("workload exposes only %d crash points", total)
	}
	var zeroTails, torn int
	for n := uint64(1); n <= total; n++ {
		for _, kind := range []FailKind{FailCrash, FailTear} {
			mem := NewMemBackend()
			fb := NewFailBackend(mem)
			fb.Arm(FailPoint{Kind: kind, N: n, TearBytes: 40})
			acked, err := workload(fb)
			if err == nil {
				if fb.Crashed() {
					t.Fatalf("crash point %d/%v fired but did not surface", n, kind)
				}
				continue // batching variance left this point unreached
			}
			for _, keep := range []int{0, -1, sectorSize} {
				scan, err := Scan(mem.Clone(keep))
				if err != nil {
					t.Fatalf("point %d/%v keep %d: scan refused: %v", n, kind, keep, err)
				}
				zeroTails += len(scan.ZeroTails)
				torn += len(scan.Torn)
				// Whatever survived must be a dense prefix per partition
				// that covers every acknowledged sequence.
				counts := map[int]uint64{}
				for _, r := range scan.Records {
					counts[r.Part]++
					if r.Seq != counts[r.Part] {
						t.Fatalf("point %d/%v keep %d: non-dense replay: part %d seq %d at position %d",
							n, kind, keep, r.Part, r.Seq, counts[r.Part])
					}
				}
				for p, seq := range acked {
					if counts[p] < seq {
						t.Fatalf("point %d/%v keep %d: acked part %d seq %d lost: horizons %v",
							n, kind, keep, p, seq, scan.Horizon)
					}
				}
				for cross := uint64(10); cross <= 30; cross += 10 {
					if (counts[0] >= cross) != (counts[1] >= cross) {
						t.Fatalf("point %d/%v keep %d: cross at seq %d half-replayed: horizons %v",
							n, kind, keep, cross, scan.Horizon)
					}
				}
			}
		}
	}
	// The sweep must actually have met both geometries preallocation
	// introduces: a crashed tail that is pure zeros, and a tear that
	// leaves zeros inside a record.
	if zeroTails == 0 || torn == 0 {
		t.Errorf("sweep saw %d zero tails and %d torn tails, want both", zeroTails, torn)
	}
}

func TestFailpointLostSync(t *testing.T) {
	// A lying fsync: acked records vanish in the crash. Recovery must
	// still produce a dense prefix (degradation, not refusal).
	mem := NewMemBackend()
	fb := NewFailBackend(mem)
	l := mustStart(t, fb, Options{Partitions: 1, Ack: AckSync})
	appendN(t, l, 0, 1, 2)
	fb.Arm(FailPoint{Kind: FailLostSync, N: 2}) // seq 3's fsync lies
	appendN(t, l, 0, 3, 6)                      // syncs lie from seq 3 on: horizon stuck after seq 2's bytes
	scan, err := Scan(mem.Clone(0))
	if err != nil {
		t.Fatalf("Scan after lost sync: %v", err)
	}
	if scan.Horizon[0] < 2 {
		t.Errorf("Horizon = %d, want >= 2 (seqs 1-2 were honestly synced)", scan.Horizon[0])
	}
	if scan.Horizon[0] == 6 {
		t.Error("lost fsync did not lose anything — fault not wired")
	}
	_ = l.Close()
}

func TestFileBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatalf("NewFileBackend: %v", err)
	}
	l := mustStart(t, fb, Options{Partitions: 2, SegmentBytes: 256})
	appendN(t, l, 0, 1, 20)
	appendN(t, l, 1, 1, 7)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	fb2, _ := NewFileBackend(dir)
	scan, err := Scan(fb2)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if !scan.Clean || scan.Horizon[0] != 20 || scan.Horizon[1] != 7 {
		t.Errorf("file round trip: clean=%v horizons=%v", scan.Clean, scan.Horizon)
	}
	// Second generation appends and recovers on the same directory.
	l2, err := Start(fb2, Options{Partitions: 2}, scan)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	appendN(t, l2, 1, 8, 9)
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	scan2, err := Scan(fb2)
	if err != nil {
		t.Fatalf("Scan 2: %v", err)
	}
	if scan2.Horizon[1] != 9 {
		t.Errorf("second generation horizon = %d, want 9", scan2.Horizon[1])
	}
}

func TestAckModeNames(t *testing.T) {
	for _, m := range AckModes() {
		got, ok := AckByName(m.String())
		if !ok || got != m {
			t.Errorf("AckByName(%q) = %v, %v", m.String(), got, ok)
		}
	}
	if _, ok := AckByName("bogus"); ok {
		t.Error("AckByName accepted bogus mode")
	}
}
