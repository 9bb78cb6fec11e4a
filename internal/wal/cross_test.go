package wal

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// crossOps builds a one-op ops section for participant p of cross c.
func crossOps(c uint64, p int) []byte {
	return AppendOp(nil, false, []byte(fmt.Sprintf("c%d", c)), []byte(fmt.Sprintf("p%d", p)))
}

// appendCrossN appends one cross transaction over the given (part, seq)
// members and waits for the acknowledgement.
func appendCrossN(t *testing.T, l *Log, members []CrossPart) {
	t.Helper()
	wait, err := l.AppendCross(members)
	if err != nil {
		t.Fatalf("AppendCross: %v", err)
	}
	if err := wait(); err != nil {
		t.Fatalf("AppendCross wait: %v", err)
	}
}

func TestCrossRoundTrip(t *testing.T) {
	for _, ack := range AckModes() {
		t.Run(ack.String(), func(t *testing.T) {
			b := NewMemBackend()
			l := mustStart(t, b, Options{Partitions: 4, Ack: ack})
			appendN(t, l, 0, 1, 2)
			appendN(t, l, 2, 1, 1)
			appendCrossN(t, l, []CrossPart{
				{Part: 0, Seq: 3, Nops: 1, Ops: crossOps(1, 0)},
				{Part: 1, Seq: 1, Nops: 1, Ops: crossOps(1, 1)},
				{Part: 3, Seq: 1, Nops: 1, Ops: crossOps(1, 3)},
			})
			appendN(t, l, 1, 2, 4)
			appendCrossN(t, l, []CrossPart{
				{Part: 2, Seq: 2, Nops: 1, Ops: crossOps(2, 2)},
				{Part: 3, Seq: 2, Nops: 1, Ops: crossOps(2, 3)},
			})
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if st := l.Stats(); st.Crosses != 2 {
				t.Errorf("Stats.Crosses = %d, want 2", st.Crosses)
			}
			scan, err := Scan(b)
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if !scan.Clean {
				t.Error("sealed log not Clean")
			}
			if got, want := fmt.Sprint(scan.Horizon), "[3 4 2 2]"; got != want {
				t.Errorf("Horizon = %s, want %s", got, want)
			}
			if scan.CrossReplayed != 2 || scan.CrossVoided != 0 {
				t.Errorf("cross replayed/voided = %d/%d, want 2/0", scan.CrossReplayed, scan.CrossVoided)
			}
			var crossRecs int
			for _, r := range scan.Records {
				if r.CrossID != 0 {
					crossRecs++
					if len(r.Ops) != 1 {
						t.Errorf("cross record %d/%d lost its ops", r.Part, r.Seq)
					}
				}
			}
			if crossRecs != 5 {
				t.Errorf("cross payload records replayed = %d, want 5", crossRecs)
			}
		})
	}
}

func TestCrossAckedSurvivesCrash(t *testing.T) {
	// Once AppendCross's wait returns nil in group mode, a crash keeping
	// only synced bytes must preserve the whole cross transaction.
	b := NewMemBackend()
	l := mustStart(t, b, Options{Partitions: 2, Ack: AckGroup})
	appendN(t, l, 0, 1, 2)
	appendCrossN(t, l, []CrossPart{
		{Part: 0, Seq: 3, Nops: 1, Ops: crossOps(1, 0)},
		{Part: 1, Seq: 1, Nops: 1, Ops: crossOps(1, 1)},
	})
	scan, err := Scan(b.Clone(0))
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if scan.Horizon[0] != 3 || scan.Horizon[1] != 1 {
		t.Errorf("acked cross not durable: horizons %v", scan.Horizon)
	}
	if scan.CrossReplayed != 1 || scan.CrossVoided != 0 {
		t.Errorf("cross replayed/voided = %d/%d, want 1/0", scan.CrossReplayed, scan.CrossVoided)
	}
	_ = l.Close()
}

func TestCrossRejectsBadMembers(t *testing.T) {
	l := mustStart(t, NewMemBackend(), Options{Partitions: 2})
	if _, err := l.AppendCross(nil); err == nil {
		t.Error("AppendCross with no members succeeded")
	}
	if _, err := l.AppendCross([]CrossPart{{Part: 5, Seq: 1}}); err == nil {
		t.Error("AppendCross with out-of-range partition succeeded")
	}
	if _, err := l.AppendCross([]CrossPart{{Part: 0, Seq: 1}, {Part: 0, Seq: 2}}); err == nil {
		t.Error("AppendCross with duplicate participant partition succeeded")
	}
	_ = l.Close()
}

// forge writes one synced segment holding the given record payloads
// (after magic; the caller includes the meta payload).
func forge(t *testing.T, b *MemBackend, name string, payloads ...[]byte) {
	t.Helper()
	seg, err := b.Create(name)
	if err != nil {
		t.Fatalf("Create(%s): %v", name, err)
	}
	if err := seg.Append([]byte(Magic)); err != nil {
		t.Fatalf("Append magic: %v", err)
	}
	for _, p := range payloads {
		if err := seg.Append(appendFrame(nil, p)); err != nil {
			t.Fatalf("Append frame: %v", err)
		}
	}
	if err := seg.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func TestCrossUndecidedVoidsWhole(t *testing.T) {
	// Both participants' payloads are durable but the decision record
	// never made it: the crash window between payload appends and the
	// decision fsync. Replaying either share would be a half (or
	// un-acked whole) cross commit — recovery must void both.
	b := NewMemBackend()
	forge(t, b, "wal-0000000000000000.seg",
		metaPayload(2),
		appendCrossPayload(nil, 7, 0, 1, 1, crossOps(7, 0)),
		appendCrossPayload(nil, 7, 1, 1, 1, crossOps(7, 1)),
	)
	scan, err := Scan(b)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if scan.Horizon[0] != 0 || scan.Horizon[1] != 0 {
		t.Errorf("undecided cross replayed: horizons %v", scan.Horizon)
	}
	if scan.CrossVoided != 1 || scan.CrossReplayed != 0 {
		t.Errorf("cross replayed/voided = %d/%d, want 0/1", scan.CrossReplayed, scan.CrossVoided)
	}
	if scan.DroppedByPart[0] != 1 || scan.DroppedByPart[1] != 1 {
		t.Errorf("DroppedByPart = %v, want [1 1]", scan.DroppedByPart)
	}
	// The next generation writes cuts for the voided sequences and may
	// reuse them; its own cross ids must not collide with id 7.
	l, err := Start(b, Options{Partitions: 2}, scan)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	appendCrossN(t, l, []CrossPart{
		{Part: 0, Seq: 1, Nops: 1, Ops: crossOps(8, 0)},
		{Part: 1, Seq: 1, Nops: 1, Ops: crossOps(8, 1)},
	})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	scan2, err := Scan(b)
	if err != nil {
		t.Fatalf("second Scan: %v", err)
	}
	if scan2.Horizon[0] != 1 || scan2.Horizon[1] != 1 {
		t.Errorf("reused sequences not replayable: horizons %v", scan2.Horizon)
	}
	if scan2.CrossReplayed != 1 || scan2.CrossVoided != 0 {
		t.Errorf("after reuse: replayed/voided = %d/%d, want 1/0", scan2.CrossReplayed, scan2.CrossVoided)
	}
	for _, r := range scan2.Records {
		if string(r.Ops[0].Key) != "c8" {
			t.Errorf("replayed stale generation record: %q", r.Ops[0].Key)
		}
	}
}

func TestCrossDecidedMissingParticipantVoids(t *testing.T) {
	// The decision is durable but one participant's payload is not (its
	// append raced the decision's fsync and lost): the decision names a
	// member that never arrived, so the whole cross voids.
	b := NewMemBackend()
	forge(t, b, "wal-0000000000000000.seg",
		metaPayload(2),
		appendCrossPayload(nil, 3, 0, 1, 1, crossOps(3, 0)),
		appendDecisionPayload(nil, 3, []CrossPart{{Part: 0, Seq: 1}, {Part: 1, Seq: 1}}),
	)
	scan, err := Scan(b)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if scan.Horizon[0] != 0 {
		t.Errorf("half-present decided cross replayed: horizons %v", scan.Horizon)
	}
	if scan.CrossVoided != 1 {
		t.Errorf("CrossVoided = %d, want 1", scan.CrossVoided)
	}
}

func TestCrossCascadeVoid(t *testing.T) {
	// Voiding one cross opens a gap that voids another: cross 5 is
	// decided with members (p0,1) and (p1,2), but p1's seq 1 (a plain
	// record) is missing — so (p1,2) sits past a gap, cross 5 voids, and
	// its (p0,1) share must fall with it even though partition 0 has no
	// gap of its own.
	b := NewMemBackend()
	forge(t, b, "wal-0000000000000000.seg",
		metaPayload(2),
		appendCrossPayload(nil, 5, 0, 1, 1, crossOps(5, 0)),
		appendCrossPayload(nil, 5, 1, 2, 1, crossOps(5, 1)),
		appendDecisionPayload(nil, 5, []CrossPart{{Part: 0, Seq: 1}, {Part: 1, Seq: 2}}),
		appendTxnPayload(nil, 0, 2, 1, AppendOp(nil, false, []byte("x"), []byte("y"))),
	)
	scan, err := Scan(b)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if scan.Horizon[0] != 0 || scan.Horizon[1] != 0 {
		t.Errorf("cascade void failed: horizons %v", scan.Horizon)
	}
	if scan.CrossVoided != 1 {
		t.Errorf("CrossVoided = %d, want 1", scan.CrossVoided)
	}
	// The plain record at (p0,2) sat behind the voided cross share and
	// must be dropped too (it was never acked: release stalls behind an
	// unstable cross).
	if scan.DroppedByPart[0] != 2 {
		t.Errorf("DroppedByPart[0] = %d, want 2", scan.DroppedByPart[0])
	}
}

func TestCrossStaleDecisionCannotAdoptReusedSeq(t *testing.T) {
	// Generation 1 leaves a decided cross whose sequences a cut later
	// frees; generation 2 reuses (p0,1) for a plain record. The stale
	// decision for cross 9 must not adopt the reused sequence: its own
	// payload is gone, so it voids, while the new plain record replays.
	b := NewMemBackend()
	forge(t, b, "wal-0000000000000000.seg",
		metaPayload(2),
		// Gen 1: decided cross, but participant (p1,1) payload lost.
		appendCrossPayload(nil, 9, 0, 1, 1, crossOps(9, 0)),
		appendDecisionPayload(nil, 9, []CrossPart{{Part: 0, Seq: 1}, {Part: 1, Seq: 1}}),
	)
	forge(t, b, "wal-0000000000000001.seg",
		metaPayload(2),
		// Gen 2: cut voids p0 from seq 1, then reuses seq 1.
		cutPayload(0, 1),
		appendTxnPayload(nil, 0, 1, 1, AppendOp(nil, false, []byte("new"), []byte("v"))),
	)
	scan, err := Scan(b)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if scan.Horizon[0] != 1 {
		t.Fatalf("Horizon[0] = %d, want 1 (the reused plain record)", scan.Horizon[0])
	}
	if len(scan.Records) != 1 || scan.Records[0].CrossID != 0 || string(scan.Records[0].Ops[0].Key) != "new" {
		t.Errorf("replay plan = %+v, want only the new generation's record", scan.Records)
	}
}

func TestCrossReleaseGatesLaterAppends(t *testing.T) {
	// A plain append with a higher sequence than an in-flight cross on
	// the same partition must not ack before the cross is stable —
	// otherwise a crash could void the cross, open a gap, and drop an
	// acked record. Exercised by concurrency: many rounds of cross +
	// chasing plain appends, then verify on the synced image that every
	// acked plain record survives.
	b := NewMemBackend()
	l := mustStart(t, slowBackend{b}, Options{Partitions: 2, Ack: AckGroup})
	var wg sync.WaitGroup
	seq := [2]uint64{}
	for round := 0; round < 20; round++ {
		members := []CrossPart{
			{Part: 0, Seq: seq[0] + 1, Nops: 1, Ops: crossOps(uint64(round), 0)},
			{Part: 1, Seq: seq[1] + 1, Nops: 1, Ops: crossOps(uint64(round), 1)},
		}
		seq[0]++
		seq[1]++
		wait, err := l.AppendCross(members)
		if err != nil {
			t.Fatalf("AppendCross: %v", err)
		}
		// Chasing plain appends on both partitions, concurrent with the
		// cross's ack path.
		for p := 0; p < 2; p++ {
			seq[p]++
			wg.Add(1)
			go func(p int, s uint64) {
				defer wg.Done()
				if err := l.Append(p, s, 1, AppendOp(nil, false, []byte{byte(p)}, []byte{byte(s)})); err != nil {
					t.Errorf("Append: %v", err)
				}
			}(p, seq[p])
		}
		if err := wait(); err != nil {
			t.Fatalf("cross wait: %v", err)
		}
	}
	wg.Wait()
	scan, err := Scan(b.Clone(0))
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	// Everything acked: both partitions' horizons cover all 40 seqs.
	if scan.Horizon[0] != seq[0] || scan.Horizon[1] != seq[1] {
		t.Errorf("horizons %v, want [%d %d]", scan.Horizon, seq[0], seq[1])
	}
	if scan.CrossReplayed != 20 {
		t.Errorf("CrossReplayed = %d, want 20", scan.CrossReplayed)
	}
	_ = l.Close()
}

func TestBatchWindowBatches(t *testing.T) {
	b := NewMemBackend()
	l := mustStart(t, b, Options{Partitions: 4, Ack: AckGroup, BatchWindow: 2 * time.Millisecond})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for seq := uint64(1); seq <= 25; seq++ {
				if err := l.Append(p, seq, 1, AppendOp(nil, false, []byte{byte(p)}, []byte{byte(seq)})); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != 100 {
		t.Errorf("Appends = %d, want 100", st.Appends)
	}
	// The window must force real batching even on a fast mem backend:
	// with 4 blocking committers each window collects (up to) one record
	// per committer, so syncs ≈ appends/4 plus the start/seal pair.
	if st.Syncs > st.Appends/3 {
		t.Errorf("window did not batch: %d syncs for %d appends", st.Syncs, st.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	scan, err := Scan(b)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	for p := 0; p < 4; p++ {
		if scan.Horizon[p] != 25 {
			t.Errorf("Horizon[%d] = %d, want 25", p, scan.Horizon[p])
		}
	}
}
