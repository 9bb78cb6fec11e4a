package certify_test

import (
	"testing"

	"pcltm/internal/certify"
	"pcltm/internal/consistency"
	"pcltm/internal/core"
	"pcltm/internal/exectest"
	"pcltm/internal/history"
	"pcltm/stm"
)

// verdicts runs the certifier on an execution and returns the reports.
func verdicts(t *testing.T, e *core.Execution) map[string]certify.Report {
	t.Helper()
	return certify.All(certify.FromExecution(e))
}

// wantVerdict asserts one condition's verdict.
func wantVerdict(t *testing.T, reps map[string]certify.Report, cond string, want certify.Verdict) {
	t.Helper()
	got := reps[cond]
	if got.Verdict != want {
		t.Errorf("%s: got %s via %q (%s), want %s", cond, got.Verdict, got.Method, got.Reason, want)
	}
}

// agreeWithExhaustive cross-checks every certifier decision against the
// exhaustive checkers on one execution.
func agreeWithExhaustive(t *testing.T, e *core.Execution) {
	t.Helper()
	v := history.FromExecution(e)
	reps := certify.All(certify.FromView(v))
	exact := consistency.CheckAll(v)
	for _, cond := range certify.Conditions() {
		res, ok := exact[cond]
		if !ok || res.Exhausted || reps[cond].Verdict == certify.Unknown {
			continue
		}
		if res.Satisfied != (reps[cond].Verdict == certify.Certified) {
			t.Errorf("%s: exhaustive satisfied=%v, certifier %s via %q",
				cond, res.Satisfied, reps[cond].Verdict, reps[cond].Method)
		}
	}
}

func TestSequentialHistoryCertifies(t *testing.T) {
	e := exectest.New().
		SeqTxn(0, 1, exectest.WV("x", 1), exectest.WV("y", 2)).
		SeqTxn(1, 2, exectest.RV("x", 1), exectest.WV("x", 3)).
		SeqTxn(0, 3, exectest.RV("x", 3), exectest.RV("y", 2)).
		Exec()
	reps := verdicts(t, e)
	for _, cond := range certify.Conditions() {
		wantVerdict(t, reps, cond, certify.Certified)
		if reps[cond].Com != 3 {
			t.Errorf("%s: com=%d, want 3", cond, reps[cond].Com)
		}
	}
	agreeWithExhaustive(t, e)
}

func TestEmptyHistoryCertifies(t *testing.T) {
	reps := verdicts(t, exectest.New().Exec())
	for _, cond := range certify.Conditions() {
		wantVerdict(t, reps, cond, certify.Certified)
	}
}

func TestUnjustifiableReadViolatesEverything(t *testing.T) {
	// T1 aborts after writing x=7; T2 commits having read the aborted 7.
	b := exectest.New()
	b.Begin(0, 1).Write(0, 1, "x", 7).Abort(0, 1)
	b.Begin(1, 2).Read(1, 2, "x", 7).Commit(1, 2)
	e := b.Exec()
	reps := verdicts(t, e)
	for _, cond := range certify.Conditions() {
		wantVerdict(t, reps, cond, certify.Violated)
		if len(reps[cond].Witness) == 0 {
			t.Errorf("%s: violation without witness", cond)
		}
	}
	agreeWithExhaustive(t, e)
}

func TestStaleReadConvictedStrictAndSIOnly(t *testing.T) {
	// T1 commits x=1; T2 begins strictly after T1 ended yet reads the
	// initial 0. Plain serializability may reorder T2 first; strict
	// serializability and SI may not (real-time / window order).
	b := exectest.New()
	b.SeqTxn(0, 1, exectest.WV("x", 1))
	b.SeqTxn(1, 2, exectest.RV("x", 0), exectest.WV("y", 2))
	e := b.Exec()
	reps := verdicts(t, e)
	wantVerdict(t, reps, certify.Serializability, certify.Certified)
	wantVerdict(t, reps, certify.StrictSerializability, certify.Violated)
	wantVerdict(t, reps, certify.SnapshotIsolation, certify.Violated)
	agreeWithExhaustive(t, e)

	strict := reps[certify.StrictSerializability]
	if len(strict.Witness) < 2 {
		t.Errorf("strict witness %v, want the T1/T2 cycle", strict.Witness)
	}
}

func TestReadYourOwnWritesViolation(t *testing.T) {
	// T1 writes x=5 then reads x:3. The SER family validates local reads
	// inside the block; the paper's weak SI leaves local reads
	// unconstrained (Definition 3.1), so SI certifies.
	b := exectest.New()
	b.SeqTxn(0, 1, exectest.WV("x", 5), exectest.RV("x", 3), exectest.WV("x", 3))
	e := b.Exec()
	reps := verdicts(t, e)
	wantVerdict(t, reps, certify.Serializability, certify.Violated)
	wantVerdict(t, reps, certify.StrictSerializability, certify.Violated)
	wantVerdict(t, reps, certify.SnapshotIsolation, certify.Certified)
	agreeWithExhaustive(t, e)
}

func TestWriteSkewSIOnly(t *testing.T) {
	// The classic write skew: overlapping T1 (reads x:0, writes y) and
	// T2 (reads y:0, writes x). Not serializable; allowed by SI.
	b := exectest.New()
	b.Begin(0, 1).Begin(1, 2)
	b.Read(0, 1, "x", 0).Read(1, 2, "y", 0)
	b.Write(0, 1, "y", 1).Write(1, 2, "x", 2)
	b.Commit(0, 1).Commit(1, 2)
	e := b.Exec()
	reps := verdicts(t, e)
	wantVerdict(t, reps, certify.Serializability, certify.Violated)
	wantVerdict(t, reps, certify.StrictSerializability, certify.Violated)
	wantVerdict(t, reps, certify.SnapshotIsolation, certify.Certified)
	agreeWithExhaustive(t, e)
}

func TestCommitPendingForcedIn(t *testing.T) {
	// T1 is commit-pending with x=7 published to T2's read: the read
	// forces T1 into com and both certify.
	b := exectest.New()
	b.Begin(0, 1).Write(0, 1, "x", 7).CommitInv(0, 1)
	b.Begin(1, 2).Read(1, 2, "x", 7).Commit(1, 2)
	e := b.Exec()
	reps := verdicts(t, e)
	for _, cond := range certify.Conditions() {
		wantVerdict(t, reps, cond, certify.Certified)
		if reps[cond].Com != 2 {
			t.Errorf("%s: com=%d, want 2 (pending writer forced in)", cond, reps[cond].Com)
		}
	}
	agreeWithExhaustive(t, e)
}

func TestCommitPendingUnreadExcluded(t *testing.T) {
	// A commit-pending transaction nobody reads from stays out of com.
	b := exectest.New()
	b.Begin(0, 1).Write(0, 1, "x", 9).CommitInv(0, 1)
	b.Begin(1, 2).Read(1, 2, "x", 0).Commit(1, 2)
	e := b.Exec()
	reps := verdicts(t, e)
	for _, cond := range certify.Conditions() {
		wantVerdict(t, reps, cond, certify.Certified)
		if reps[cond].Com != 1 {
			t.Errorf("%s: com=%d, want 1 (unread pending excluded)", cond, reps[cond].Com)
		}
	}
	agreeWithExhaustive(t, e)
}

func TestInferredAntiDependencyCycle(t *testing.T) {
	// Three committed transactions needing the inference step, serial in
	// real time: W1 writes x=1; W2 overwrites x=2 after W1; R reads x:1
	// after W2 committed. Strictly: W1 < W2 (RT), W2 < R (RT), and R
	// reading x from W1 forces R < W2 — a cycle only the anti-dependency
	// rule sees.
	b := exectest.New()
	b.SeqTxn(0, 1, exectest.WV("x", 1))
	b.SeqTxn(0, 2, exectest.WV("x", 2))
	b.SeqTxn(1, 3, exectest.RV("x", 1), exectest.WV("y", 3))
	e := b.Exec()
	reps := verdicts(t, e)
	wantVerdict(t, reps, certify.Serializability, certify.Certified)
	wantVerdict(t, reps, certify.StrictSerializability, certify.Violated)
	wantVerdict(t, reps, certify.SnapshotIsolation, certify.Violated)
	agreeWithExhaustive(t, e)
}

func TestStreamingBuilderMatchesViewPath(t *testing.T) {
	// Drive a real engine under a recorder and certify the same run via
	// both input paths: the streaming Builder and the stamped-execution
	// conversion. Verdicts must match (and certify: these engines are
	// opaque).
	rec := stm.NewRecorder()
	eng := stm.NewEngine(stm.EngineGlobalLock, stm.WithRecorder(rec))
	x := stm.NewTVar[int64](0)
	y := stm.NewTVar[int64](0)
	for i := int64(1); i <= 20; i++ {
		_ = eng.Atomically(func(tx *stm.Tx) error {
			stm.Get(tx, x)
			stm.Set(tx, x, i)
			stm.Set(tx, y, i*100)
			return nil
		})
	}
	attempts := rec.Take()

	bld := certify.NewBuilder()
	bld.Add(attempts)
	if bld.Len() != 20 {
		t.Fatalf("builder holds %d attempts, want 20", bld.Len())
	}
	h, err := bld.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	streamed := certify.All(h)
	for _, cond := range certify.Conditions() {
		if streamed[cond].Verdict != certify.Certified {
			t.Errorf("streamed %s: %s via %q (%s)", cond,
				streamed[cond].Verdict, streamed[cond].Method, streamed[cond].Reason)
		}
	}
}

func TestBuilderInternsStructuredValues(t *testing.T) {
	rec := stm.NewRecorder()
	eng := stm.NewEngine(stm.EngineGlobalLock, stm.WithRecorder(rec))
	type node struct{ v int }
	p1, p2 := &node{1}, &node{2}
	tv := stm.NewTVar[*node](nil)
	_ = eng.Atomically(func(tx *stm.Tx) error {
		stm.Get(tx, tv) // nil: interns to the initial value
		stm.Set(tx, tv, p1)
		return nil
	})
	_ = eng.Atomically(func(tx *stm.Tx) error {
		stm.Get(tx, tv) // p1: must intern equal to the write above
		stm.Set(tx, tv, p2)
		return nil
	})
	bld := certify.NewBuilder()
	bld.Add(rec.Take())
	h, err := bld.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	reps := certify.All(h)
	for _, cond := range certify.Conditions() {
		if reps[cond].Verdict != certify.Certified {
			t.Errorf("%s: %s (%s)", cond, reps[cond].Verdict, reps[cond].Reason)
		}
	}
}

func TestCheckSingleCondition(t *testing.T) {
	e := exectest.New().SeqTxn(0, 1, exectest.WV("x", 1)).Exec()
	rep := certify.Check(certify.FromExecution(e), certify.StrictSerializability)
	if rep.Verdict != certify.Certified {
		t.Fatalf("got %s, want certified", rep.Verdict)
	}
	if rep.Condition != certify.StrictSerializability {
		t.Fatalf("condition %q", rep.Condition)
	}
	if bad := certify.Check(certify.FromExecution(e), "nonsense"); bad.Verdict != certify.Unknown {
		t.Fatalf("unknown condition must yield Unknown, got %s", bad.Verdict)
	}
}

func TestLateCommitStampCertifiesByForcedOrder(t *testing.T) {
	// What a multi-core recorder produces: T1 increments x and is
	// descheduled between publishing and taking its end stamp, so T2 —
	// which read T1's x and incremented it again — is stamped first, and
	// T3, which read T1's x and wrote only y, last. The stamp order
	// (T2, T1, T3) replays nothing; reads-from alone orders T1 first but
	// lets T2 overwrite x before T3 reads it. T2 read-modify-wrote T1's
	// version, so every other reader of that version precedes T2: the
	// one order left, T1 T3 T2, is found without saturation.
	rd := func(item int32, v int64) certify.Op { return certify.Op{Global: true, Item: item, Value: v} }
	wr := func(item int32, v int64) certify.Op { return certify.Op{Write: true, Item: item, Value: v} }
	h := &certify.History{
		Items: []string{"x", "y"},
		Txns: []certify.Txn{
			{ID: 1, Status: core.TxCommitted, Lo: 1, Begin: 1, End: 20, Ops: []certify.Op{rd(0, 0), wr(0, 1)}},
			{ID: 3, Status: core.TxCommitted, Lo: 3, Begin: 3, End: 30, Ops: []certify.Op{rd(0, 1), wr(1, 7)}},
			{ID: 2, Status: core.TxCommitted, Lo: 5, Begin: 5, End: 10, Ops: []certify.Op{rd(0, 1), wr(0, 2)}},
		},
	}
	for cond, rep := range certify.All(h) {
		if rep.Verdict != certify.Certified || rep.Method != "forced-order replay" {
			t.Errorf("%s: %s via %q (%s), want certified via forced-order replay", cond, rep.Verdict, rep.Method, rep.Reason)
		}
	}
	// A lost update is still a violation: T4 also read-modify-wrote T1's
	// version, so T2 and T4 each must precede the other.
	h.Txns = append(h.Txns, certify.Txn{ID: 4, Status: core.TxCommitted, Lo: 6, Begin: 6, End: 12,
		Ops: []certify.Op{rd(0, 1), wr(0, 4)}})
	if rep := certify.Check(h, certify.Serializability); rep.Verdict != certify.Violated {
		t.Errorf("lost update: %s via %q, want violated", rep.Verdict, rep.Method)
	}
}
