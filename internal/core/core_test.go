package core

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestProcTxStrings(t *testing.T) {
	if got := ProcID(0).String(); got != "p1" {
		t.Errorf("ProcID(0) = %q, want p1", got)
	}
	if got := TxID(7).String(); got != "T7" {
		t.Errorf("TxID(7) = %q, want T7", got)
	}
	if got := NoTx.String(); got != "T?" {
		t.Errorf("NoTx = %q, want T?", got)
	}
}

func TestPrimAndStatusStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{PrimRead.String(), "read"},
		{PrimCAS.String(), "cas"},
		{PrimEvent.String(), "event"},
		{StatusCommitted.String(), "C"},
		{StatusAborted.String(), "A"},
		{StatusOK.String(), "ok"},
		{OpTryCommit.String(), "commit"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q want %q", c.got, c.want)
		}
	}
}

func specT1() TxSpec {
	return TxSpec{ID: 1, Proc: 0, Ops: []TxOp{
		R("b3"), R("b7"),
		W("a", 1), W("b1", 1), W("c1", 1), W("d1", 1), W("e1,3", 1),
	}}
}

func specT3() TxSpec {
	return TxSpec{ID: 3, Proc: 2, Ops: []TxOp{
		R("b1"), R("b4"),
		W("b3", 1), W("c3", 1), W("e1,3", 1), W("e3,4", 1),
	}}
}

func specT5() TxSpec {
	return TxSpec{ID: 5, Proc: 4, Ops: []TxOp{
		R("b2"), R("b6"),
		W("b5", 1), W("c5", 1), W("e2,5", 1), W("e5,6", 1),
	}}
}

func TestDataSet(t *testing.T) {
	ds := specT1().DataSet()
	want := []Item{"a", "b1", "b3", "b7", "c1", "d1", "e1,3"}
	if len(ds) != len(want) {
		t.Fatalf("DataSet = %v, want %v", ds, want)
	}
	for i := range ds {
		if ds[i] != want[i] {
			t.Fatalf("DataSet = %v, want %v", ds, want)
		}
	}
}

func TestReadWriteSets(t *testing.T) {
	s := specT1()
	rs := s.ReadSet()
	if len(rs) != 2 || rs[0] != "b3" || rs[1] != "b7" {
		t.Errorf("ReadSet = %v", rs)
	}
	ws := s.WriteSet()
	if len(ws) != 5 || ws[0] != "a" {
		t.Errorf("WriteSet = %v", ws)
	}
	if !s.Writes("e1,3") || s.Writes("b3") {
		t.Errorf("Writes misclassifies")
	}
}

func TestConflicts(t *testing.T) {
	t1, t3, t5 := specT1(), specT3(), specT5()
	if !Conflicts(t1, t3) {
		t.Errorf("T1 and T3 share b1, b3, e1,3: must conflict")
	}
	if Conflicts(t1, t5) {
		t.Errorf("T1 and T5 are disjoint: must not conflict")
	}
	if Conflicts(t3, t5) {
		t.Errorf("T3 and T5 are disjoint: must not conflict")
	}
}

func TestItemUniverse(t *testing.T) {
	u := ItemUniverse([]TxSpec{specT1(), specT3()})
	seen := make(map[Item]bool)
	for _, x := range u {
		if seen[x] {
			t.Fatalf("duplicate item %s in universe %v", x, u)
		}
		seen[x] = true
	}
	for _, x := range append(specT1().DataSet(), specT3().DataSet()...) {
		if !seen[x] {
			t.Fatalf("missing item %s in universe %v", x, u)
		}
	}
}

// buildExec assembles a small execution by hand: T1 commits, then T3 begins
// and stays commit-pending.
func buildExec() *Execution {
	mk := func(i int, tx TxID, ev *Event) Step {
		if ev != nil {
			ev.StepIndex = i
			ev.Txn = tx
			return Step{Index: i, Proc: ProcID(int(tx) - 1), Txn: tx, Obj: NoObj, Prim: PrimEvent, Event: ev}
		}
		return Step{Index: i, Proc: ProcID(int(tx) - 1), Txn: tx, Obj: 0, ObjName: "o", Prim: PrimWrite, Args: []any{Value(1)}, Changed: true}
	}
	steps := []Step{
		mk(0, 1, &Event{Op: OpBegin, Inv: true}),
		mk(1, 1, &Event{Op: OpBegin, Status: StatusOK}),
		mk(2, 1, &Event{Op: OpRead, Inv: true, Item: "b3"}),
		mk(3, 1, &Event{Op: OpRead, Status: StatusOK, Item: "b3", Value: 0}),
		mk(4, 1, nil),
		mk(5, 1, &Event{Op: OpTryCommit, Inv: true}),
		mk(6, 1, &Event{Op: OpTryCommit, Status: StatusCommitted}),
		mk(7, 3, &Event{Op: OpBegin, Inv: true}),
		mk(8, 3, &Event{Op: OpBegin, Status: StatusOK}),
		mk(9, 3, &Event{Op: OpRead, Inv: true, Item: "b1"}),
		mk(10, 3, &Event{Op: OpRead, Status: StatusOK, Item: "b1", Value: 1}),
		mk(11, 3, &Event{Op: OpTryCommit, Inv: true}),
	}
	return &Execution{Steps: steps, Specs: map[TxID]TxSpec{1: specT1(), 3: specT3()}, NProcs: 7}
}

func TestExecutionStatus(t *testing.T) {
	e := buildExec()
	if got := e.StatusOf(1); got != TxCommitted {
		t.Errorf("T1 status = %v, want committed", got)
	}
	if got := e.StatusOf(3); got != TxCommitPending {
		t.Errorf("T3 status = %v, want commit-pending", got)
	}
	if got := e.StatusOf(9); got != TxLive {
		t.Errorf("unknown txn status = %v, want live", got)
	}
	// A verdict stands whatever follows it; a commit invocation stops
	// being pending once the transaction invokes something else.
	e.Steps = append(e.Steps,
		Step{Txn: 4, Prim: PrimEvent, Event: &Event{Txn: 4, Op: OpTryCommit, Inv: true}},
		Step{Txn: 4, Prim: PrimEvent, Event: &Event{Txn: 4, Op: OpTryCommit, Status: StatusAborted}},
		Step{Txn: 4, Prim: PrimEvent, Event: &Event{Txn: 4, Op: OpTryCommit, Inv: true}},
		Step{Txn: 5, Prim: PrimEvent, Event: &Event{Txn: 5, Op: OpTryCommit, Inv: true}},
		Step{Txn: 5, Prim: PrimEvent, Event: &Event{Txn: 5, Op: OpRead, Inv: true}},
	)
	want := map[TxID]TxStatus{1: TxCommitted, 3: TxCommitPending, 4: TxAborted, 5: TxLive}
	if got := e.Statuses(); !reflect.DeepEqual(got, want) {
		t.Errorf("Statuses() = %v, want %v", got, want)
	}
	for id, st := range want {
		if got := e.StatusOf(id); got != st {
			t.Errorf("StatusOf(%d) = %v, Statuses has %v", id, got, st)
		}
	}
	if n := testing.AllocsPerRun(10, func() { e.StatusOf(4) }); n != 0 {
		t.Errorf("StatusOf allocates %v times per call", n)
	}
}

func TestExecutionIntervalAndOrder(t *testing.T) {
	e := buildExec()
	lo, hi, ok := e.Interval(1)
	if !ok || lo != 0 || hi != 6 {
		t.Errorf("interval(T1) = [%d,%d] ok=%v", lo, hi, ok)
	}
	if !e.Precedes(1, 3) {
		t.Errorf("T1 must precede T3")
	}
	if e.Precedes(3, 1) || e.Concurrent(1, 3) {
		t.Errorf("ordering misclassified")
	}
	if !e.InvokedCommit(3) {
		t.Errorf("T3 invoked commit")
	}
}

func TestExecutionReadValues(t *testing.T) {
	e := buildExec()
	rv := e.ReadValues(3)
	if v, ok := rv["b1"]; !ok || v != 1 {
		t.Errorf("T3 read values = %v, want b1:1", rv)
	}
	rv1 := e.ReadValues(1)
	if v, ok := rv1["b3"]; !ok || v != 0 {
		t.Errorf("T1 read values = %v, want b3:0", rv1)
	}
}

func TestExecutionStepsOf(t *testing.T) {
	e := buildExec()
	if got := len(e.StepsOf(1)); got != 7 {
		t.Errorf("steps of T1 = %d, want 7", got)
	}
	if got := len(e.ObjectStepsOf(1)); got != 1 {
		t.Errorf("object steps of T1 = %d, want 1", got)
	}
	ids := e.TxIDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Errorf("TxIDs = %v", ids)
	}
}

func TestExecutionAppendReindexes(t *testing.T) {
	e := buildExec()
	both := e.Append(e)
	if len(both.Steps) != 2*len(e.Steps) {
		t.Fatalf("append length %d", len(both.Steps))
	}
	for i, s := range both.Steps {
		if s.Index != i {
			t.Fatalf("step %d has index %d", i, s.Index)
		}
		if s.Event != nil && s.Event.StepIndex != i {
			t.Fatalf("event at step %d has stale index %d", i, s.Event.StepIndex)
		}
	}
	// Original must be untouched.
	for i, s := range e.Steps {
		if s.Index != i || (s.Event != nil && s.Event.StepIndex != i) {
			t.Fatalf("append mutated its input at %d", i)
		}
	}
}

// Property: DataSet is duplicate-free and covers exactly the ops' items,
// for arbitrary generated op lists.
func TestDataSetProperty(t *testing.T) {
	f := func(reads, writes []uint8) bool {
		var ops []TxOp
		for _, r := range reads {
			ops = append(ops, R(Item(rune('a'+r%5))))
		}
		for _, w := range writes {
			ops = append(ops, W(Item(rune('a'+w%5)), Value(w)))
		}
		spec := TxSpec{ID: 1, Ops: ops}
		ds := spec.DataSet()
		seen := make(map[Item]bool)
		for _, x := range ds {
			if seen[x] {
				return false
			}
			seen[x] = true
		}
		for _, op := range ops {
			if !seen[op.Item] {
				return false
			}
		}
		return len(seen) == len(ds)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStepString(t *testing.T) {
	s := Step{Index: 4, Proc: 0, Txn: 1, Obj: 0, ObjName: "b1", Prim: PrimWrite, Args: []any{Value(1)}, Resp: "ok", Changed: true}
	if s.String() == "" || !s.NonTrivial() {
		t.Errorf("step string/non-trivial broken: %v", s)
	}
	ev := Step{Index: 0, Proc: 0, Txn: 1, Obj: NoObj, Prim: PrimEvent, Event: &Event{Op: OpBegin, Inv: true, Txn: 1}}
	if ev.String() == "" || ev.NonTrivial() {
		t.Errorf("event step string/non-trivial broken: %v", ev)
	}
}
