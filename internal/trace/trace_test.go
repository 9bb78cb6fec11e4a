package trace

import (
	"fmt"
	"testing"
	"time"

	"pcltm/internal/certify"
	"pcltm/internal/consistency"
	"pcltm/internal/core"
	"pcltm/internal/dap"
	"pcltm/internal/exectest"
	"pcltm/internal/history"
	"pcltm/internal/machine"
	"pcltm/internal/stms"
	"pcltm/internal/stms/portfolio"
)

// recordedExecution produces a real execution via a simulated protocol.
func recordedExecution(t *testing.T) *core.Execution {
	t.Helper()
	proto, err := portfolio.ByName("naive")
	if err != nil {
		t.Fatal(err)
	}
	specs := []core.TxSpec{
		{ID: 1, Proc: 0, Ops: []core.TxOp{core.R("x"), core.W("x", 1), core.W("y", 2)}},
		{ID: 2, Proc: 1, Ops: []core.TxOp{core.R("y"), core.W("z", 3)}},
	}
	b := &stms.Bundle{Protocol: proto, Specs: specs}
	exec, err := b.Run(machine.Schedule{machine.Solo(0), machine.Solo(1)})
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

func TestRoundTripPreservesAnalyses(t *testing.T) {
	orig := recordedExecution(t)
	data, err := Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Steps) != len(orig.Steps) {
		t.Fatalf("steps = %d, want %d", len(back.Steps), len(orig.Steps))
	}
	// Histories must agree.
	if err := history.CheckWellFormed(back); err != nil {
		t.Fatalf("round-tripped history ill-formed: %v", err)
	}
	v1 := history.FromExecution(orig)
	v2 := history.FromExecution(back)
	if len(v1.Txns) != len(v2.Txns) {
		t.Fatalf("txn counts differ")
	}
	for i := range v1.Txns {
		a, b := v1.Txns[i], v2.Txns[i]
		if a.ID != b.ID || a.Status != b.Status || len(a.Ops) != len(b.Ops) {
			t.Errorf("txn %v differs after round trip", a.ID)
		}
	}
	// Checker verdicts must agree.
	r1 := consistency.Serializable(v1)
	r2 := consistency.Serializable(v2)
	if r1.Satisfied != r2.Satisfied {
		t.Errorf("serializability verdict changed: %v vs %v", r1.Satisfied, r2.Satisfied)
	}
	// DAP analysis must agree (identity carried by object names).
	c1 := dap.Contentions(orig)
	c2 := dap.Contentions(back)
	if len(c1) != len(c2) {
		t.Errorf("contentions differ: %d vs %d", len(c1), len(c2))
	}
	// Specs must survive.
	if len(back.Specs) != 2 || back.Specs[1].String() != orig.Specs[1].String() {
		t.Errorf("specs lost: %v", back.Specs)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("{nope")); err == nil {
		t.Errorf("garbage accepted")
	}
	if _, err := Decode([]byte(`{"steps":[{"prim":"zorp"}]}`)); err == nil {
		t.Errorf("unknown primitive accepted")
	}
	if _, err := Decode([]byte(`{"steps":[{"prim":"event","event":{"op":"zorp"}}]}`)); err == nil {
		t.Errorf("unknown event op accepted")
	}
	if _, err := Decode([]byte(`{"specs":[{"id":1,"ops":[{"kind":"zorp"}]}]}`)); err == nil {
		t.Errorf("unknown spec op accepted")
	}
}

func TestObjectIdentityPreserved(t *testing.T) {
	orig := recordedExecution(t)
	data, err := Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Same object name ⇒ same reassigned id.
	byName := make(map[string]core.ObjID)
	for _, s := range back.Steps {
		if s.Prim == core.PrimEvent {
			continue
		}
		if id, ok := byName[s.ObjName]; ok {
			if id != s.Obj {
				t.Fatalf("object %q has two ids", s.ObjName)
			}
		} else {
			byName[s.ObjName] = s.Obj
		}
	}
}

// TestServedScaleHistoryLoads pins the /history path at the size a load
// test produces: encoding, decoding and building the certifier's input
// from a 20k-transaction execution were each quadratic (an insertion
// sort over the spec ids, one whole-execution status scan per
// transaction) and took 30 s together.
func TestServedScaleHistoryLoads(t *testing.T) {
	const txns = 20_000
	b := exectest.New().NProcs(4)
	for i := txns; i >= 1; i-- { // specs arrive in map order anyway; ids descend here
		id, item := core.TxID(i), core.Item(fmt.Sprintf("k%d", i%512))
		ops := []core.TxOp{core.W(item, core.Value(i))}
		b.Spec(core.TxSpec{ID: id, Proc: core.ProcID(i % 4), Ops: ops})
		b.SeqTxn(core.ProcID(i%4), id, ops...)
	}
	start := time.Now()
	data, err := Encode(b.Exec())
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	h := certify.FromExecution(back)
	if d := time.Since(start); d > 2*time.Second && !raceEnabled {
		t.Fatalf("encode + decode + load of %d transactions took %v", txns, d)
	}
	if len(h.Txns) != txns {
		t.Fatalf("loaded %d transactions, want %d", len(h.Txns), txns)
	}
	for i := range h.Txns {
		if h.Txns[i].Status != core.TxCommitted {
			t.Fatalf("transaction %d loaded as %v, want committed", i, h.Txns[i].Status)
		}
	}
}
