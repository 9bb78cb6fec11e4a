// Package history projects recorded executions into the paper's history
// vocabulary: per-transaction operation sequences, well-formedness,
// global-read classification (Section 3, "Consistency"), and legality of
// sequential histories — the primitive every consistency checker is built
// on.
package history

import (
	"fmt"
	"sort"

	"pcltm/internal/core"
)

// Op is a completed (successfully responded) read or write of a
// transaction.
type Op struct {
	// Kind is core.OpRead or core.OpWrite.
	Kind core.OpKind
	// Item is the data item accessed.
	Item core.Item
	// Value is the value written, or the value the read returned.
	Value core.Value
	// Global marks reads not preceded by a write to the same item by the
	// same transaction. Only global reads are constrained by the paper's
	// weak snapshot isolation and weak adaptive consistency.
	Global bool
}

// String renders the op in the paper's x:v / x(v) figure notation.
func (o Op) String() string {
	if o.Kind == core.OpRead {
		return fmt.Sprintf("%s:%d", o.Item, o.Value)
	}
	return fmt.Sprintf("%s(%d)", o.Item, o.Value)
}

// Txn is the checker-facing summary of one transaction in an execution.
type Txn struct {
	// ID identifies the transaction.
	ID core.TxID
	// Proc is the process that executed it.
	Proc core.ProcID
	// Status is its fate in the execution.
	Status core.TxStatus
	// Ops are its completed reads and writes in program order.
	Ops []Op
	// IntervalLo and IntervalHi delimit its active execution interval in
	// step indices.
	IntervalLo, IntervalHi int
	// BeginIndex is the step index of its begin invocation (consistency
	// groups are intervals of the begin order).
	BeginIndex int
}

// GlobalReads returns the ops of T|read_g: the global reads in order.
func (t *Txn) GlobalReads() []Op {
	var out []Op
	for _, op := range t.Ops {
		if op.Kind == core.OpRead && op.Global {
			out = append(out, op)
		}
	}
	return out
}

// Writes returns the ops of T|write: the writes in order.
func (t *Txn) Writes() []Op {
	var out []Op
	for _, op := range t.Ops {
		if op.Kind == core.OpWrite {
			out = append(out, op)
		}
	}
	return out
}

// WritesItem reports whether the transaction performed a write to x.
func (t *Txn) WritesItem(x core.Item) bool {
	for _, op := range t.Ops {
		if op.Kind == core.OpWrite && op.Item == x {
			return true
		}
	}
	return false
}

// View is the input consumed by the consistency checkers: the
// transactions of an execution with their intervals, in begin order.
type View struct {
	// Txns is sorted by BeginIndex.
	Txns []*Txn
	// NProcs is the machine width the execution was recorded on.
	NProcs int
}

// ByID returns the transaction with the given id, or nil.
func (v *View) ByID(id core.TxID) *Txn {
	for _, t := range v.Txns {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Committed returns the committed transactions.
func (v *View) Committed() []*Txn {
	var out []*Txn
	for _, t := range v.Txns {
		if t.Status == core.TxCommitted {
			out = append(out, t)
		}
	}
	return out
}

// CommitPending returns the commit-pending transactions.
func (v *View) CommitPending() []*Txn {
	var out []*Txn
	for _, t := range v.Txns {
		if t.Status == core.TxCommitPending {
			out = append(out, t)
		}
	}
	return out
}

// FromExecution builds the checker view of a recorded execution. Only
// operations with successful responses become Ops; unanswered invocations
// and aborted operations carry no value to validate.
func FromExecution(e *core.Execution) *View {
	byID := make(map[core.TxID]*Txn)
	var order []core.TxID
	written := make(map[core.TxID]map[core.Item]bool)

	for i := range e.Steps {
		s := &e.Steps[i]
		if s.Txn == core.NoTx {
			continue
		}
		t, ok := byID[s.Txn]
		if !ok {
			t = &Txn{ID: s.Txn, Proc: s.Proc, IntervalLo: s.Index, BeginIndex: -1}
			byID[s.Txn] = t
			order = append(order, s.Txn)
			written[s.Txn] = make(map[core.Item]bool)
		}
		t.IntervalHi = s.Index
		ev := s.Event
		if ev == nil {
			continue
		}
		switch {
		case ev.Inv && ev.Op == core.OpBegin:
			t.BeginIndex = s.Index
		case !ev.Inv && ev.Op == core.OpRead && ev.Status == core.StatusOK:
			t.Ops = append(t.Ops, Op{
				Kind:   core.OpRead,
				Item:   ev.Item,
				Value:  ev.Value,
				Global: !written[s.Txn][ev.Item],
			})
		case !ev.Inv && ev.Op == core.OpWrite && ev.Status == core.StatusOK:
			t.Ops = append(t.Ops, Op{Kind: core.OpWrite, Item: ev.Item, Value: ev.Value})
			written[s.Txn][ev.Item] = true
		}
	}

	v := &View{NProcs: e.NProcs}
	statuses := e.Statuses()
	for _, id := range order {
		t := byID[id]
		t.Status = statuses[id]
		if t.BeginIndex < 0 {
			t.BeginIndex = t.IntervalLo
		}
		v.Txns = append(v.Txns, t)
	}
	sort.SliceStable(v.Txns, func(i, j int) bool {
		return v.Txns[i].BeginIndex < v.Txns[j].BeginIndex
	})
	return v
}
