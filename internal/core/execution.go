package core

import "fmt"

// TxStatus classifies a transaction's fate within a recorded execution.
type TxStatus int

const (
	// TxLive: the transaction has begun but has invoked neither commit
	// nor abort, or an operation is still pending.
	TxLive TxStatus = iota
	// TxCommitPending: the history of the transaction ends with an
	// unanswered commit invocation.
	TxCommitPending
	// TxCommitted: the transaction received C_T.
	TxCommitted
	// TxAborted: the transaction received A_T.
	TxAborted
)

var txStatusNames = [...]string{"live", "commit-pending", "committed", "aborted"}

// String returns the status name.
func (s TxStatus) String() string {
	if s < 0 || int(s) >= len(txStatusNames) {
		return fmt.Sprintf("txstatus(%d)", int(s))
	}
	return txStatusNames[s]
}

// Execution is a recorded run of a TM implementation on the machine: the
// totally ordered steps, the embedded history (event steps), and the specs
// of the transactions involved.
type Execution struct {
	// Steps is the full step sequence, Steps[i].Index == i.
	Steps []Step
	// Specs maps each transaction to its static code.
	Specs map[TxID]TxSpec
	// NProcs is the number of processes of the machine that produced the
	// execution.
	NProcs int
}

// Events extracts the history H_α: the subsequence of TM-interface events
// in step order.
func (e *Execution) Events() []*Event {
	var evs []*Event
	for i := range e.Steps {
		if ev := e.Steps[i].Event; ev != nil {
			evs = append(evs, ev)
		}
	}
	return evs
}

// StepsOf returns α|T: the subsequence of steps executed on behalf of
// transaction t (including its event steps).
func (e *Execution) StepsOf(t TxID) []Step {
	var out []Step
	for _, s := range e.Steps {
		if s.Txn == t {
			out = append(out, s)
		}
	}
	return out
}

// ObjectStepsOf returns the base-object steps of t (event steps excluded).
func (e *Execution) ObjectStepsOf(t TxID) []Step {
	var out []Step
	for _, s := range e.Steps {
		if s.Txn == t && s.Prim != PrimEvent {
			out = append(out, s)
		}
	}
	return out
}

// TxIDs returns the transactions that appear in the execution, in order of
// their first step.
func (e *Execution) TxIDs() []TxID {
	seen := make(map[TxID]bool)
	var ids []TxID
	for _, s := range e.Steps {
		if s.Txn != NoTx && !seen[s.Txn] {
			seen[s.Txn] = true
			ids = append(ids, s.Txn)
		}
	}
	return ids
}

// StatusOf computes the fate of transaction t in the execution from its
// events. It scans the whole execution without allocating; ask Statuses
// once for the fate of many transactions.
func (e *Execution) StatusOf(t TxID) TxStatus {
	status := TxLive
	for i := range e.Steps {
		if ev := e.Steps[i].Event; ev != nil && ev.Txn == t {
			status = status.after(ev)
		}
	}
	return status
}

// Statuses computes the fate of every transaction with an event in the
// execution, in one pass over the steps. Transactions without events are
// absent, and read as TxLive.
func (e *Execution) Statuses() map[TxID]TxStatus {
	out := make(map[TxID]TxStatus)
	for i := range e.Steps {
		if ev := e.Steps[i].Event; ev != nil {
			out[ev.Txn] = out[ev.Txn].after(ev)
		}
	}
	return out
}

// after is the fate of a transaction in state s once ev, its next event,
// has happened: committed or aborted by its first such response, else
// commit-pending while its last invocation is an unanswered tryCommit,
// else live.
func (s TxStatus) after(ev *Event) TxStatus {
	switch {
	case s == TxCommitted || s == TxAborted:
		return s // the first verdict stands
	case ev.Inv && ev.Op == OpTryCommit:
		return TxCommitPending
	case !ev.Inv && ev.Status == StatusCommitted:
		return TxCommitted
	case !ev.Inv && ev.Status == StatusAborted:
		return TxAborted
	case ev.Inv:
		return TxLive
	}
	return s
}

// Interval returns the active execution interval of t in step indices:
// [first step of any operation invoked by t, last such step]. The second
// return is false if t took no steps.
func (e *Execution) Interval(t TxID) (lo, hi int, ok bool) {
	lo, hi = -1, -1
	for _, s := range e.Steps {
		if s.Txn != t {
			continue
		}
		if lo < 0 {
			lo = s.Index
		}
		hi = s.Index
	}
	return lo, hi, lo >= 0
}

// ReadValues returns, for transaction t, the values its successful reads
// returned, keyed by item, in the order read responses occur. If an item
// is read more than once the last value wins (the construction's
// transactions read each item once).
func (e *Execution) ReadValues(t TxID) map[Item]Value {
	out := make(map[Item]Value)
	for i := range e.Steps {
		ev := e.Steps[i].Event
		if ev == nil || ev.Txn != t || ev.Inv || ev.Op != OpRead || ev.Status != StatusOK {
			continue
		}
		out[ev.Item] = ev.Value
	}
	return out
}

// BeginIndex returns the step index of t's begin invocation, or -1.
func (e *Execution) BeginIndex(t TxID) int {
	for i := range e.Steps {
		ev := e.Steps[i].Event
		if ev != nil && ev.Txn == t && ev.Inv && ev.Op == OpBegin {
			return e.Steps[i].Index
		}
	}
	return -1
}

// Precedes reports T1 <α T2: T1 is not live and its commit/abort response
// precedes T2's begin invocation.
func (e *Execution) Precedes(t1, t2 TxID) bool {
	end1 := -1
	for i := range e.Steps {
		ev := e.Steps[i].Event
		if ev == nil {
			continue
		}
		if ev.Txn == t1 && !ev.Inv && (ev.Status == StatusCommitted || ev.Status == StatusAborted) {
			end1 = e.Steps[i].Index
		}
	}
	if end1 < 0 {
		return false
	}
	b2 := e.BeginIndex(t2)
	return b2 >= 0 && end1 < b2
}

// Concurrent reports that neither T1 <α T2 nor T2 <α T1.
func (e *Execution) Concurrent(t1, t2 TxID) bool {
	return !e.Precedes(t1, t2) && !e.Precedes(t2, t1)
}

// InvokedCommit reports whether t invoked commit_T in the execution.
func (e *Execution) InvokedCommit(t TxID) bool {
	for i := range e.Steps {
		ev := e.Steps[i].Event
		if ev != nil && ev.Txn == t && ev.Inv && ev.Op == OpTryCommit {
			return true
		}
	}
	return false
}

// Append returns a new Execution whose steps are e's followed by more,
// reindexed; specs are merged. Neither input is modified.
func (e *Execution) Append(more *Execution) *Execution {
	out := &Execution{
		Specs:  make(map[TxID]TxSpec, len(e.Specs)+len(more.Specs)),
		NProcs: max(e.NProcs, more.NProcs),
	}
	for id, s := range e.Specs {
		out.Specs[id] = s
	}
	for id, s := range more.Specs {
		out.Specs[id] = s
	}
	out.Steps = make([]Step, 0, len(e.Steps)+len(more.Steps))
	out.Steps = append(out.Steps, e.Steps...)
	out.Steps = append(out.Steps, more.Steps...)
	for i := range out.Steps {
		out.Steps[i].Index = i
		if ev := out.Steps[i].Event; ev != nil {
			clone := *ev
			clone.StepIndex = i
			out.Steps[i].Event = &clone
		}
	}
	return out
}
