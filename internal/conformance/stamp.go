// Package conformance wires the repo's two halves into one test surface:
// it records genuine concurrent histories from the production stm/
// engines (stm.Recorder) and runs the paper's consistency checkers
// (internal/consistency) on them. The simulated protocols walk the PCL
// construction; this package asks the engines people actually run the
// same question — "was that execution opaque / strictly serializable /
// ...?" — on real interleavings under real parallelism.
//
// The pipeline: RunEpisode drives one engine with a small seeded
// concurrent workload under a recorder, Stamp projects the drained
// attempt log into a core.Execution (every attempt one transaction,
// events ordered by the recorder's atomic tickets), and Check asserts
// well-formedness and runs every registered checker against the engine's
// expectations. Stress sweeps engines × workload patterns × seeds.
package conformance

import (
	"fmt"
	"reflect"
	"sort"

	"pcltm/internal/core"
	"pcltm/internal/exectest"
	"pcltm/stm"
)

// momentKind orders the three event classes of one attempt.
type momentKind int

const (
	momentBegin momentKind = iota
	momentOp
	momentEnd
)

// moment is one stamped event of the merged log.
type moment struct {
	seq  uint64
	kind momentKind
	att  *stm.AttemptRecord
	txn  core.TxID
	op   stm.RecordedOp
}

// Stamp projects drained attempt records into a core.Execution in the
// paper's vocabulary. Every attempt becomes one transaction — committed
// attempts commit, conflicted/aborted/waited attempts abort — with ids
// assigned in begin-stamp order. itemOf maps recorded tvar ids to data
// items; recorded values must be int64 or int (the bounded value spaces
// the conformance workloads use, so reads-from is unambiguous).
//
// Soundness of the projection: every recorder stamp is taken at a
// real-time point inside its operation's span (see stm/record.go), so the
// stamped total order is a linearization of the real execution — any
// real-time precedence the checkers derive from it actually happened, and
// observed values are consistent with stamp order. A condition that holds
// on the stamped history therefore held in the machine.
func Stamp(attempts []*stm.AttemptRecord, itemOf func(tvar uint64) (core.Item, bool), nprocs int) (*core.Execution, error) {
	return stamp(attempts, itemOf, nprocs, convertOp)
}

// StampInterned is Stamp for histories whose recorded values are not all
// integers — the transactional data structures record link and
// bucket-head TVars holding node and array pointers. Integer payloads
// pass through unchanged; nil-ish values (typed nil links: the empty
// chain or bucket, which is also every such TVar's initial value) map
// to 0; every other distinct value gets a
// unique negative integer, assigned on first sight. The mapping is
// injective, so it preserves exactly the equality structure reads-from
// depends on: a read maps to a write's value iff the machine really
// returned that write's pointer. (Two link writes of the same pointer map
// to the same integer, as they must — they are the same value.)
func StampInterned(attempts []*stm.AttemptRecord, itemOf func(tvar uint64) (core.Item, bool), nprocs int) (*core.Execution, error) {
	in := &interner{seen: make(map[any]core.Value)}
	return stamp(attempts, itemOf, nprocs, in.convert)
}

func stamp(attempts []*stm.AttemptRecord, itemOf func(tvar uint64) (core.Item, bool), nprocs int,
	convert func(stm.RecordedOp, func(uint64) (core.Item, bool)) (core.Item, core.Value, error)) (*core.Execution, error) {
	byBegin := make([]*stm.AttemptRecord, len(attempts))
	copy(byBegin, attempts)
	sort.Slice(byBegin, func(i, j int) bool { return byBegin[i].BeginSeq < byBegin[j].BeginSeq })

	var moments []moment
	b := exectest.New().NProcs(nprocs)
	for i, a := range byBegin {
		txn := core.TxID(i + 1)
		moments = append(moments,
			moment{seq: a.BeginSeq, kind: momentBegin, att: a, txn: txn},
			moment{seq: a.EndSeq, kind: momentEnd, att: a, txn: txn})
		for _, op := range a.Ops {
			moments = append(moments, moment{seq: op.Seq, kind: momentOp, att: a, txn: txn, op: op})
		}

		// The static spec: the attempt's completed code.
		spec := core.TxSpec{ID: txn, Proc: core.ProcID(a.Proc)}
		for _, op := range a.Ops {
			item, v, err := convert(op, itemOf)
			if err != nil {
				return nil, err
			}
			if op.Write {
				spec.Ops = append(spec.Ops, core.W(item, v))
			} else {
				spec.Ops = append(spec.Ops, core.R(item))
			}
		}
		b.Spec(spec)
	}
	sort.Slice(moments, func(i, j int) bool { return moments[i].seq < moments[j].seq })

	for _, m := range moments {
		p := core.ProcID(m.att.Proc)
		switch m.kind {
		case momentBegin:
			b.Begin(p, m.txn)
		case momentOp:
			item, v, err := convert(m.op, itemOf)
			if err != nil {
				return nil, err
			}
			if m.op.Write {
				b.Write(p, m.txn, item, v)
			} else {
				b.Read(p, m.txn, item, v)
			}
		case momentEnd:
			if m.att.Outcome == stm.AttemptCommitted {
				b.Commit(p, m.txn)
			} else {
				// Conflicted, user-aborted and Retry-blocked attempts all
				// end in A_T: the engine rolled them back.
				b.Abort(p, m.txn)
			}
		}
	}
	return b.Exec(), nil
}

// interner maps arbitrary recorded values to core.Values for
// StampInterned: integers pass through, nil-ish values become 0,
// anything else gets the next negative integer on first sight.
type interner struct {
	seen map[any]core.Value
	next core.Value
}

func (in *interner) convert(op stm.RecordedOp, itemOf func(uint64) (core.Item, bool)) (core.Item, core.Value, error) {
	item, ok := itemOf(op.TVar)
	if !ok {
		return "", 0, fmt.Errorf("conformance: recorded op on unknown tvar id %d", op.TVar)
	}
	switch v := op.Value.(type) {
	case nil:
		return item, 0, nil
	case int64:
		return item, core.Value(v), nil
	case int:
		return item, core.Value(v), nil
	}
	rv := reflect.ValueOf(op.Value)
	switch rv.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func, reflect.Slice, reflect.Interface:
		if rv.IsNil() {
			// A typed-nil link is the structures' empty marker and every
			// link TVar's initial value; it must intern to the checkers'
			// initial value 0 or every first chain read would look like a
			// read of an unwritten value.
			return item, 0, nil
		}
	}
	if rv.IsZero() {
		// Same reasoning for non-pointer control TVars (a server's bool
		// stop flag, a queue's int64 size): they start at their type's
		// zero value, so the zero value must intern to the checkers'
		// initial 0 or a pre-write read would look unjustifiable. A TVar
		// holds one static type, so the per-item mapping stays injective.
		return item, 0, nil
	}
	if !reflect.TypeOf(op.Value).Comparable() {
		return "", 0, fmt.Errorf("conformance: recorded value of %s has non-comparable type %T; cannot intern", item, op.Value)
	}
	if id, ok := in.seen[op.Value]; ok {
		return item, id, nil
	}
	in.next--
	in.seen[op.Value] = in.next
	return item, in.next, nil
}

// convertOp resolves a recorded op's item and value.
func convertOp(op stm.RecordedOp, itemOf func(uint64) (core.Item, bool)) (core.Item, core.Value, error) {
	item, ok := itemOf(op.TVar)
	if !ok {
		return "", 0, fmt.Errorf("conformance: recorded op on unknown tvar id %d", op.TVar)
	}
	switch v := op.Value.(type) {
	case int64:
		return item, core.Value(v), nil
	case int:
		return item, core.Value(v), nil
	default:
		return "", 0, fmt.Errorf("conformance: recorded value %v (%T) on %s is not an integer", op.Value, op.Value, item)
	}
}
