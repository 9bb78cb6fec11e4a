// Package trace serializes recorded executions to JSON and back, so the
// consistency and DAP checkers can run on traces produced elsewhere
// (cmd/tmcheck reads these files). The codec preserves everything the
// analyses need: step order, per-step process/transaction/object identity,
// non-triviality, the full TM-interface event stream, and the static
// transaction specs.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"

	"pcltm/internal/core"
)

// File is the on-disk representation of an execution.
type File struct {
	// Meta describes the trace's provenance; optional, absent from
	// pre-metadata files.
	Meta *Meta `json:"meta,omitempty"`
	// NProcs is the machine width.
	NProcs int `json:"nprocs"`
	// Specs are the static transactions.
	Specs []SpecJSON `json:"specs"`
	// Steps is the full step sequence.
	Steps []StepJSON `json:"steps"`
}

// Meta is a trace's provenance: which tool recorded it, over which
// engine, and — for histories stitched from a partitioned store's
// per-partition recorders — how many partitions fed it. Checkers ignore
// it; tmcheck prints it, and the stitching fields let a reader of a
// server-recorded artifact know the history merges several engines'
// logs over one shared stamp counter.
type Meta struct {
	// Source names the producer ("tmserve", "tmcheck -live", a test).
	Source string `json:"source,omitempty"`
	// Engine is the engine kind's short name.
	Engine string `json:"engine,omitempty"`
	// Partitions counts the per-partition recorders stitched into the
	// trace; 0 or 1 means a single unpartitioned log.
	Partitions int `json:"partitions,omitempty"`
	// HistoryDropped counts attempts rotated out of a bounded history
	// accumulator before this trace was cut. When non-zero the trace is
	// a suffix, not the full run: certification verdicts over it speak
	// only for the retained window.
	HistoryDropped uint64 `json:"history_dropped,omitempty"`
}

// SpecJSON is a static transaction.
type SpecJSON struct {
	ID   int      `json:"id"`
	Proc int      `json:"proc"`
	Ops  []OpJSON `json:"ops"`
}

// OpJSON is one spec operation.
type OpJSON struct {
	Kind  string `json:"kind"` // "read" | "write"
	Item  string `json:"item"`
	Value int64  `json:"value,omitempty"`
}

// StepJSON is one step. Object identity is carried by name; primitive
// arguments and responses are carried as display strings (the analyses
// use only identity, non-triviality and events).
type StepJSON struct {
	Proc    int        `json:"proc"`
	Txn     int        `json:"txn,omitempty"`
	Obj     string     `json:"obj,omitempty"`
	Prim    string     `json:"prim"`
	Changed bool       `json:"changed,omitempty"`
	Args    []string   `json:"args,omitempty"`
	Resp    string     `json:"resp,omitempty"`
	Event   *EventJSON `json:"event,omitempty"`
}

// EventJSON is a TM-interface event.
type EventJSON struct {
	Op     string `json:"op"`
	Inv    bool   `json:"inv,omitempty"`
	Item   string `json:"item,omitempty"`
	Value  int64  `json:"value,omitempty"`
	Status string `json:"status,omitempty"`
}

var primByName = map[string]core.Prim{
	"event": core.PrimEvent, "read": core.PrimRead, "write": core.PrimWrite,
	"cas": core.PrimCAS, "tas": core.PrimTAS, "faa": core.PrimFAA,
	"ll": core.PrimLL, "sc": core.PrimSC,
}

var opByName = map[string]core.OpKind{
	"begin": core.OpBegin, "read": core.OpRead, "write": core.OpWrite,
	"commit": core.OpTryCommit, "abort": core.OpAbortReq,
}

var statusByName = map[string]core.Status{
	"": core.StatusNone, "ok": core.StatusOK, "C": core.StatusCommitted, "A": core.StatusAborted,
}

// Encode marshals an execution to JSON.
func Encode(e *core.Execution) ([]byte, error) {
	return EncodeWithMeta(e, nil)
}

// EncodeWithMeta marshals an execution with provenance metadata; nil
// meta encodes identically to Encode.
func EncodeWithMeta(e *core.Execution, meta *Meta) ([]byte, error) {
	f := File{Meta: meta, NProcs: e.NProcs}
	for _, id := range sortedSpecIDs(e) {
		spec := e.Specs[id]
		sj := SpecJSON{ID: int(spec.ID), Proc: int(spec.Proc)}
		for _, op := range spec.Ops {
			oj := OpJSON{Item: string(op.Item), Value: int64(op.Value)}
			if op.Kind == core.OpRead {
				oj.Kind = "read"
			} else {
				oj.Kind = "write"
			}
			sj.Ops = append(sj.Ops, oj)
		}
		f.Specs = append(f.Specs, sj)
	}
	for _, s := range e.Steps {
		sj := StepJSON{
			Proc:    int(s.Proc),
			Txn:     int(s.Txn),
			Obj:     s.ObjName,
			Prim:    s.Prim.String(),
			Changed: s.Changed,
		}
		for _, a := range s.Args {
			sj.Args = append(sj.Args, fmt.Sprint(a))
		}
		if s.Resp != nil {
			sj.Resp = fmt.Sprint(s.Resp)
		}
		if ev := s.Event; ev != nil {
			sj.Event = &EventJSON{
				Op:     ev.Op.String(),
				Inv:    ev.Inv,
				Item:   string(ev.Item),
				Value:  int64(ev.Value),
				Status: ev.Status.String(),
			}
		}
		f.Steps = append(f.Steps, sj)
	}
	return json.MarshalIndent(f, "", " ")
}

// Decode unmarshals an execution from JSON. Object ids are reassigned in
// first-appearance order of the names, which preserves identity.
func Decode(data []byte) (*core.Execution, error) {
	e, _, err := DecodeFile(data)
	return e, err
}

// DecodeFile unmarshals an execution plus its provenance metadata (nil
// when the file carries none).
func DecodeFile(data []byte) (*core.Execution, *Meta, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}
	e := &core.Execution{
		NProcs: f.NProcs,
		Specs:  make(map[core.TxID]core.TxSpec),
	}
	for _, sj := range f.Specs {
		spec := core.TxSpec{ID: core.TxID(sj.ID), Proc: core.ProcID(sj.Proc)}
		for _, oj := range sj.Ops {
			switch oj.Kind {
			case "read":
				spec.Ops = append(spec.Ops, core.R(core.Item(oj.Item)))
			case "write":
				spec.Ops = append(spec.Ops, core.W(core.Item(oj.Item), core.Value(oj.Value)))
			default:
				return nil, nil, fmt.Errorf("trace: unknown spec op kind %q", oj.Kind)
			}
		}
		e.Specs[spec.ID] = spec
	}
	objIDs := make(map[string]core.ObjID)
	for i, sj := range f.Steps {
		prim, ok := primByName[sj.Prim]
		if !ok {
			return nil, nil, fmt.Errorf("trace: step %d has unknown primitive %q", i, sj.Prim)
		}
		step := core.Step{
			Index:   i,
			Proc:    core.ProcID(sj.Proc),
			Txn:     core.TxID(sj.Txn),
			Obj:     core.NoObj,
			ObjName: sj.Obj,
			Prim:    prim,
			Changed: sj.Changed,
		}
		if prim != core.PrimEvent {
			id, ok := objIDs[sj.Obj]
			if !ok {
				id = core.ObjID(len(objIDs))
				objIDs[sj.Obj] = id
			}
			step.Obj = id
		}
		for _, a := range sj.Args {
			step.Args = append(step.Args, a)
		}
		if sj.Resp != "" {
			step.Resp = sj.Resp
		}
		if sj.Event != nil {
			op, ok := opByName[sj.Event.Op]
			if !ok {
				return nil, nil, fmt.Errorf("trace: step %d has unknown event op %q", i, sj.Event.Op)
			}
			st, ok := statusByName[sj.Event.Status]
			if !ok {
				return nil, nil, fmt.Errorf("trace: step %d has unknown status %q", i, sj.Event.Status)
			}
			step.Event = &core.Event{
				StepIndex: i,
				Proc:      step.Proc,
				Txn:       step.Txn,
				Op:        op,
				Inv:       sj.Event.Inv,
				Item:      core.Item(sj.Event.Item),
				Value:     core.Value(sj.Event.Value),
				Status:    st,
			}
		}
		e.Steps = append(e.Steps, step)
	}
	return e, f.Meta, nil
}

func sortedSpecIDs(e *core.Execution) []core.TxID {
	ids := make([]core.TxID, 0, len(e.Specs))
	for id := range e.Specs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
