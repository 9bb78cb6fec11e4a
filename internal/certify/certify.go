// Package certify is the repo's second checker tier: a polynomial-time
// certifier for serializability, strict serializability and the paper's
// weak snapshot isolation over recorded histories far beyond the
// exhaustive checkers' ~10-transaction ceiling (internal/consistency
// decides by permutation search; this package decides by constraint
// saturation, following the commit-order-saturation idea of Biswas &
// Enea, "On the Complexity of Checking Transactional Consistency").
//
// Checking SER/SI is NP-complete in general, so the certifier is
// three-valued. Its two decisive verdicts are both backed by evidence:
//
//   - Violated comes only from constraints every justifying serialization
//     must satisfy — an unjustifiable read, a broken read-your-own-writes
//     sequence, or a cycle of forced precedence edges (reads-from,
//     real-time order, inferred anti-dependencies). The witness is the
//     transaction subset on the offending cycle.
//   - Certified comes only from an explicit justification: a candidate
//     serialization (commit-stamp order, or a topological order of the
//     saturated constraint graph) that replays legally, or — on small
//     histories — an exact search over the remaining ordering choices.
//
// Everything else is Unknown, with the reason recorded. In practice the
// engines' histories certify via the commit-stamp candidate (their
// commit publication order is a legal serialization), and planted bugs
// are convicted by the forced-edge cycle check, so Unknown is the rare
// honest answer, not the common case.
//
// The certifier deliberately mirrors the exhaustive checkers' semantics
// — com(α) choice over commit-pending transactions, legality of blocks,
// real-time precedence only from committed transactions, SI's split
// global-read/write points confined to the transaction's interval with
// shareable positions — so that on small histories the two tiers can be
// compared verdict-for-verdict (the conformance differential test).
package certify

import (
	"fmt"
	"time"

	"pcltm/internal/core"
)

// Condition names understood by Check; they match the exhaustive
// checkers' names (internal/consistency) so reports line up.
const (
	Serializability       = "serializability"
	StrictSerializability = "strict-serializability"
	SnapshotIsolation     = "snapshot-isolation"
)

// Conditions returns the conditions the certifier decides, in report
// order.
func Conditions() []string {
	return []string{Serializability, StrictSerializability, SnapshotIsolation}
}

// Verdict is the three-valued outcome of one certification.
type Verdict int

const (
	// Unknown: the certifier could neither exhibit a justifying
	// serialization nor a forced contradiction within budget.
	Unknown Verdict = iota
	// Certified: a justifying serialization was exhibited and replayed
	// legally.
	Certified
	// Violated: a constraint every justification must satisfy is
	// contradictory; Witness carries the offending transactions.
	Violated
)

var verdictNames = [...]string{"unknown", "certified", "violated"}

// String returns the verdict name.
func (v Verdict) String() string {
	if v < 0 || int(v) >= len(verdictNames) {
		return "invalid"
	}
	return verdictNames[v]
}

// Op is one completed operation of a transaction, with the item interned
// to an index into History.Items.
type Op struct {
	// Write distinguishes writes from reads.
	Write bool
	// Global marks reads not preceded by a same-transaction write to the
	// same item (the fragment SI constrains). Builders compute it.
	Global bool
	// Item indexes History.Items.
	Item int32
	// Value is the value written or observed. 0 is the initial value of
	// every item (core.InitialValue).
	Value int64
}

// Txn is one transaction of a certifiable history.
type Txn struct {
	// ID identifies the transaction (witness vocabulary).
	ID core.TxID
	// Proc is the recording process, informational only — none of the
	// certified conditions constrain per-process order.
	Proc int
	// Status is the transaction's fate; only committed and commit-pending
	// transactions can enter com(α).
	Status core.TxStatus
	// Lo, Begin and End are stamp positions: the first step, the begin
	// invocation, and the last step of the transaction. Real-time
	// precedence uses End < Begin; SI windows span (Lo, End]. For
	// recorder-fed histories all three collapse to BeginSeq/EndSeq.
	Lo, Begin, End int64
	// Ops are the completed operations in program order.
	Ops []Op
}

// History is the certifier's input: a whole recorded run.
type History struct {
	// Txns holds every transaction, in begin order.
	Txns []Txn
	// Items names the interned items, for witnesses and debugging.
	Items []string
}

// Report is the outcome of certifying one condition over one history.
type Report struct {
	// Condition is the condition checked.
	Condition string
	// Verdict is the three-valued outcome.
	Verdict Verdict
	// Txns counts all transactions in the history; Com counts the
	// transactions certified over (committed plus forced-in
	// commit-pending).
	Txns, Com int
	// Method says how the verdict was reached ("commit-order replay",
	// "forced-edge cycle", "exact small-history search", ...).
	Method string
	// Reason elaborates Violated and Unknown verdicts.
	Reason string
	// Witness lists the transactions of the forced contradiction
	// (violations only).
	Witness []core.TxID
	// Rounds and Edges summarize the saturation work done.
	Rounds, Edges int
	// Elapsed is the wall-clock cost of this certification.
	Elapsed time.Duration
}

// String renders a one-line summary.
func (r Report) String() string {
	s := fmt.Sprintf("%s: %s (%d/%d txns, %s", r.Condition, r.Verdict, r.Com, r.Txns, r.Method)
	if r.Reason != "" {
		s += ": " + r.Reason
	}
	return s + ")"
}

// Check certifies one condition over the history.
func Check(h *History, condition string) Report {
	return decide(h, prepare(h), condition)
}

// All certifies every condition, sharing the history preparation.
func All(h *History) map[string]Report {
	p := prepare(h)
	out := make(map[string]Report, 3)
	for _, c := range Conditions() {
		out[c] = decide(h, p, c)
	}
	return out
}

// decide runs the certification pipeline for one condition:
// prechecks → base constraint graph → cycle check → commit-stamp
// candidate → read-modify-write anti-dependencies + topological
// candidate → saturation (inferred anti-dependency edges) → saturated
// topological candidate → exact search on small histories → Unknown.
func decide(h *History, p *prep, condition string) Report {
	start := time.Now()
	rep := Report{Condition: condition, Txns: len(h.Txns), Com: len(p.com)}
	finish := func(r Report) Report {
		r.Elapsed = time.Since(start)
		return r
	}

	si := condition == SnapshotIsolation
	strict := condition == StrictSerializability
	if !si && !strict && condition != Serializability {
		rep.Reason = fmt.Sprintf("unknown condition %q", condition)
		return finish(rep)
	}

	// Prechecks: constraints that hold in every com choice and every
	// serialization, so their failure is a violation outright.
	if p.unjust != nil {
		rep.Verdict = Violated
		rep.Method = "unjustifiable read"
		rep.Reason = p.unjust.reason
		rep.Witness = p.unjust.txns
		return finish(rep)
	}
	// SI places no constraint on local reads (Definition 3.1); the
	// SER-family validates them inside the transaction's block.
	if !si && p.internal != nil {
		rep.Verdict = Violated
		rep.Method = "read-your-own-writes"
		rep.Reason = p.internal.reason
		rep.Witness = p.internal.txns
		return finish(rep)
	}
	if len(p.com) == 0 {
		rep.Verdict = Certified
		rep.Method = "empty com"
		return finish(rep)
	}

	g := buildGraph(p, condition)
	rep.Edges = g.edges
	if w := g.cycleWitness(p); w != nil {
		rep.Verdict = Violated
		rep.Method = "forced-edge cycle"
		rep.Reason = "cycle of reads-from / real-time / window constraints"
		rep.Witness = w
		return finish(rep)
	}

	// Fast path: the commit-stamp order (the order commit publication
	// completed in) replayed as a serialization. For the production
	// engines this is the serialization the implementation actually
	// enforces, so ≥100k-transaction histories certify here without ever
	// computing reachability.
	if replayCandidate(p, si, commitStampOrder(p, si)) {
		rep.Verdict = Certified
		rep.Method = "commit-order replay"
		return finish(rep)
	}

	// The recorder stamps a commit after its publication, so on a
	// multi-core run a committer is now and then stamped after a
	// transaction that already read from it, and the stamp order replays
	// the reader first. The forced edges know better: with the
	// anti-dependencies of read-modify-write chains added (one pass), a
	// topological order tie-broken toward the stamps repairs those
	// inversions — where saturation, past reachCap transactions, would
	// only run out of budget and answer Unknown. (A cycle among the new
	// edges is left for saturate's first check to witness.)
	g.inferSuccessors(p)
	rep.Edges = g.edges
	if order, ok := g.topoOrder(p, si); ok && replayCandidate(p, si, order) {
		rep.Verdict = Certified
		rep.Method = "forced-order replay"
		return finish(rep)
	}

	// Saturate: infer anti-dependency edges forced by reachability, then
	// re-check for cycles, to fixpoint or budget.
	sat := saturate(g, p, condition)
	rep.Rounds, rep.Edges = sat.rounds, g.edges
	if sat.witness != nil {
		rep.Verdict = Violated
		rep.Method = "saturated-edge cycle"
		rep.Reason = "cycle after anti-dependency inference"
		rep.Witness = sat.witness
		return finish(rep)
	}

	// Second candidate: a topological order of the saturated graph,
	// tie-broken toward commit-stamp order.
	if order, ok := g.topoOrder(p, si); ok && replayCandidate(p, si, order) {
		rep.Verdict = Certified
		rep.Method = "saturated-order replay"
		return finish(rep)
	}

	// Exact fallback: small histories with unambiguous reads-from are
	// decided outright, so the certifier agrees verdict-for-verdict with
	// the exhaustive checkers on conformance-episode-sized inputs.
	if len(p.com) <= smallMaxCom && !p.ambiguous {
		switch solveSmall(p, condition) {
		case smallSAT:
			rep.Verdict = Certified
			rep.Method = "exact small-history search"
			return finish(rep)
		case smallUNSAT:
			rep.Verdict = Violated
			rep.Method = "exact small-history search"
			rep.Reason = "no legal serialization exists"
			rep.Witness = comIDs(p)
			return finish(rep)
		}
		rep.Reason = "exact search budget exhausted"
		return finish(rep)
	}

	switch {
	case p.ambiguous:
		rep.Reason = fmt.Sprintf("ambiguous reads-from (%d reads) and candidate replays failed", p.ambiguousReads)
	case !sat.complete:
		rep.Reason = "saturation budget exhausted and candidate replays failed"
	default:
		rep.Reason = "candidate replays failed on large history"
	}
	return finish(rep)
}

// comIDs lists the com transactions' IDs.
func comIDs(p *prep) []core.TxID {
	ids := make([]core.TxID, len(p.com))
	for i, ti := range p.com {
		ids[i] = p.h.Txns[ti].ID
	}
	return ids
}
