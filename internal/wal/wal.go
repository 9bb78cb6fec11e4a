// Package wal is the durable commit log of the partitioned store: a
// checksummed, segmented write-ahead log with group commit, pluggable
// storage backends, and crash-fault injection built in from day one.
//
// The design follows the shape the rest of this repo gives the PCL
// trade-off. A totally ordered log would serialize every committer on
// one append point — the durability analogue of the global version
// clock. Instead the log is *partially constrained* ("Guaranteeing
// Recoverability via Partially Constrained Transaction Logs",
// PAPERS.md): each record carries a (partition, sequence) stamp, the
// sequence is dense per partition and assigned inside the committing
// transaction itself (store/durable.go), and the physical append order
// in the segments is unconstrained. Recovery sorts per partition and
// replays each partition's contiguous sequence prefix; records of
// different partitions never constrain each other, exactly mirroring
// the store's claim that disjoint-partition transactions share no
// concurrency-control state.
//
// Group commit is the second half of the same trade-off: concurrent
// committers hand their records to one writer goroutine, which flushes
// whatever has accumulated with a single fsync and then acknowledges
// the whole batch (AckGroup). AckSync degrades to one fsync per record
// — the honest naive baseline E10 measures against — and AckAsync
// acknowledges on enqueue, trading the durability of the unsynced tail
// for throughput. Acknowledgement is released in per-partition sequence
// order (a record is acked only when every lower sequence of its
// partition is durable), so an acked commit can never be lost to a
// recovery-time gap truncation: gaps only ever swallow commits whose
// callers were still waiting.
//
// A commit terminates when its sync does, so the I/O under that sync is
// kept minimal: each segment is preallocated to its full size
// (Segment.Preallocate), a flush round is one write of the batch's
// coalesced frames plus one sync into that space — no file-length
// change for the sync to journal — and a segment is trimmed back to the
// bytes written when it rotates or seals. What this leaves after a
// crash — zeros, not a shorter file — is the scan's business (Scan).
//
// Storage is behind the Backend interface: MemBackend for tests and
// crash simulation, FileBackend with fallocate and fdatasync for
// production, and FailBackend — a failpoint-style wrapper that tears a
// write at a sector boundary, fails or silently drops an fsync, or
// kills the "process" at a numbered crash point — so every recovery
// path in this package was written against injected crashes, not hoped
// about.
package wal

import (
	"errors"
	"fmt"
	"time"
)

// AckMode selects when Append acknowledges durability.
type AckMode int

const (
	// AckGroup batches concurrent appends into one fsync and returns
	// after that fsync covers the record and all lower sequences of its
	// partition — group commit, the default.
	AckGroup AckMode = iota
	// AckSync gives every record its own fsync: maximal latency, the
	// baseline group commit is measured against.
	AckSync
	// AckAsync returns as soon as the record is queued; the background
	// flush still runs, but a crash can lose the unsynced tail. The
	// recovery gap rule keeps even that loss prefix-shaped per
	// partition.
	AckAsync
)

var ackNames = [...]string{"group", "sync", "async"}

// String returns the mode name ("group", "sync", "async").
func (m AckMode) String() string {
	if m < 0 || int(m) >= len(ackNames) {
		return fmt.Sprintf("ack(%d)", int(m))
	}
	return ackNames[m]
}

// AckModes lists all acknowledgement modes.
func AckModes() []AckMode { return []AckMode{AckGroup, AckSync, AckAsync} }

// AckByName resolves a mode name.
func AckByName(s string) (AckMode, bool) {
	for _, m := range AckModes() {
		if m.String() == s {
			return m, true
		}
	}
	return 0, false
}

// Options sizes a Log.
type Options struct {
	// Ack is the acknowledgement mode (default AckGroup).
	Ack AckMode
	// SegmentBytes rotates to a fresh segment once the current one
	// exceeds this many bytes (default 4 MiB).
	SegmentBytes int64
	// Partitions is stamped into every segment's meta record so a
	// reopened log refuses a store with different routing. Required on
	// first open; later opens must match the logged value.
	Partitions int
	// BatchWindow, when positive, holds each group-commit fsync back by
	// this long so more concurrent committers join the batch: fsync at
	// most once per window under load, at the price of up to one window
	// of added commit latency. Ignored under AckSync (whose whole point
	// is one fsync per record).
	BatchWindow time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: closed")

// FailedError poisons the log after a storage fault: once a write or
// fsync errors, no later acknowledgement can be trusted, so every
// pending and future Append fails with the original cause.
type FailedError struct{ Cause error }

func (e *FailedError) Error() string { return "wal: log failed: " + e.Cause.Error() }
func (e *FailedError) Unwrap() error { return e.Cause }

// CorruptError is recovery's hard stop: a record in the durable part of
// the log failed its checksum or structure, with the witness
// pinpointing it. Torn tails and unwritten preallocation are NOT
// corruption — they end their segment cleanly; see Scan.
type CorruptError struct {
	Segment string // segment name
	Offset  int64  // byte offset of the bad record
	Reason  string // what failed (checksum, structure, duplicate, meta)
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt log: %s at %s+%d", e.Reason, e.Segment, e.Offset)
}

// Stats snapshots a Log's counters.
type Stats struct {
	// Appends counts Append calls accepted; Records counts records
	// physically written (appends plus cuts, seals and metas).
	Appends uint64 `json:"appends"`
	Records uint64 `json:"records"`
	// Syncs counts backend syncs (segment closes included: a close
	// syncs); Appends/Syncs is the realized group commit amortization.
	Syncs uint64 `json:"syncs"`
	// Batches counts writer flush rounds; MaxBatch is the largest
	// number of appends one fsync covered.
	Batches  uint64 `json:"batches"`
	MaxBatch uint64 `json:"max_batch"`
	// Bytes is the payload volume written (preallocated space is not
	// written until a record lands in it); Segments counts segments
	// created over the log's life (including recovered ones).
	Bytes    uint64 `json:"bytes"`
	Segments uint64 `json:"segments"`
	// Crosses counts cross-partition transactions appended (each one
	// carries one payload record per participant plus a decision
	// record).
	Crosses uint64 `json:"crosses"`
	// Failed is 1 once the log is poisoned by a storage fault.
	Failed uint64 `json:"failed"`
}
