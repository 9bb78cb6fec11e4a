package wal

import (
	"fmt"
	"sync"
	"time"
)

// Log is an open write-ahead log: one writer goroutine owns the current
// segment, concurrent committers enqueue records through Append, and
// every flush round is one write of the whole queue into preallocated
// space plus one sync — group commit. Acknowledgement order is the
// partially-constrained part: a record is acked only once every lower
// sequence of its own partition is durable, and records of different
// partitions never wait for each other — except where a cross-partition
// transaction ties them: a cross record is acked only when its decision
// record is durable and every participant sits at the head of its own
// partition's release queue, so recovery's all-or-nothing rule (scan.go)
// can never swallow an acknowledged commit.
type Log struct {
	backend Backend
	opts    Options

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*appendReq
	closed  bool
	sealed  chan struct{} // closed when the writer has sealed and exited
	failure error         // non-nil once poisoned; wrapped into FailedError

	// acks is the per-partition release state: next[p] is the lowest
	// sequence of p not yet acknowledged, ready[p] holds durable records
	// (with their waiters) not yet releasable — stuck behind a lower
	// in-flight sequence or behind their cross transaction's stability.
	next  []uint64
	ready []map[uint64]*appendReq

	// Cross-transaction release state: crosses maps each open cross's id
	// to its decision request, which names the participants and knows
	// whether the decision is durable; nextCross allocates ids (monotone
	// over the log's whole life — seeded past everything the scan saw, so
	// a stale decision can never adopt a new generation's payload).
	crosses   map[uint64]*appendReq
	nextCross uint64

	// writer-only state (no lock needed).
	seg     Segment
	segSize int64
	segIdx  uint64
	buf     []byte // the batch's frames, coalesced for one Append; reused

	stats struct {
		sync.Mutex
		Stats
	}

	reqPool   sync.Pool // *appendReq
	crossPool sync.Pool // *crossAppend
}

type appendReq struct {
	part     int
	seq      uint64
	cross    uint64      // non-zero: payload record of that cross transaction
	decision bool        // true: this is cross's decision record (part/seq unused)
	durable  bool        // decision only: the record has been synced
	members  []CrossPart // decision only: the participants' (Part, Seq); reused across pool cycles
	scratch  []byte      // payload build space, reused across pool cycles
	frame    []byte      // complete record: header + payload
	done     chan error  // nil for async appends
}

// Start opens the log for appending on top of a completed Scan: it
// validates the partition count against the logged meta, creates a
// fresh segment (recovery never reopens a tail in place — torn bytes
// and unwritten preallocation stay where they fell, unreferenced),
// writes the meta record and one cut per partition whose post-gap
// stragglers the scan dropped, syncs, and launches the writer.
func Start(backend Backend, opts Options, scan *ScanResult) (*Log, error) {
	opts = opts.withDefaults()
	if opts.Partitions <= 0 {
		return nil, fmt.Errorf("wal: Start: Partitions must be set")
	}
	if scan.Partitions > 0 && scan.Partitions != opts.Partitions {
		return nil, fmt.Errorf("wal: Start: log recorded %d partitions, store wants %d — routing would corrupt the keyspace",
			scan.Partitions, opts.Partitions)
	}
	l := &Log{
		backend:   backend,
		opts:      opts,
		sealed:    make(chan struct{}),
		next:      make([]uint64, opts.Partitions),
		ready:     make([]map[uint64]*appendReq, opts.Partitions),
		crosses:   make(map[uint64]*appendReq),
		nextCross: scan.maxCrossID,
		segIdx:    scan.nextSegIdx,
	}
	l.cond = sync.NewCond(&l.mu)
	for p := 0; p < opts.Partitions; p++ {
		l.next[p] = 1
		l.ready[p] = make(map[uint64]*appendReq)
		if p < len(scan.Horizon) {
			l.next[p] = scan.Horizon[p] + 1
		}
	}
	if err := l.openSegment(); err != nil {
		return nil, err
	}
	// Void every sequence past a gap so the new generation can reuse it
	// without tripping the duplicate check on the next recovery.
	var cuts []byte
	var ncuts uint64
	for p, dropped := range scan.DroppedByPart {
		if dropped > 0 {
			cuts = appendFrame(cuts, cutPayload(p, scan.Horizon[p]+1))
			ncuts++
		}
	}
	if err := l.write(cuts, ncuts); err != nil {
		return nil, err
	}
	if err := l.seg.Sync(); err != nil {
		return nil, err
	}
	l.bumpStat(func(s *Stats) { s.Syncs++ })
	go l.writer()
	return l, nil
}

// Open is Scan + Start: the one-call path when the caller also wants
// the scan result for replay.
func Open(backend Backend, opts Options) (*Log, *ScanResult, error) {
	scan, err := Scan(backend)
	if err != nil {
		return nil, nil, err
	}
	if opts.Partitions <= 0 {
		opts.Partitions = scan.Partitions
	}
	l, err := Start(backend, opts, scan)
	if err != nil {
		return nil, nil, err
	}
	return l, scan, nil
}

// Ack returns the log's acknowledgement mode.
func (l *Log) Ack() AckMode { return l.opts.Ack }

// Partitions returns the partition count the log is locked to.
func (l *Log) Partitions() int { return l.opts.Partitions }

// Append hands one committed transaction's record to the log: partition
// part's seq'th logged commit, carrying nops ops in the encoded ops
// section (AppendOp). The bytes are copied before return. Depending on
// the ack mode, Append returns when the record is individually fsynced
// (AckSync), when a group fsync covers it and all lower sequences of
// its partition (AckGroup), or immediately after enqueue (AckAsync).
// A non-nil error means durability is NOT guaranteed; the error wraps
// the storage fault (FailedError) or ErrClosed.
func (l *Log) Append(part int, seq uint64, nops int, ops []byte) error {
	if part < 0 || part >= l.opts.Partitions {
		return fmt.Errorf("wal: Append: partition %d out of range", part)
	}
	req := l.getReq()
	req.part, req.seq = part, seq
	req.scratch = appendTxnPayload(req.scratch[:0], part, seq, nops, ops)
	req.frame = appendFrame(req.frame[:0], req.scratch)

	async := l.opts.Ack == AckAsync
	l.mu.Lock()
	if err := l.unusableLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	done := req.done
	if async {
		req.done = nil
	}
	l.queue = append(l.queue, req)
	l.cond.Signal()
	l.mu.Unlock()
	l.bumpStat(func(s *Stats) { s.Appends++ })
	if async {
		return nil
	}
	err := <-done
	req.done = done
	l.reqPool.Put(req)
	return err
}

// AppendCross hands one cross-partition transaction to the log: every
// participant's payload record plus the decision record that commits
// them, enqueued as one unit. Participants must name distinct
// partitions. The returned wait function blocks until the whole cross
// is acknowledged — decision durable and every participant covered
// contiguously in its own partition — or reports the storage fault;
// under AckAsync it returns immediately. Splitting enqueue from wait
// lets the store release its partition locks before sleeping on the
// fsync. wait may be called at most once: it recycles the call's
// bookkeeping, so neither AppendCross nor wait allocates in steady
// state.
func (l *Log) AppendCross(parts []CrossPart) (wait func() error, err error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("wal: AppendCross: no participants")
	}
	for i, m := range parts {
		if m.Part < 0 || m.Part >= l.opts.Partitions {
			return nil, fmt.Errorf("wal: AppendCross: partition %d out of range", m.Part)
		}
		// Participants are at most one per partition, so the quadratic
		// scan is over a handful of entries.
		for _, earlier := range parts[:i] {
			if earlier.Part == m.Part {
				return nil, fmt.Errorf("wal: AppendCross: duplicate participant partition %d", m.Part)
			}
		}
	}

	l.mu.Lock()
	if err := l.unusableLocked(); err != nil {
		l.mu.Unlock()
		return nil, err
	}
	l.nextCross++
	id := l.nextCross
	l.mu.Unlock()

	// Build frames outside the lock; the id is already reserved. The
	// decision request doubles as the cross's release state: it carries
	// the participant list the release fixpoint checks.
	ca, _ := l.crossPool.Get().(*crossAppend)
	if ca == nil {
		ca = &crossAppend{l: l}
		ca.wait = ca.await
	}
	dec := l.getReq()
	dec.cross, dec.decision = id, true
	for _, m := range parts {
		req := l.getReq()
		req.part, req.seq, req.cross = m.Part, m.Seq, id
		req.scratch = appendCrossPayload(req.scratch[:0], id, m.Part, m.Seq, m.Nops, m.Ops)
		req.frame = appendFrame(req.frame[:0], req.scratch)
		ca.reqs = append(ca.reqs, req)
		dec.members = append(dec.members, CrossPart{Part: m.Part, Seq: m.Seq})
	}
	dec.scratch = appendDecisionPayload(dec.scratch[:0], id, dec.members)
	dec.frame = appendFrame(dec.frame[:0], dec.scratch)
	ca.reqs = append(ca.reqs, dec)

	async := l.opts.Ack == AckAsync
	l.mu.Lock()
	if err := l.unusableLocked(); err != nil {
		l.mu.Unlock()
		for _, req := range ca.reqs {
			l.reqPool.Put(req)
		}
		ca.recycle()
		return nil, err
	}
	l.crosses[id] = dec
	for _, req := range ca.reqs {
		if async {
			req.done = nil
		}
		l.queue = append(l.queue, req)
	}
	l.cond.Signal()
	l.mu.Unlock()
	l.bumpStat(func(s *Stats) {
		s.Appends += uint64(len(parts))
		s.Crosses++
	})

	if async {
		// Nobody waits, so nobody learns when the writer is done with the
		// requests: they are left to the collector.
		ca.recycle()
		return noWait, nil
	}
	return ca.wait, nil
}

// unusableLocked returns the error appends get once the log is poisoned
// or closed, nil while it is open. Callers hold l.mu.
func (l *Log) unusableLocked() error {
	if l.failure != nil {
		return &FailedError{Cause: l.failure}
	}
	if l.closed {
		return ErrClosed
	}
	return nil
}

// crossAppend is one AppendCross call's bookkeeping: the requests it
// enqueued (participants, then the decision) and the wait function
// handed to the caller, bound once so that returning it allocates
// nothing.
type crossAppend struct {
	l    *Log
	reqs []*appendReq
	wait func() error // await, bound
}

// await collects every request's acknowledgement, recycling each request
// as its acknowledgement arrives — the writer's send on done is its last
// touch of a request — and then the bookkeeping itself.
func (ca *crossAppend) await() error {
	var first error
	for _, req := range ca.reqs {
		if err := <-req.done; err != nil && first == nil {
			first = err
		}
		ca.l.reqPool.Put(req)
	}
	ca.recycle()
	return first
}

func (ca *crossAppend) recycle() {
	clear(ca.reqs)
	ca.reqs = ca.reqs[:0]
	ca.l.crossPool.Put(ca)
}

func noWait() error { return nil }

func (l *Log) getReq() *appendReq {
	req, _ := l.reqPool.Get().(*appendReq)
	if req == nil {
		req = &appendReq{done: make(chan error, 1)}
	}
	req.cross, req.decision, req.durable, req.members = 0, false, false, req.members[:0]
	return req
}

// Close flushes everything queued, writes the seal record, syncs and
// closes the tail segment — the graceful-shutdown path recovery
// recognizes as clean. Idempotent; Append after Close returns ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.sealed
		return l.failure
	}
	l.closed = true
	l.cond.Signal()
	l.mu.Unlock()
	<-l.sealed
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failure
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.stats.Lock()
	defer l.stats.Unlock()
	return l.stats.Stats
}

func (l *Log) bumpStat(fn func(*Stats)) {
	l.stats.Lock()
	fn(&l.stats.Stats)
	l.stats.Unlock()
}

// writer is the group-commit loop: take whatever the queue holds, write
// it, sync once, rotate if the segment overflowed, then release
// acknowledgements in per-partition sequence order. AckSync
// narrows the batch to one record per fsync; a positive BatchWindow
// holds the fsync back so more committers join the batch.
func (l *Log) writer() {
	defer close(l.sealed)
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed && l.failure == nil {
			l.cond.Wait()
		}
		if l.failure != nil {
			l.failQueueLocked()
			l.mu.Unlock()
			return
		}
		if len(l.queue) == 0 && l.closed {
			l.mu.Unlock()
			l.sealAndExit()
			return
		}
		if l.opts.BatchWindow > 0 && l.opts.Ack != AckSync && !l.closed {
			// The latency-vs-batch-size knob: sleep out the window before
			// collecting, so at most one fsync happens per window under
			// load. Committers already queued wait at most the window.
			l.mu.Unlock()
			time.Sleep(l.opts.BatchWindow)
			l.mu.Lock()
			if l.failure != nil {
				l.failQueueLocked()
				l.mu.Unlock()
				return
			}
		}
		var batch []*appendReq
		if l.opts.Ack == AckSync {
			batch = l.queue[:1:1]
			l.queue = l.queue[1:]
		} else {
			batch = l.queue
			l.queue = nil
		}
		l.mu.Unlock()

		if err := l.flush(batch); err != nil {
			l.poison(err, batch)
			return
		}
	}
}

// flush coalesces the batch's frames into one write, syncs once, rotates
// if that filled the segment, then releases acks.
func (l *Log) flush(batch []*appendReq) error {
	buf := l.buf[:0]
	for _, req := range batch {
		buf = append(buf, req.frame...)
	}
	if cap(buf) <= maxKeptBatchBytes {
		l.buf = buf
	}
	if err := l.seg.Append(buf); err != nil {
		return err
	}
	l.segSize += int64(len(buf))
	if err := l.seg.Sync(); err != nil {
		return err
	}
	l.bumpStat(func(s *Stats) {
		s.Records += uint64(len(batch))
		s.Bytes += uint64(len(buf))
		s.Syncs++
		s.Batches++
		if uint64(len(batch)) > s.MaxBatch {
			s.MaxBatch = uint64(len(batch))
		}
	})
	if l.segSize > l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	l.release(batch)
	return nil
}

// release marks the batch durable and acks every waiter whose partition
// prefix is now complete — including waiters parked by earlier batches.
// Cross records are the coupling point: they release only when their
// decision record is durable AND every participant is simultaneously at
// the head of its own partition's queue, mirroring recovery's
// all-or-nothing fixpoint so an acked commit can never sit past a
// recovery-time void.
func (l *Log) release(batch []*appendReq) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, req := range batch {
		if req.decision {
			// Marked before the ack: the request stays referenced from
			// crosses, and its appender recycles it only once every
			// participant is acknowledged too (releaseCrossLocked).
			req.durable = true
			l.ackLocked(req.done)
			continue
		}
		p := req.part
		if req.seq < l.next[p] {
			// A sequence below next is a store-layer bug (duplicate
			// stamp); ack it rather than wedge the caller.
			l.ackLocked(req.done)
			continue
		}
		l.ready[p][req.seq] = req
	}
	l.advanceLocked()
}

// advanceLocked runs the release fixpoint over every partition.
func (l *Log) advanceLocked() {
	for progress := true; progress; {
		progress = false
		for p := range l.ready {
			for {
				req, ok := l.ready[p][l.next[p]]
				if !ok {
					break
				}
				if req.cross == 0 {
					delete(l.ready[p], l.next[p])
					l.ackLocked(req.done)
					l.next[p]++
					progress = true
					continue
				}
				if !l.releaseCrossLocked(req.cross) {
					break
				}
				progress = true
			}
		}
	}
}

// releaseCrossLocked acks a whole cross transaction if it is stable:
// decision durable, every participant durable and at the head of its
// partition's release queue. All participants advance together.
func (l *Log) releaseCrossLocked(id uint64) bool {
	dec := l.crosses[id]
	if dec == nil || !dec.durable {
		return false
	}
	for _, m := range dec.members {
		if l.next[m.Part] != m.Seq {
			return false
		}
		if _, ok := l.ready[m.Part][m.Seq]; !ok {
			return false
		}
	}
	delete(l.crosses, id)
	// The last participant's ack lets the appender recycle every request
	// of the cross, dec included: nothing below it may read dec.
	for _, m := range dec.members {
		req := l.ready[m.Part][m.Seq]
		delete(l.ready[m.Part], m.Seq)
		l.next[m.Part]++
		l.ackLocked(req.done)
	}
	return true
}

func (l *Log) ackLocked(done chan error) {
	if done != nil {
		done <- nil
	}
}

// poison records the storage fault, fails the triggering batch, every
// parked waiter and everything queued, and exits the writer.
func (l *Log) poison(err error, batch []*appendReq) {
	l.bumpStat(func(s *Stats) { s.Failed = 1 })
	l.mu.Lock()
	l.failure = err
	for _, req := range batch {
		if req.done != nil {
			req.done <- &FailedError{Cause: err}
		}
	}
	l.failQueueLocked()
	l.mu.Unlock()
}

// failQueueLocked drains queue and parked waiters with the failure.
func (l *Log) failQueueLocked() {
	for _, req := range l.queue {
		if req.done != nil {
			req.done <- &FailedError{Cause: l.failure}
		}
	}
	l.queue = nil
	for p := range l.ready {
		for seq, req := range l.ready[p] {
			if req.done != nil {
				req.done <- &FailedError{Cause: l.failure}
			}
			delete(l.ready[p], seq)
		}
	}
}

// rotate closes the full segment behind an end record and opens the
// next. It runs after a flush round's sync: an end record (like a seal)
// promises Scan that everything before it was durable before it was
// written, so damage in a segment that ends in one is never a crash's.
// A failed Close is a storage fault like any other — the log is
// poisoned, and the batch that filled the segment is not acknowledged.
func (l *Log) rotate() error {
	if err := l.write(endFrame, 1); err != nil {
		return err
	}
	if err := l.closeSegment(); err != nil {
		return err
	}
	l.segIdx++
	return l.openSegment()
}

// sealAndExit writes the clean-shutdown marker — every flush before it
// synced — and closes the tail segment, which syncs it and trims its
// preallocation.
func (l *Log) sealAndExit() {
	err := l.write(sealFrame, 1)
	if err == nil {
		err = l.closeSegment()
	}
	if err != nil {
		l.poison(err, nil)
	}
}

// preallocSlack is reserved past SegmentBytes: rotation happens after
// the batch that crosses the limit, and that batch should not be the one
// append per segment that grows the file.
const preallocSlack = 64 << 10

// maxKeptBatchBytes bounds the coalescing buffer the writer keeps
// between batches; an AckAsync backlog can coalesce to many megabytes
// once, and should not pin them for the life of the log.
const maxKeptBatchBytes = 1 << 20

// openSegment creates the segIdx'th segment, preallocates it, and writes
// its magic and meta record.
func (l *Log) openSegment() error {
	seg, err := l.backend.Create(segName(l.segIdx))
	if err != nil {
		return err
	}
	l.seg = seg
	if err := seg.Preallocate(l.opts.SegmentBytes + preallocSlack); err != nil {
		return err
	}
	hdr := appendFrame([]byte(Magic), metaPayload(l.opts.Partitions))
	if err := seg.Append(hdr); err != nil {
		return err
	}
	l.segSize = int64(len(hdr))
	l.bumpStat(func(s *Stats) {
		s.Segments++
		s.Records++
		s.Bytes += uint64(len(hdr) - len(Magic))
	})
	return nil
}

// closeSegment closes the current segment: everything in it durable,
// its preallocation trimmed.
func (l *Log) closeSegment() error {
	if err := l.seg.Close(); err != nil {
		return err
	}
	l.bumpStat(func(s *Stats) { s.Syncs++ })
	return nil
}

// write appends records framed records to the current segment outside a
// flush round (cuts, the end record, the seal).
func (l *Log) write(frames []byte, records uint64) error {
	if len(frames) == 0 {
		return nil
	}
	if err := l.seg.Append(frames); err != nil {
		return err
	}
	l.segSize += int64(len(frames))
	l.bumpStat(func(s *Stats) {
		s.Records += records
		s.Bytes += uint64(len(frames))
	})
	return nil
}
