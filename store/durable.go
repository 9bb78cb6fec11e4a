// Durability: the store's commit stream, partially constrained.
//
// A durable store appends every writing transaction to a write-ahead
// log (internal/wal) — but the log order is constrained only where
// commit order demands it. Each partition keeps a transactional
// sequence TVar; a writing transaction reads and increments it inside
// itself, so the engine's own concurrency control makes the sequence a
// strict serialization of that partition's writers: seq order IS a
// valid replay order, by the same argument that makes the engine
// correct. Across partitions nothing is ordered, because nothing needs
// to be — single-partition transactions of different partitions
// commute. The physical append order in the log is unconstrained too:
// appends happen after commit, so a later sequence can reach the log
// first, and recovery's contiguous-prefix rule (internal/wal/scan.go)
// plus the writer's contiguous acknowledgement rule (a record is acked
// only when all lower sequences of its partition are durable) keep the
// contract exact: acknowledged ⇒ survives recovery, and whatever
// recovery replays is a state the store really passed through.
//
// Cross transactions are logged as one payload record per touched
// partition — stamped inside each partition's apply transaction while
// the footprint's exclusive locks are held — linked by a single
// decision record naming the cross id and every (partition, sequence)
// participant. Recovery replays a cross all-or-nothing: its records
// count toward their partitions' replayable prefixes only when the
// decision is durable and every participant survived, and the writer
// mirrors the rule by acknowledging a cross only once its decision is
// durable (internal/wal). A crash can therefore never recover some
// partitions' halves without the others — the decision record is the
// single-node shape of a two-phase-commit outcome, and the seam where
// a distributed coordinator would attach (see Cross).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"pcltm/internal/wal"
	"pcltm/stm"
)

// Codec translates keys and values to and from the byte images the log
// stores. Append* must be deterministic; Decode* must reject trailing
// or truncated input (images are stored length-prefixed, so Decode sees
// exactly what Append produced).
type Codec[K comparable, V any] struct {
	AppendKey func(dst []byte, k K) []byte
	DecodeKey func(b []byte) (K, error)
	AppendVal func(dst []byte, v V) []byte
	DecodeVal func(b []byte) (V, error)
}

// Int64Codec is the varint codec for the int64→int64 store the server
// exposes.
func Int64Codec() Codec[int64, int64] {
	app := func(dst []byte, x int64) []byte { return binary.AppendVarint(dst, x) }
	dec := func(b []byte) (int64, error) {
		x, n := binary.Varint(b)
		if n <= 0 || n != len(b) {
			return 0, errors.New("store: malformed int64 image")
		}
		return x, nil
	}
	return Codec[int64, int64]{AppendKey: app, DecodeKey: dec, AppendVal: app, DecodeVal: dec}
}

// DurabilityError reports a commit that is applied in memory but whose
// log append failed: the state advanced, the durability guarantee did
// not. The log is poisoned at this point — every later write returns
// the same class of error — so callers should treat it as "stop taking
// writes", not "retry".
type DurabilityError struct {
	Part int
	Seq  uint64
	Err  error
}

func (e *DurabilityError) Error() string {
	return fmt.Sprintf("store: commit applied but not durable (partition %d seq %d): %v", e.Part, e.Seq, e.Err)
}

func (e *DurabilityError) Unwrap() error { return e.Err }

// DurableConfig opens a store on top of a write-ahead log.
type DurableConfig[K comparable, V any] struct {
	// Store is the in-memory configuration. If Partitions is zero and
	// the log is non-empty, the logged partition count is adopted, so a
	// restart on different hardware cannot silently re-route the
	// keyspace.
	Store Config
	// Backend is the log storage (wal.NewMemBackend, wal.NewFileBackend,
	// or a wal.FailBackend wrapper for fault injection).
	Backend wal.Backend
	// Ack selects the acknowledgement mode (wal.AckGroup default).
	Ack wal.AckMode
	// SegmentBytes caps segment size before rotation (0 = wal default).
	SegmentBytes int64
	// BatchWindow bounds how long the writer waits to widen a group
	// before fsyncing (0 = fsync as soon as the queue drains; see
	// wal.Options.BatchWindow).
	BatchWindow time.Duration
	// Codec translates K and V to log images.
	Codec Codec[K, V]
	// ReplayProc is the process id replay transactions run under when a
	// recorder is attached via Store.EngineOptions.
	ReplayProc int
}

// durableState is the per-store durability harness.
type durableState[K comparable, V any] struct {
	log   *wal.Log
	codec Codec[K, V]
	seq   []*stm.TVar[uint64] // per-partition commit sequence
	bufs  sync.Pool           // *walBuf for cross commits' shares; a Part handle owns its own
}

// walBuf captures one transaction's write set as an encoded ops
// section. It is reset at every attempt, so aborted speculation leaves
// nothing behind.
type walBuf struct {
	ops        []byte
	nops       int
	seq        uint64
	kbuf, vbuf []byte // codec scratch
}

func (b *walBuf) reset() { b.ops, b.nops, b.seq = b.ops[:0], 0, 0 }

// capturePut appends a put op for k=v.
func capturePut[K comparable, V any](b *walBuf, c Codec[K, V], k K, v V) {
	b.kbuf = c.AppendKey(b.kbuf[:0], k)
	b.vbuf = c.AppendVal(b.vbuf[:0], v)
	b.ops = wal.AppendOp(b.ops, false, b.kbuf, b.vbuf)
	b.nops++
}

// captureDelete appends a delete op for k.
func captureDelete[K comparable, V any](b *walBuf, c Codec[K, V], k K) {
	b.kbuf = c.AppendKey(b.kbuf[:0], k)
	b.ops = wal.AppendOp(b.ops, true, b.kbuf, nil)
	b.nops++
}

// OpenDurable recovers a store from its log and arms it for durable
// operation: scan the surviving segments, build the in-memory store,
// replay the per-partition contiguous prefixes through ordinary store
// transactions (so an attached recorder sees recovery as real history),
// then start a new log generation. The returned ScanResult tells the
// caller what recovery found — horizons, torn tails, dropped records,
// whether the previous shutdown was clean.
func OpenDurable[K comparable, V any](cfg DurableConfig[K, V]) (*Store[K, V], *wal.ScanResult, error) {
	if cfg.Backend == nil {
		return nil, nil, errors.New("store: OpenDurable: nil Backend")
	}
	if cfg.Codec.AppendKey == nil || cfg.Codec.DecodeKey == nil ||
		cfg.Codec.AppendVal == nil || cfg.Codec.DecodeVal == nil {
		return nil, nil, errors.New("store: OpenDurable: incomplete Codec")
	}
	scan, err := wal.Scan(cfg.Backend)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Store.Partitions == 0 && scan.Partitions > 0 {
		cfg.Store.Partitions = scan.Partitions
	}
	s := New[K, V](cfg.Store)
	if scan.Partitions > 0 && scan.Partitions != s.Partitions() {
		return nil, nil, fmt.Errorf("store: OpenDurable: log has %d partitions, store configured for %d",
			scan.Partitions, s.Partitions())
	}
	d := &durableState[K, V]{
		codec: cfg.Codec,
		seq:   make([]*stm.TVar[uint64], s.Partitions()),
	}
	d.bufs.New = func() any { return &walBuf{} }
	for i := range d.seq {
		d.seq[i] = stm.NewTVar[uint64](0)
	}
	// Replay before arming: these transactions rebuild state and stamp
	// the sequence TVars up to each partition's horizon, but must not
	// re-log themselves.
	if err := replayRecords(s, cfg.Codec, scan.Records, d.seq, cfg.ReplayProc); err != nil {
		return nil, nil, err
	}
	log, err := wal.Start(cfg.Backend, wal.Options{
		Ack:          cfg.Ack,
		SegmentBytes: cfg.SegmentBytes,
		BatchWindow:  cfg.BatchWindow,
		Partitions:   s.Partitions(),
	}, scan)
	if err != nil {
		return nil, nil, err
	}
	d.log = log
	s.durable = d
	return s, scan, nil
}

// Replay applies a scan's replay plan to a non-durable store — the
// offline judging path (cmd/tmcheck) that rebuilds recovered state
// without starting a new log generation.
func Replay[K comparable, V any](s *Store[K, V], codec Codec[K, V], records []wal.Record, proc int) error {
	return replayRecords(s, codec, records, nil, proc)
}

func replayRecords[K comparable, V any](s *Store[K, V], codec Codec[K, V], records []wal.Record, seq []*stm.TVar[uint64], proc int) error {
	for _, rec := range records {
		rec := rec
		err := s.AtomicallyAs(rec.Part, proc, func(tx *stm.Tx, p *Part[K, V]) error {
			for _, op := range rec.Ops {
				k, err := codec.DecodeKey(op.Key)
				if err != nil {
					return err
				}
				if op.Del {
					p.Delete(tx, k)
					continue
				}
				v, err := codec.DecodeVal(op.Val)
				if err != nil {
					return err
				}
				p.Put(tx, k, v)
			}
			if seq != nil {
				stm.Set(tx, seq[rec.Part], rec.Seq)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("store: replay: partition %d seq %d: %w", rec.Part, rec.Seq, err)
		}
	}
	return nil
}

// Durable reports whether the store carries a write-ahead log.
func (s *Store[K, V]) Durable() bool { return s.durable != nil }

// WALStats snapshots the log's counters; ok is false for a non-durable
// store.
func (s *Store[K, V]) WALStats() (wal.Stats, bool) {
	if s.durable == nil {
		return wal.Stats{}, false
	}
	return s.durable.log.Stats(), true
}

// WALAck returns the log's acknowledgement mode.
func (s *Store[K, V]) WALAck() (wal.AckMode, bool) {
	if s.durable == nil {
		return 0, false
	}
	return s.durable.log.Ack(), true
}

// CloseWAL flushes and seals the log — the graceful-shutdown half of
// the durability contract. The store remains usable in memory but
// writes after CloseWAL fail with a DurabilityError.
func (s *Store[K, V]) CloseWAL() error {
	if s.durable == nil {
		return nil
	}
	return s.durable.log.Close()
}
