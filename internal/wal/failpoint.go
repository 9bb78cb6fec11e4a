package wal

import (
	"errors"
	"sync"
)

// ErrInjectedCrash is the error every backend operation returns after a
// failpoint fired: the "process" is dead as far as the log can tell,
// and only recovery over the surviving image makes progress.
var ErrInjectedCrash = errors.New("wal: injected crash")

// ErrInjectedSyncFail is returned by the one Sync a FailSync failpoint
// targets (the fsync fails loudly but the process survives — the log
// poisons itself in response).
var ErrInjectedSyncFail = errors.New("wal: injected fsync failure")

// FailKind selects what a failpoint does when its trigger fires.
type FailKind int

const (
	// FailCrash kills the process at the trigger point: the triggering
	// operation (and everything after it) fails with ErrInjectedCrash
	// and leaves no bytes behind.
	FailCrash FailKind = iota
	// FailTear writes only the first TearBytes bytes of the triggering
	// append, then crashes — the torn-record geometry. Inside a
	// preallocation the tear is rounded down to a sector boundary: what a
	// disk (whole sectors) or a killed write call (whole pages) can leave.
	FailTear
	// FailSync makes the triggering Sync — or Close, which syncs — return
	// an error (no crash; the log must poison itself rather than ack on a
	// failed fsync).
	FailSync
	// FailLostSync makes the triggering Sync *lie*: it returns success
	// but the segment's durable horizon does not advance, so a later
	// crash drops data an fsync claimed to cover — the reordered/absorbed
	// fsync fault. Requires a *MemBackend underneath (only it models the
	// durable horizon).
	FailLostSync
)

// FailPoint arms one fault: the Nth counted operation (1-based, counted
// across creates, preallocations, appends, syncs and closes in wrapper
// call order) triggers Kind.
type FailPoint struct {
	Kind FailKind
	// N is the global operation number that triggers the fault.
	N uint64
	// TearBytes is how much of the triggering append survives
	// (FailTear).
	TearBytes int
}

// FailBackend wraps a Backend with numbered crash points. Every
// Create/Preallocate/Append/Sync/Close increments one shared counter; when the counter
// reaches the armed FailPoint's N, the fault fires. After a crash-kind
// fault, every operation returns ErrInjectedCrash — the surviving bytes
// (plus whatever the inner backend's durability model keeps) are the
// image recovery runs on.
type FailBackend struct {
	inner Backend

	mu      sync.Mutex
	point   FailPoint
	armed   bool
	ops     uint64
	crashed bool
}

// NewFailBackend wraps inner with no fault armed.
func NewFailBackend(inner Backend) *FailBackend {
	return &FailBackend{inner: inner}
}

// Arm installs the failpoint and resets the operation counter.
func (b *FailBackend) Arm(p FailPoint) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.point, b.armed, b.ops, b.crashed = p, true, 0, false
}

// Ops returns how many counted operations have run since Arm — running
// a workload once with no fault armed measures how many numbered crash
// points it exposes.
func (b *FailBackend) Ops() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ops
}

// Crashed reports whether a crash-kind fault has fired.
func (b *FailBackend) Crashed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.crashed
}

// step counts one operation and reports which fault, if any, it must
// apply.
func (b *FailBackend) step() (FailKind, int, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.crashed {
		return 0, 0, false, ErrInjectedCrash
	}
	b.ops++
	if !b.armed || b.ops != b.point.N {
		return 0, 0, false, nil
	}
	switch b.point.Kind {
	case FailCrash, FailTear:
		b.crashed = true
	}
	return b.point.Kind, b.point.TearBytes, true, nil
}

// Create implements Backend.
func (b *FailBackend) Create(name string) (Segment, error) {
	kind, _, fired, err := b.step()
	if err != nil {
		return nil, err
	}
	if fired && (kind == FailCrash || kind == FailTear) {
		return nil, ErrInjectedCrash
	}
	s, err := b.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &failSegment{b: b, inner: s}, nil
}

// Load implements Backend (reads are recovery's business and never
// count as crash points).
func (b *FailBackend) Load(name string) ([]byte, error) { return b.inner.Load(name) }

// List implements Backend.
func (b *FailBackend) List() ([]string, error) { return b.inner.List() }

type failSegment struct {
	b        *FailBackend
	inner    Segment
	off      int  // bytes appended so far
	reserved bool // preallocated: tears are sector-granular
}

// Preallocate forwards to the inner segment. A crash here leaves the
// segment created but empty.
func (s *failSegment) Preallocate(size int64) error {
	kind, _, fired, err := s.b.step()
	if err != nil {
		return err
	}
	if fired && (kind == FailCrash || kind == FailTear) {
		return ErrInjectedCrash
	}
	if err := s.inner.Preallocate(size); err != nil {
		return err
	}
	s.reserved = true
	return nil
}

func (s *failSegment) Append(p []byte) error {
	kind, tear, fired, err := s.b.step()
	if err != nil {
		return err
	}
	if fired {
		switch kind {
		case FailCrash:
			return ErrInjectedCrash
		case FailTear:
			tear = min(tear, len(p))
			if s.reserved {
				tear = max(0, (s.off+tear)/sectorSize*sectorSize-s.off)
			}
			_ = s.inner.Append(p[:tear])
			return ErrInjectedCrash
		}
	}
	s.off += len(p)
	return s.inner.Append(p)
}

func (s *failSegment) Sync() error {
	kind, _, fired, err := s.b.step()
	if err != nil {
		return err
	}
	if fired {
		switch kind {
		case FailCrash, FailTear:
			// A tear point landing on a sync is just a crash there.
			return ErrInjectedCrash
		case FailSync:
			return ErrInjectedSyncFail
		case FailLostSync:
			if s.loseSyncs() {
				return nil
			}
			return ErrInjectedSyncFail
		}
	}
	return s.inner.Sync()
}

// loseSyncs freezes the inner segment's durable horizon, if it models
// one: from here on its syncs succeed without making anything durable.
func (s *failSegment) loseSyncs() bool {
	ms, ok := s.inner.(*memSegment)
	if ok {
		ms.b.mu.Lock()
		ms.lost = true
		ms.b.mu.Unlock()
	}
	return ok
}

func (s *failSegment) Close() error {
	kind, _, fired, err := s.b.step()
	if err != nil {
		return err
	}
	if fired {
		switch kind {
		case FailCrash, FailTear:
			return ErrInjectedCrash
		case FailSync:
			// Close's own sync fails; the preallocation is never trimmed.
			return ErrInjectedSyncFail
		case FailLostSync:
			if !s.loseSyncs() {
				return ErrInjectedSyncFail
			}
		}
	}
	return s.inner.Close()
}
