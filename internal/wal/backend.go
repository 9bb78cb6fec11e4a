package wal

import (
	"fmt"
	"sort"
	"sync"
)

// Backend abstracts the storage medium behind the log — the provider
// seam that lets tests run on memory, production on files, and fault
// injection on a wrapper around either. Implementations must keep List
// in lexical name order; segment names are generated so lexical order
// is creation order.
type Backend interface {
	// Create opens a fresh segment for appending. Creating a name that
	// already exists is an error — segments are immutable once sealed.
	Create(name string) (Segment, error)
	// Load returns the full content of an existing segment.
	Load(name string) ([]byte, error)
	// List returns existing segment names in lexical order.
	List() ([]string, error)
}

// Segment is one append-only storage unit.
type Segment interface {
	// Preallocate reserves size bytes of zero-filled space from the
	// segment's start, so appends inside the reservation never grow the
	// segment and Sync has only data to flush — it takes the length update
	// off the commit path. After a crash the unwritten part of the
	// reservation reads back as zeros, which Scan treats as the end of the
	// segment (see Scan). A medium that cannot reserve space returns nil
	// and grows its segments as they are written.
	Preallocate(size int64) error
	// Append writes b at the end of the segment. Data is durable only
	// after a successful Sync (or Close).
	Append(b []byte) error
	// Sync makes everything appended so far durable.
	Sync() error
	// Close trims preallocated space past the last append, makes the
	// segment — content and length — durable, and releases it: a closed
	// segment is exactly the bytes appended to it.
	Close() error
}

// sectorSize is the unit a disk persists atomically: a crash can leave a
// preallocated segment with any subset of the in-flight sectors written
// and the rest still zero, but never part of a sector. Scan's torn-write
// rule and the crash models of MemBackend and FailBackend share it.
const sectorSize = 512

// segName formats the idx'th segment's name; lexical order == numeric
// order up to 16 digits.
func segName(idx uint64) string { return fmt.Sprintf("wal-%016d.seg", idx) }

// MemBackend is the in-memory backend: segments are byte slices guarded
// by one mutex. It models durability honestly — each segment tracks its
// synced prefix and its preallocated length, and a crash keeps the
// former and zero-fills the rest of the latter — so recovery tests
// exercise the same zero-tail and torn-write geometry a preallocated
// file on a real disk produces.
type MemBackend struct {
	mu   sync.Mutex
	segs map[string]*memSegment
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{segs: make(map[string]*memSegment)}
}

type memSegment struct {
	b        *MemBackend
	buf      []byte // the file: len(buf) is its length, zeros past end
	end      int    // append offset: bytes written so far
	synced   int    // bytes guaranteed to survive Crash
	reserved int    // preallocated length: survives a crash as zeros (0 = growing file)
	lost     bool   // a dropped fsync: synced never advances again
}

// Create implements Backend.
func (b *MemBackend) Create(name string) (Segment, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.segs[name]; ok {
		return nil, fmt.Errorf("wal: mem: segment %q exists", name)
	}
	s := &memSegment{b: b}
	b.segs[name] = s
	return s, nil
}

// Load implements Backend.
func (b *MemBackend) Load(name string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.segs[name]
	if !ok {
		return nil, fmt.Errorf("wal: mem: no segment %q", name)
	}
	return append([]byte(nil), s.buf...), nil
}

// List implements Backend.
func (b *MemBackend) List() ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.segs))
	for n := range b.segs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (s *memSegment) Append(p []byte) error {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	s.buf = append(s.buf[:s.end], p...)
	s.end = len(s.buf)
	if s.end < s.reserved {
		s.buf = s.buf[:s.reserved] // still zero: only Append writes past end
	}
	return nil
}

func (s *memSegment) Sync() error {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	if !s.lost {
		s.synced = s.end
	}
	return nil
}

func (s *memSegment) Preallocate(size int64) error {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	if n := int(size); n > len(s.buf) {
		s.buf = append(s.buf, make([]byte, n-len(s.buf))...)
		s.reserved = n
	}
	return nil
}

func (s *memSegment) Close() error {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	s.buf, s.reserved = s.buf[:s.end], 0
	if !s.lost {
		s.synced = s.end
	}
	return nil
}

// image returns what a crash keeping keep unsynced bytes leaves of the
// segment: the synced prefix, then keep more bytes (-1 = everything
// written), then zeros up to the preallocated length. Inside a
// preallocation the cut is rounded down to a sector boundary, though
// never below the synced prefix — a disk persists whole sectors, and the
// bytes past the cut read back as zeros instead of shortening the file.
func (s *memSegment) image(keep int) []byte {
	cut := s.end
	if keep >= 0 && s.synced+keep < cut {
		cut = s.synced + keep
		if s.reserved > 0 {
			cut = max(s.synced, cut-cut%sectorSize)
		}
	}
	img := make([]byte, max(cut, s.reserved))
	copy(img, s.buf[:cut])
	return img
}

// Crash simulates power loss: every segment keeps its synced prefix
// plus keep extra unsynced bytes (0 = synced data only, -1 = keep
// everything buffered — a lucky crash); a growing segment is truncated
// there, a preallocated one reads zeros from there on. The backend
// stays usable afterwards, standing in for the disk as the next process
// finds it.
func (b *MemBackend) Crash(keep int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range b.segs {
		s.buf = s.image(keep)
		s.end, s.synced, s.reserved = len(s.buf), len(s.buf), 0
	}
}

// Corrupt flips one bit at off in the named segment — the fixture hook
// for mid-log corruption tests.
func (b *MemBackend) Corrupt(name string, off int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.segs[name]
	if !ok || off >= len(s.buf) {
		return fmt.Errorf("wal: mem: cannot corrupt %q at %d", name, off)
	}
	s.buf[off] ^= 0x40
	return nil
}

// Truncate cuts the named segment to n bytes — the torn-tail fixture
// hook.
func (b *MemBackend) Truncate(name string, n int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.segs[name]
	if !ok || n > len(s.buf) {
		return fmt.Errorf("wal: mem: cannot truncate %q to %d", name, n)
	}
	s.buf = s.buf[:n]
	s.end, s.synced, s.reserved = min(s.end, n), min(s.synced, n), min(s.reserved, n)
	return nil
}

// Clone copies the backend's current durable image (what a crash right
// now would leave) into a fresh backend — the crash-point sweep uses it
// to recover "the disk" while the original log keeps running.
func (b *MemBackend) Clone(keep int) *MemBackend {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := NewMemBackend()
	for name, s := range b.segs {
		img := s.image(keep)
		out.segs[name] = &memSegment{b: out, buf: img, end: len(img), synced: len(img)}
	}
	return out
}

// Duplicate copies segment src to name dst verbatim — the duplicated-
// segment fixture hook.
func (b *MemBackend) Duplicate(src, dst string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.segs[src]
	if !ok {
		return fmt.Errorf("wal: mem: no segment %q", src)
	}
	if _, ok := b.segs[dst]; ok {
		return fmt.Errorf("wal: mem: segment %q exists", dst)
	}
	b.segs[dst] = &memSegment{b: b, buf: append([]byte(nil), s.buf...), end: len(s.buf), synced: len(s.buf)}
	return nil
}
