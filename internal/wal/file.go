package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FileBackend stores segments as files in one directory, with real
// syncs, and segment creation syncs the directory so the name itself
// survives a crash (a synced record in an unlinked file is not durable).
//
// A segment's Preallocate and Sync are per platform. On Linux (file_linux.go) Preallocate is fallocate and Sync
// is fdatasync: inside the reservation an append changes no file
// length, so the sync flushes data without a journal commit for the
// inode — the difference between ~120 µs and ~85 µs per commit on ext4
// (EXPERIMENTS E12). Elsewhere (file_other.go) Preallocate reserves
// nothing, segments grow as they are written, and Sync is a full fsync.
// Either way Close truncates the file to the bytes appended and fsyncs,
// so only a crashed generation's last segment ever carries a zero tail.
type FileBackend struct {
	dir string
}

// NewFileBackend opens (creating if needed) dir as a log directory.
func NewFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: file backend: %w", err)
	}
	return &FileBackend{dir: dir}, nil
}

// Dir returns the backing directory.
func (b *FileBackend) Dir() string { return b.dir }

// Create implements Backend: exclusive create, then directory sync so
// the entry is durable before any record lands in it.
func (b *FileBackend) Create(name string) (Segment, error) {
	f, err := os.OpenFile(filepath.Join(b.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := b.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	return &fileSegment{f: f, fd: int(f.Fd())}, nil
}

func (b *FileBackend) syncDir() error {
	d, err := os.Open(b.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Load implements Backend.
func (b *FileBackend) Load(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(b.dir, name))
}

// List implements Backend: every "wal-*.seg" entry, lexically sorted.
func (b *FileBackend) List() ([]string, error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

type fileSegment struct {
	f    *os.File
	fd   int   // f's descriptor, for the raw syscalls in file_linux.go
	size int64 // bytes appended: the length Close truncates back to
}

func (s *fileSegment) Append(b []byte) error {
	n, err := s.f.Write(b)
	s.size += int64(n)
	return err
}

func (s *fileSegment) Close() error {
	err := s.f.Truncate(s.size)
	if err == nil {
		err = s.f.Sync() // a full fsync: the new length is metadata
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
