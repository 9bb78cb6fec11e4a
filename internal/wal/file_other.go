//go:build !linux

package wal

// Without fallocate/fdatasync the segment is a plain growing file and
// every sync is a full fsync: the pre-preallocation behaviour, and the
// geometry Scan's torn-tail rules were first written for.

// Preallocate reserves nothing.
func (s *fileSegment) Preallocate(int64) error { return nil }

func (s *fileSegment) Sync() error { return s.f.Sync() }
