package wal

import "syscall"

// Preallocate is fallocate: the file's length
// becomes size and the new blocks read as zeros until written. A
// filesystem that cannot preallocate is not a fault — the segment grows
// instead, as it does on other platforms.
func (s *fileSegment) Preallocate(size int64) error {
	for {
		switch err := syscall.Fallocate(s.fd, 0, 0, size); err {
		case syscall.EINTR:
		case syscall.EOPNOTSUPP, syscall.ENOSYS:
			return nil
		default:
			return err
		}
	}
}

// Sync is fdatasync: it flushes the segment's data, and its length only
// when an append ran past the reservation.
func (s *fileSegment) Sync() error {
	for {
		if err := syscall.Fdatasync(s.fd); err != syscall.EINTR {
			return err
		}
	}
}
