package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// ScanResult is what recovery learned from the surviving segments.
type ScanResult struct {
	// Partitions is the partition count from the log's meta records
	// (0 for an empty log).
	Partitions int
	// Records is the replay plan: for each partition its contiguous
	// sequence prefix, ordered by (partition, seq).
	Records []Record
	// Horizon[p] is the highest replayable sequence of partition p —
	// the contiguous prefix runs 1..Horizon[p] (0 = nothing survived).
	Horizon []uint64
	// DroppedByPart[p] counts live records of p discarded because they
	// sat beyond the first sequence gap: durable bytes for commits that
	// were never acknowledged contiguously. Always 0 under AckSync and
	// AckGroup semantics for acked commits.
	DroppedByPart []uint64
	// Torn lists where torn tails were truncated (clean degradation —
	// unsynced bytes at the end of a segment).
	Torn []TornTail
	// ZeroTails lists segments that end in preallocated space no write
	// ever reached — what a crashed generation's last segment looks like
	// when the crash tore nothing. Not damage and not a tear: the scan
	// skips the zeros and reports how many.
	ZeroTails []ZeroTail
	// Clean reports a sealed log: the final surviving record is a seal,
	// i.e. the previous process shut down gracefully.
	Clean bool
	// Segments is how many segments the scan read.
	Segments int
	// CrossReplayed counts cross-partition transactions whose decision
	// record and every participant survived — replayed whole.
	// CrossVoided counts cross transactions dropped whole: the decision
	// record never became durable, or a participant fell past its
	// partition's horizon, so replaying any share would expose a
	// half-applied cross transaction.
	CrossReplayed uint64
	CrossVoided   uint64

	// nextSegIdx is the index Start uses for the generation's first new
	// segment.
	nextSegIdx uint64
	// maxCrossID seeds the next generation's cross id allocator: ids
	// must never repeat within one log, or a stale decision record could
	// commit a later generation's half-written cross transaction.
	maxCrossID uint64
}

// TornTail records one truncation the scan performed.
type TornTail struct {
	Segment string `json:"segment"`
	Offset  int64  `json:"offset"` // byte offset of the first discarded byte
	Reason  string `json:"reason"`
}

// ZeroTail records one run of unwritten preallocation the scan skipped:
// every byte of the segment from Offset to its end (Bytes of them) is
// zero.
type ZeroTail struct {
	Segment string `json:"segment"`
	Offset  int64  `json:"offset"`
	Bytes   int64  `json:"bytes"`
}

// ZeroTailBytes sums the preallocated bytes skipped over all segments.
func (r *ScanResult) ZeroTailBytes() int64 {
	var n int64
	for _, z := range r.ZeroTails {
		n += z.Bytes
	}
	return n
}

// DroppedRecords sums DroppedByPart.
func (r *ScanResult) DroppedRecords() uint64 {
	var n uint64
	for _, d := range r.DroppedByPart {
		n += d
	}
	return n
}

// Scan reads every segment and computes the replayable state. The
// policy separating degradation from damage:
//
//   - A segment whose final bytes are a seal or an end record was closed:
//     the writer synced everything before that record, then trimmed the
//     segment to its written length and synced again. No crash can have
//     damaged it, so none of the leniency below applies — anything in it
//     that does not parse, zeros included, is CorruptError. Only a
//     segment that was still open when its process died (at most one per
//     generation: recovery starts a fresh segment and leaves the old one
//     as it fell) can hold what the next three rules describe. (Damage
//     that takes a closed segment's last record with it looks like such
//     a segment, and degrades like one.)
//   - A zero record header (or zero magic) with nothing but zeros after
//     it ends the segment: the log writes into preallocated, zero-filled
//     space and trims it only on a clean close or rotation, so this is
//     simply where a crashed generation stopped writing. It is noted in
//     ZeroTails, not in Torn.
//   - A record that runs off the end of its segment (or a partial
//     header, or a segment too short for its magic) is a torn tail:
//     append-only storage can only lose a suffix, so everything before
//     the tear is intact and the tear itself only holds data no one was
//     ever promised. The tail is truncated, noted in Torn, and the scan
//     continues. This also covers a lying fsync tearing a non-final
//     segment: the lost suffix takes the end record with it, and becomes
//     per-partition sequence gaps, handled below.
//   - Inside a preallocation a tear does not shorten the file; it leaves
//     zeros where sectors of the in-flight batch never reached the disk.
//     So a fully-present record with a bad checksum is a torn tail iff
//     the segment is zero from some point inside the record to the end
//     of that sector (etcd's rule), as is a zero header with non-zero
//     bytes after it (the header's sector was lost, a later one was
//     not). The batch was one write followed by one sync that never
//     returned, and nothing is written behind an unsynced batch, so
//     everything from the tear to the end of the segment was
//     unacknowledged; it is dropped like any torn tail.
//   - Any other fully-present record with a bad checksum is
//     CorruptError: bytes in the middle of the log changed under us, and
//     replaying around them could resurrect a state no linearization
//     justifies. Scan refuses with a witness (segment, offset, reason).
//   - Two live records claiming the same (partition, seq) are
//     CorruptError too — a duplicated segment or a broken stamp, either
//     way replay order is no longer well-defined.
//   - Per-partition sequence gaps (from torn tails or group-commit
//     reordering at the crash edge) truncate that partition at the gap:
//     records past it were never contiguously acked, so dropping them
//     keeps exactly the acked-⇒-survives contract. Start then writes a
//     cut so the next generation can reuse the dropped numbers.
//   - Cross-partition transactions replay all-or-nothing: a cross
//     record counts toward its partition's prefix only when its
//     decision record is durable AND every participant named by that
//     decision survives inside its own partition's prefix. Voiding one
//     participant voids the whole cross, which can open a gap in
//     another partition and void further crosses — the horizon is the
//     fixpoint of that rule. The writer's release rule (log.go) is the
//     mirror image: no record at or past a cross payload is acked until
//     the whole cross is stable, so the fixpoint only ever swallows
//     commits whose callers were still waiting.
func Scan(backend Backend) (*ScanResult, error) {
	names, err := backend.List()
	if err != nil {
		return nil, fmt.Errorf("wal: scan: %w", err)
	}
	res := &ScanResult{}
	if len(names) == 0 {
		return res, nil
	}
	res.Segments = len(names)
	res.nextSegIdx = nextSegIdx(names)

	byPart := map[int]map[uint64]Record{} // part -> seq -> live record
	decisions := map[uint64][]CrossPart{} // cross id -> participants
	sealLast := false

	for segNo, name := range names {
		data, err := backend.Load(name)
		if err != nil {
			return nil, fmt.Errorf("wal: scan: %w", err)
		}
		// A closed segment admits no crash damage: what would end an open
		// one is refused in it.
		closed := bytes.HasSuffix(data, sealFrame) || bytes.HasSuffix(data, endFrame)
		torn := func(off int64, reason string) error {
			if closed {
				return &CorruptError{Segment: name, Offset: off, Reason: reason + ", in a closed segment"}
			}
			res.Torn = append(res.Torn, TornTail{Segment: name, Offset: off, Reason: reason})
			return nil
		}
		// unwritten ends the segment at a run of zeros starting at off:
		// preallocation no write reached if the zeros run to the end, a
		// lost sector ahead of a persisted one otherwise.
		unwritten := func(off int64) error {
			if !closed && allZero(data[off:]) {
				res.ZeroTails = append(res.ZeroTails, ZeroTail{Segment: name, Offset: off, Bytes: int64(len(data)) - off})
				return nil
			}
			return torn(off, "zeros where a record should start, written bytes after them")
		}
		if len(data) < len(Magic) {
			torn(0, "segment shorter than magic") // too short to be closed
			continue
		}
		if allZero(data[:len(Magic)]) {
			if err := unwritten(0); err != nil {
				return nil, err
			}
			continue
		}
		if string(data[:len(Magic)]) != Magic {
			return nil, &CorruptError{Segment: name, Offset: 0, Reason: "bad magic"}
		}
		off := int64(len(Magic))
		first := true
		for int(off) < len(data) {
			rest := data[off:]
			if len(rest) < headerSize {
				if err := torn(off, "partial record header"); err != nil {
					return nil, err
				}
				break
			}
			if allZero(rest[:headerSize]) {
				if err := unwritten(off); err != nil {
					return nil, err
				}
				break
			}
			plen := binary.LittleEndian.Uint32(rest[0:4])
			want := binary.LittleEndian.Uint32(rest[4:8])
			end := off + headerSize + int64(plen)
			if end > int64(len(data)) {
				if err := torn(off, "record extends past end of segment"); err != nil {
					return nil, err
				}
				break
			}
			payload := rest[headerSize : headerSize+int(plen)]
			if crc32.Checksum(payload, castagnoli) != want {
				if !closed && hasZeroSector(data, off, end) {
					torn(off, fmt.Sprintf("checksum mismatch on %d-byte record with an unwritten sector", plen))
					break
				}
				return nil, &CorruptError{Segment: name, Offset: off,
					Reason: fmt.Sprintf("checksum mismatch on %d-byte record", plen)}
			}
			sealLast = false
			kind, body := payload[0], payload[1:]
			switch kind {
			case kindMeta:
				version, parts, ok := decodeMeta(body)
				if !ok || !first {
					return nil, &CorruptError{Segment: name, Offset: off, Reason: "misplaced or malformed meta record"}
				}
				if version != formatVersion {
					return nil, &CorruptError{Segment: name, Offset: off,
						Reason: fmt.Sprintf("format version %d, this build reads %d", version, formatVersion)}
				}
				if parts <= 0 {
					return nil, &CorruptError{Segment: name, Offset: off, Reason: "non-positive partition count"}
				}
				if res.Partitions == 0 {
					res.Partitions = parts
				} else if res.Partitions != parts {
					return nil, &CorruptError{Segment: name, Offset: off,
						Reason: fmt.Sprintf("partition count changed mid-log: %d then %d", res.Partitions, parts)}
				}
			case kindTxn, kindCross:
				if first {
					return nil, &CorruptError{Segment: name, Offset: off, Reason: "segment does not start with meta"}
				}
				var rec Record
				var ok bool
				if kind == kindTxn {
					rec, ok = decodeTxn(body)
				} else {
					rec, ok = decodeCross(body)
					if rec.CrossID > res.maxCrossID {
						res.maxCrossID = rec.CrossID
					}
				}
				if !ok {
					return nil, &CorruptError{Segment: name, Offset: off, Reason: "malformed txn record"}
				}
				if rec.Part < 0 || rec.Part >= res.Partitions || rec.Seq == 0 {
					return nil, &CorruptError{Segment: name, Offset: off, Reason: "txn record out of range"}
				}
				m := byPart[rec.Part]
				if m == nil {
					m = map[uint64]Record{}
					byPart[rec.Part] = m
				}
				if _, ok := m[rec.Seq]; ok {
					// A cut deletes every sequence it voids, so any
					// collision with a still-live record is real.
					return nil, &CorruptError{Segment: name, Offset: off,
						Reason: fmt.Sprintf("duplicate record: partition %d seq %d", rec.Part, rec.Seq)}
				}
				m[rec.Seq] = rec
			case kindDecision:
				if first {
					return nil, &CorruptError{Segment: name, Offset: off, Reason: "segment does not start with meta"}
				}
				cross, members, ok := decodeDecision(body)
				if !ok {
					return nil, &CorruptError{Segment: name, Offset: off, Reason: "malformed decision record"}
				}
				if _, dup := decisions[cross]; dup {
					// Cross ids are unique for the log's whole life; a
					// second decision means a duplicated segment.
					return nil, &CorruptError{Segment: name, Offset: off,
						Reason: fmt.Sprintf("duplicate decision record: cross %d", cross)}
				}
				for _, mem := range members {
					if mem.Part < 0 || mem.Part >= res.Partitions {
						return nil, &CorruptError{Segment: name, Offset: off, Reason: "decision record out of range"}
					}
				}
				decisions[cross] = members
				if cross > res.maxCrossID {
					res.maxCrossID = cross
				}
			case kindCut:
				if first {
					return nil, &CorruptError{Segment: name, Offset: off, Reason: "segment does not start with meta"}
				}
				part, from, ok := decodeCut(body)
				if !ok {
					return nil, &CorruptError{Segment: name, Offset: off, Reason: "malformed cut record"}
				}
				if part < 0 || part >= res.Partitions {
					return nil, &CorruptError{Segment: name, Offset: off, Reason: "cut record out of range"}
				}
				for seq := range byPart[part] {
					if seq >= from {
						delete(byPart[part], seq)
					}
				}
			case kindSeal:
				if first {
					return nil, &CorruptError{Segment: name, Offset: off, Reason: "segment does not start with meta"}
				}
				if segNo == len(names)-1 {
					sealLast = true
				}
				// Seals from earlier generations mid-log are inert.
			case kindEnd:
				if first {
					return nil, &CorruptError{Segment: name, Offset: off, Reason: "segment does not start with meta"}
				}
				// Inert: a closed segment is known by its suffix.
			default:
				return nil, &CorruptError{Segment: name, Offset: off,
					Reason: fmt.Sprintf("unknown record kind %d", kind)}
			}
			first = false
			off += int64(headerSize) + int64(plen)
		}
	}
	res.Clean = sealLast && len(res.Torn) == 0

	if res.Partitions > 0 {
		res.resolve(byPart, decisions)
	}
	return res, nil
}

// resolve turns the live record maps into the replay plan: per-partition
// contiguous prefixes under the cross-transaction all-or-nothing rule.
// voided grows monotonically (a cross, once voided, never un-voids), so
// the loop reaches a fixpoint in at most one pass per voided cross.
func (res *ScanResult) resolve(byPart map[int]map[uint64]Record, decisions map[uint64][]CrossPart) {
	voided := map[uint64]bool{}
	horizons := func() []uint64 {
		h := make([]uint64, res.Partitions)
		for p := 0; p < res.Partitions; p++ {
			var seq uint64
			for seq = 1; ; seq++ {
				rec, ok := byPart[p][seq]
				if !ok {
					break
				}
				if rec.CrossID != 0 {
					if _, decided := decisions[rec.CrossID]; !decided || voided[rec.CrossID] {
						break
					}
				}
			}
			h[p] = seq - 1
		}
		return h
	}
	var h []uint64
	for {
		h = horizons()
		changed := false
		for id, members := range decisions {
			if voided[id] {
				continue
			}
			for _, m := range members {
				rec, ok := byPart[m.Part][m.Seq]
				// A participant is live only if the record at its slot
				// really belongs to this cross (a cut may have freed the
				// sequence for a later generation) and sits inside the
				// current prefix.
				if !ok || rec.CrossID != id || m.Seq > h[m.Part] {
					voided[id] = true
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}

	replayedCross := map[uint64]bool{}
	voidedCross := map[uint64]bool{}
	res.Horizon = h
	res.DroppedByPart = make([]uint64, res.Partitions)
	for p := 0; p < res.Partitions; p++ {
		m := byPart[p]
		for seq := uint64(1); seq <= h[p]; seq++ {
			rec := m[seq]
			res.Records = append(res.Records, rec)
			if rec.CrossID != 0 {
				replayedCross[rec.CrossID] = true
			}
			delete(m, seq)
		}
		res.DroppedByPart[p] = uint64(len(m))
		for _, rec := range m {
			if rec.CrossID != 0 {
				voidedCross[rec.CrossID] = true
			}
		}
	}
	res.CrossReplayed = uint64(len(replayedCross))
	res.CrossVoided = uint64(len(voidedCross))
}

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// hasZeroSector reports whether the record data[from:to] covers a sector
// the disk never wrote: one that is zero from the record's first byte in
// it to the sector's end (or the segment's). The sector's earlier bytes
// belong to older, durable records; its later ones can only have come
// with the same write, because the log never writes behind an unsynced
// batch — which is what tells a lost sector from a record that merely
// ends in zeros.
func hasZeroSector(data []byte, from, to int64) bool {
	for from < to {
		next := (from/sectorSize + 1) * sectorSize
		if allZero(data[from:min(next, int64(len(data)))]) {
			return true
		}
		from = next
	}
	return false
}

// nextSegIdx picks the first unused segment index: one past the highest
// parseable name (unparseable survivors are ignored by List's filter
// shape, so the worst case is a collision error from Create, not silent
// reuse).
func nextSegIdx(names []string) uint64 {
	var next uint64
	for _, n := range names {
		num := strings.TrimSuffix(strings.TrimPrefix(n, "wal-"), ".seg")
		if idx, err := strconv.ParseUint(num, 10, 64); err == nil && idx+1 > next {
			next = idx + 1
		}
	}
	return next
}
