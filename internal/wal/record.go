package wal

import (
	"encoding/binary"
	"hash/crc32"
)

// The on-disk grammar. A segment is the 8-byte magic followed by
// records; a record is an 8-byte header — little-endian payload length,
// then CRC-32C of the payload — followed by the payload bytes. The
// first payload byte is the record kind:
//
//	txn  — part uvarint, seq uvarint, nops uvarint, then per op one
//	       flag byte (bit0 = delete), key length+bytes and, for
//	       non-deletes, value length+bytes;
//	cut  — part uvarint, from uvarint: every earlier record of part
//	       with seq >= from is void. Written on reopen after a gap
//	       truncation so a later generation can reuse the sequence
//	       numbers the truncation dropped;
//	seal — no payload: a clean shutdown flushed everything before this
//	       point. Only meaningful as the last record of the log;
//	meta — format version uvarint, partitions uvarint: opens every
//	       segment, making each self-describing and pinning the
//	       partition count routing depends on;
//	cross — cross uvarint (the cross-transaction id), then a txn body:
//	       one participant partition's share of a cross-partition
//	       commit. Replayable only when the id's decision record is
//	       durable and every participant survives — see scan.go;
//	decision — cross uvarint, nparts uvarint, then per participant
//	       part uvarint + seq uvarint: the atomic commit point of a
//	       cross-partition transaction. Its durability decides the
//	       whole cross all-or-nothing at recovery;
//	end  — no payload: the last record of a segment closed by rotation,
//	       written only once everything before it is durable. A seal or
//	       an end as a segment's final bytes is how Scan knows the
//	       segment was closed, and so holds no crash damage.
//
// Checksums cover the payload only; the length field is validated by
// the extent check (a record must fit inside its segment). The split of
// decode failures into "torn" and "corrupt" lives in scan.go.

// Magic opens every segment.
const Magic = "pclwal01"

// formatVersion is bumped when an existing record's encoding changes. A
// new record kind needs no bump: a build that does not know it refuses
// the log with a witness instead of misreading it.
const formatVersion = 1

// Record kinds.
const (
	kindTxn byte = iota + 1
	kindCut
	kindSeal
	kindMeta
	kindCross
	kindDecision
	kindEnd
)

// headerSize is the fixed record header: uint32 length + uint32 CRC.
const headerSize = 8

// castagnoli is the CRC-32C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Op is one logical store operation inside a txn record. Key and Val
// are the codec's byte images (store/durable.go); Del distinguishes
// deletions, whose Val is empty.
type Op struct {
	Del      bool
	Key, Val []byte
}

// Record is one decoded txn record: partition part committed the ops as
// its seq'th logged transaction. CrossID is non-zero for a cross
// record — one participant's share of the cross-partition transaction
// with that id, replayable only under the decision rule in scan.go.
type Record struct {
	Part    int
	Seq     uint64
	CrossID uint64
	Ops     []Op
}

// CrossPart names one participant of a cross-partition transaction:
// partition Part's share committed as its Seq'th logged transaction,
// carrying Nops encoded ops. The same struct is the append-side input
// (Ops filled) and the decision record's participant list (Ops nil).
type CrossPart struct {
	Part int
	Seq  uint64
	Nops int
	Ops  []byte
}

// appendUvarint appends x in unsigned varint form.
func appendUvarint(dst []byte, x uint64) []byte {
	return binary.AppendUvarint(dst, x)
}

// appendFrame appends a complete record (header + payload) to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// appendTxnPayload builds a txn record payload: the caller supplies the
// already-encoded ops section (nops ops) produced by store/durable.go.
func appendTxnPayload(dst []byte, part int, seq uint64, nops int, ops []byte) []byte {
	dst = append(dst, kindTxn)
	dst = appendUvarint(dst, uint64(part))
	dst = appendUvarint(dst, seq)
	dst = appendUvarint(dst, uint64(nops))
	return append(dst, ops...)
}

// AppendOp appends one op to an ops section under construction — the
// encoding half the store's capture buffer uses, kept next to decodeOps
// so the two halves cannot drift.
func AppendOp(dst []byte, del bool, key, val []byte) []byte {
	var flag byte
	if del {
		flag = 1
	}
	dst = append(dst, flag)
	dst = appendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	if !del {
		dst = appendUvarint(dst, uint64(len(val)))
		dst = append(dst, val...)
	}
	return dst
}

// appendCrossPayload builds a cross record payload: the cross id, then
// the same body as a txn record.
func appendCrossPayload(dst []byte, cross uint64, part int, seq uint64, nops int, ops []byte) []byte {
	dst = append(dst, kindCross)
	dst = appendUvarint(dst, cross)
	dst = appendUvarint(dst, uint64(part))
	dst = appendUvarint(dst, seq)
	dst = appendUvarint(dst, uint64(nops))
	return append(dst, ops...)
}

// appendDecisionPayload builds a decision record: the commit point of
// cross transaction cross, naming every participant's (part, seq).
func appendDecisionPayload(dst []byte, cross uint64, members []CrossPart) []byte {
	dst = append(dst, kindDecision)
	dst = appendUvarint(dst, cross)
	dst = appendUvarint(dst, uint64(len(members)))
	for _, m := range members {
		dst = appendUvarint(dst, uint64(m.Part))
		dst = appendUvarint(dst, m.Seq)
	}
	return dst
}

func cutPayload(part int, from uint64) []byte {
	dst := []byte{kindCut}
	dst = appendUvarint(dst, uint64(part))
	return appendUvarint(dst, from)
}

// sealFrame and endFrame are the complete seal and end records: fixed
// bytes, so Scan can recognize a closed segment by its suffix.
var (
	sealFrame = appendFrame(nil, []byte{kindSeal})
	endFrame  = appendFrame(nil, []byte{kindEnd})
)

func metaPayload(partitions int) []byte {
	dst := []byte{kindMeta}
	dst = appendUvarint(dst, formatVersion)
	return appendUvarint(dst, uint64(partitions))
}

// uvarint reads one uvarint, reporting failure instead of panicking.
func uvarint(b []byte) (uint64, []byte, bool) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, false
	}
	return x, b[n:], true
}

// decodeTxn parses a txn payload (kind byte already consumed).
func decodeTxn(b []byte) (Record, bool) {
	var r Record
	part, b, ok := uvarint(b)
	if !ok {
		return r, false
	}
	seq, b, ok := uvarint(b)
	if !ok {
		return r, false
	}
	nops, b, ok := uvarint(b)
	if !ok || nops > uint64(len(b)) { // each op is ≥1 byte
		return r, false
	}
	r.Part, r.Seq = int(part), seq
	r.Ops = make([]Op, 0, nops)
	for i := uint64(0); i < nops; i++ {
		if len(b) == 0 {
			return r, false
		}
		op := Op{Del: b[0]&1 != 0}
		b = b[1:]
		klen, rest, ok := uvarint(b)
		if !ok || klen > uint64(len(rest)) {
			return r, false
		}
		op.Key, b = rest[:klen], rest[klen:]
		if !op.Del {
			vlen, rest, ok := uvarint(b)
			if !ok || vlen > uint64(len(rest)) {
				return r, false
			}
			op.Val, b = rest[:vlen], rest[vlen:]
		}
		r.Ops = append(r.Ops, op)
	}
	if len(b) != 0 {
		return r, false // trailing garbage inside a checksummed payload
	}
	return r, true
}

// decodeCross parses a cross payload (kind byte already consumed): the
// cross id, then a txn body.
func decodeCross(b []byte) (Record, bool) {
	cross, b, ok := uvarint(b)
	if !ok || cross == 0 {
		return Record{}, false
	}
	r, ok := decodeTxn(b)
	if !ok {
		return Record{}, false
	}
	r.CrossID = cross
	return r, true
}

// decodeDecision parses a decision payload (kind byte already
// consumed).
func decodeDecision(b []byte) (cross uint64, members []CrossPart, ok bool) {
	cross, b, ok = uvarint(b)
	if !ok || cross == 0 {
		return 0, nil, false
	}
	n, b, ok := uvarint(b)
	if !ok || n == 0 || n > uint64(len(b)) { // each member is ≥2 bytes
		return 0, nil, false
	}
	members = make([]CrossPart, 0, n)
	for i := uint64(0); i < n; i++ {
		part, rest, ok := uvarint(b)
		if !ok {
			return 0, nil, false
		}
		seq, rest, ok := uvarint(rest)
		if !ok || seq == 0 {
			return 0, nil, false
		}
		members = append(members, CrossPart{Part: int(part), Seq: seq})
		b = rest
	}
	if len(b) != 0 {
		return 0, nil, false
	}
	return cross, members, true
}

func decodeCut(b []byte) (part int, from uint64, ok bool) {
	p, b, ok := uvarint(b)
	if !ok {
		return 0, 0, false
	}
	f, b, ok := uvarint(b)
	if !ok || len(b) != 0 {
		return 0, 0, false
	}
	return int(p), f, true
}

func decodeMeta(b []byte) (version uint64, partitions int, ok bool) {
	v, b, ok := uvarint(b)
	if !ok {
		return 0, 0, false
	}
	p, b, ok := uvarint(b)
	if !ok || len(b) != 0 {
		return 0, 0, false
	}
	return v, int(p), true
}
