package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Preallocation changes what a crash leaves behind — zeros instead of a
// shorter file — and these tests pin the scan policy, the crash models
// and the trim-on-close rule that go with it.

// frameEnds walks the records of a segment image and returns the offset
// just past each one, stopping at the first zero header or at the end.
func frameEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	off := len(Magic)
	for off+headerSize <= len(data) && !allZero(data[off:off+headerSize]) {
		off += headerSize + int(binary.LittleEndian.Uint32(data[off:]))
		if off > len(data) {
			t.Fatalf("frame runs past the image at %d", off)
		}
		ends = append(ends, off)
	}
	return ends
}

// killedImage runs a one-partition log through three small records and
// a 2000-byte one, all acknowledged, and returns its only segment as a
// SIGKILL would leave it: every written byte, then the untrimmed
// preallocation.
func killedImage(t *testing.T) (name string, data []byte) {
	t.Helper()
	b := NewMemBackend()
	l := mustStart(t, b, Options{Partitions: 1, SegmentBytes: 8 << 10})
	appendN(t, l, 0, 1, 3)
	if err := l.Append(0, 4, 1, AppendOp(nil, false, []byte("big"), bytes.Repeat([]byte{0xAB}, 2000))); err != nil {
		t.Fatalf("Append: %v", err)
	}
	img := b.Clone(-1)
	names, _ := img.List()
	if len(names) != 1 {
		t.Fatalf("segments = %v, want one", names)
	}
	data, _ = img.Load(names[0])
	if want := 8<<10 + preallocSlack; len(data) != want {
		t.Fatalf("killed image is %d bytes, want the %d preallocated", len(data), want)
	}
	return names[0], data
}

// install makes a backend of the given kind holding exactly the given
// segment images, as a new process would find them.
func install(t *testing.T, kind string, segs map[string][]byte) Backend {
	t.Helper()
	if kind == "file" {
		dir := t.TempDir()
		for name, data := range segs {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		fb, err := NewFileBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		return fb
	}
	b := NewMemBackend()
	for name, data := range segs {
		seg, err := b.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		_ = seg.Append(data)
		_ = seg.Sync()
	}
	return b
}

func TestScanPolicyUnderPreallocation(t *testing.T) {
	name, base := killedImage(t)
	ends := frameEnds(t, base)
	if len(ends) != 5 { // meta + four records
		t.Fatalf("image holds %d frames, want 5", len(ends))
	}
	bigStart, bigEnd := ends[3], ends[4]
	// The first sector boundary that lies wholly inside the big record.
	sector := (bigStart/sectorSize + 1) * sectorSize

	cases := []struct {
		name    string
		mutate  func(data []byte) []byte
		corrupt bool
		horizon uint64
		torn    int   // Torn entries
		zeroAt  int64 // offset of the one ZeroTail, -1 for none
	}{
		{
			name:    "killed: zero tail is not a tear",
			mutate:  func(d []byte) []byte { return d },
			horizon: 4, zeroAt: int64(bigEnd),
		},
		{
			name: "unsynced batch never reached the disk",
			mutate: func(d []byte) []byte {
				clear(d[bigStart:])
				return d
			},
			horizon: 3, zeroAt: int64(bigStart),
		},
		{
			name: "one sector of the record never written",
			mutate: func(d []byte) []byte {
				clear(d[sector : sector+sectorSize])
				return d
			},
			horizon: 3, torn: 1, zeroAt: -1,
		},
		{
			name: "record torn at a sector boundary",
			mutate: func(d []byte) []byte {
				clear(d[sector:])
				return d
			},
			horizon: 3, torn: 1, zeroAt: -1,
		},
		{
			name: "header's sector lost, a later one persisted",
			mutate: func(d []byte) []byte {
				clear(d[bigStart:sector])
				return d
			},
			horizon: 3, torn: 1, zeroAt: -1,
		},
		{
			name: "bit flip in the last record",
			mutate: func(d []byte) []byte {
				d[bigStart+headerSize+100] ^= 0x40
				return d
			},
			corrupt: true,
		},
		{
			name: "bit flip mid-log",
			mutate: func(d []byte) []byte {
				d[ends[1]-1] ^= 0x40
				return d
			},
			corrupt: true,
		},
		{
			name: "bit flip in the zero tail",
			mutate: func(d []byte) []byte {
				d[bigEnd+headerSize+3] ^= 0x40
				return d
			},
			// Not a record and not preallocation: the scan stops here
			// with a witness in Torn rather than calling it a clean tail.
			horizon: 4, torn: 1, zeroAt: -1,
		},
		{
			name: "segment preallocated but never written",
			mutate: func(d []byte) []byte {
				clear(d)
				return d
			},
			horizon: 0, zeroAt: 0,
		},
		{
			name:    "growing-file shape: nothing past the bytes written",
			mutate:  func(d []byte) []byte { return d[:bigEnd] },
			horizon: 4, zeroAt: -1,
		},
		{
			name:    "growing-file tear: record runs past the end",
			mutate:  func(d []byte) []byte { return d[:bigEnd-7] },
			horizon: 3, torn: 1, zeroAt: -1,
		},
	}
	for _, kind := range []string{"mem", "file"} {
		for _, tc := range cases {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				data := tc.mutate(bytes.Clone(base))
				scan, err := Scan(install(t, kind, map[string][]byte{name: data}))
				if tc.corrupt {
					var ce *CorruptError
					if !errors.As(err, &ce) {
						t.Fatalf("Scan = %v, want CorruptError", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("Scan: %v", err)
				}
				if tc.horizon == 0 {
					if len(scan.Records) != 0 {
						t.Errorf("replayed %d records from an unwritten segment", len(scan.Records))
					}
				} else if scan.Horizon[0] != tc.horizon {
					t.Errorf("Horizon = %d, want %d", scan.Horizon[0], tc.horizon)
				}
				if len(scan.Torn) != tc.torn {
					t.Errorf("Torn = %+v, want %d entries", scan.Torn, tc.torn)
				}
				switch {
				case tc.zeroAt < 0 && len(scan.ZeroTails) != 0:
					t.Errorf("ZeroTails = %+v, want none", scan.ZeroTails)
				case tc.zeroAt >= 0:
					want := ZeroTail{Segment: name, Offset: tc.zeroAt, Bytes: int64(len(data)) - tc.zeroAt}
					if len(scan.ZeroTails) != 1 || scan.ZeroTails[0] != want {
						t.Errorf("ZeroTails = %+v, want [%+v]", scan.ZeroTails, want)
					}
					if scan.ZeroTailBytes() != want.Bytes {
						t.Errorf("ZeroTailBytes = %d, want %d", scan.ZeroTailBytes(), want.Bytes)
					}
				}
				if scan.Clean {
					t.Error("unsealed log reported Clean")
				}
				// The next generation starts on top of whatever was found.
				b2 := install(t, kind, map[string][]byte{name: data})
				l, _, err := Open(b2, Options{Partitions: 1})
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				if tc.horizon != 0 {
					appendN(t, l, 0, tc.horizon+1, tc.horizon+2)
				}
				if err := l.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				scan2, err := Scan(b2)
				if err != nil {
					t.Fatalf("second Scan: %v", err)
				}
				if !scan2.Clean && tc.torn == 0 {
					t.Error("sealed second generation over a zero tail not Clean")
				}
				if tc.horizon != 0 && scan2.Horizon[0] != tc.horizon+2 {
					t.Errorf("second generation horizon = %d, want %d", scan2.Horizon[0], tc.horizon+2)
				}
			})
		}
	}
}

// TestTearInsideCoalescedBatch tears one multi-record write — plain
// records, then a cross transaction's payloads and decision, then more
// plain records — at every sector boundary it spans. The batch went out
// as a single append, so whatever precedes the tear is intact and may
// replay (nothing of the batch was acknowledged, and recovering an
// unacknowledged commit is always legal); the tear itself must read as
// a torn tail, never corruption, and the cross must replay whole or not
// at all.
func TestTearInsideCoalescedBatch(t *testing.T) {
	val := bytes.Repeat([]byte{0xCD}, 300)
	put := func(k string) []byte { return AppendOp(nil, false, []byte(k), val) }
	// The writer sleeps out the window after the first enqueue, so
	// everything enqueued meanwhile is one batch, in this order.
	enqueue := func(l *Log) {
		for seq := uint64(1); seq <= 2; seq++ {
			if err := l.Append(0, seq, 1, put("a")); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if _, err := l.AppendCross([]CrossPart{
			{Part: 0, Seq: 3, Nops: 1, Ops: put("x0")},
			{Part: 1, Seq: 1, Nops: 1, Ops: put("x1")},
		}); err != nil {
			t.Fatalf("AppendCross: %v", err)
		}
		if err := l.Append(1, 2, 1, put("b")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	opts := Options{Partitions: 2, Ack: AckAsync, BatchWindow: 20 * time.Millisecond}

	probe := NewFailBackend(NewMemBackend())
	l := mustStart(t, probe, opts)
	batchOp := probe.Ops() + 1 // the batch is the next backend operation
	enqueue(l)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := l.Stats(); st.MaxBatch != 6 {
		t.Fatalf("MaxBatch = %d, want the 6 records in one batch", st.MaxBatch)
	}
	const batchBytes = 6*300 + 6*20 // a little under the real size

	sawVoided, sawReplayed, sawTorn := false, false, false
	for tear := 0; tear <= batchBytes; tear += sectorSize / 2 {
		mem := NewMemBackend()
		fb := NewFailBackend(mem)
		fb.Arm(FailPoint{Kind: FailTear, N: batchOp, TearBytes: tear})
		l := mustStart(t, fb, opts)
		enqueue(l)
		if err := l.Close(); err == nil {
			t.Fatalf("tear %d: log survived its torn write", tear)
		}
		scan, err := Scan(mem.Clone(-1))
		if err != nil {
			t.Fatalf("tear %d: scan refused: %v", tear, err)
		}
		h := scan.Horizon
		if (h[0] >= 3) != (h[1] >= 1) {
			t.Fatalf("tear %d: cross half-replayed: horizons %v", tear, h)
		}
		if h[1] == 2 && h[0] < 3 {
			t.Fatalf("tear %d: record past a voided cross replayed: horizons %v", tear, h)
		}
		if len(scan.Torn)+len(scan.ZeroTails) != 1 {
			t.Fatalf("tear %d: Torn %+v ZeroTails %+v, want exactly one end-of-segment note", tear, scan.Torn, scan.ZeroTails)
		}
		sawTorn = sawTorn || len(scan.Torn) == 1
		sawVoided = sawVoided || scan.CrossVoided == 1
		sawReplayed = sawReplayed || scan.CrossReplayed == 1
	}
	if !sawTorn || !sawVoided || !sawReplayed {
		t.Errorf("sweep saw torn=%v voided=%v replayed=%v, want all three", sawTorn, sawVoided, sawReplayed)
	}
}

// TestRotationCloseFailurePoisons: closing a full segment trims and
// syncs it, so a failure there is a storage fault — the log must poison
// itself, not rotate on regardless. The batch that filled the segment was
// synced before the rotation began: it is durable, only never
// acknowledged, which recovery may replay.
func TestRotationCloseFailurePoisons(t *testing.T) {
	opts := Options{Partitions: 1, Ack: AckSync, SegmentBytes: 256}
	// Find the record that fills the first segment.
	l := mustStart(t, NewMemBackend(), opts)
	var filler uint64
	for filler = 1; l.Stats().Segments == 1; filler++ {
		appendN(t, l, 0, filler, filler)
	}
	filler--
	_ = l.Close()

	for _, kind := range []FailKind{FailSync, FailCrash} {
		mem := NewMemBackend()
		fb := NewFailBackend(mem)
		l := mustStart(t, fb, opts)
		appendN(t, l, 0, 1, filler-1)
		// The filler's append and sync, the end record, the rotation's Close.
		fb.Arm(FailPoint{Kind: kind, N: 4})
		err := l.Append(0, filler, 1, AppendOp(nil, false, []byte("k"), []byte("v")))
		var fe *FailedError
		if !errors.As(err, &fe) {
			t.Fatalf("%v: Append across a failed rotation = %v, want FailedError", kind, err)
		}
		if fb.Ops() != 4 {
			t.Fatalf("%v: fault fired at operation %d, want the Close at 4", kind, fb.Ops())
		}
		if err := l.Append(0, filler+1, 1, nil); !errors.As(err, &fe) {
			t.Errorf("%v: append after poison = %v, want FailedError", kind, err)
		}
		if st := l.Stats(); st.Failed == 0 || st.Segments != 1 {
			t.Errorf("%v: Failed = %d, Segments = %d, want poisoned before the second segment", kind, st.Failed, st.Segments)
		}
		if err := l.Close(); err == nil {
			t.Errorf("%v: Close of a poisoned log reported success", kind)
		}
		scan, err := Scan(mem.Clone(0))
		if err != nil {
			t.Fatalf("%v: Scan: %v", kind, err)
		}
		if scan.Horizon[0] != filler {
			t.Errorf("%v: Horizon = %d, want the %d synced records", kind, scan.Horizon[0], filler)
		}
		if len(scan.ZeroTails) != 1 || len(scan.Torn) != 0 {
			t.Errorf("%v: ZeroTails %+v Torn %+v, want the untrimmed preallocation and no tear", kind, scan.ZeroTails, scan.Torn)
		}
	}
}

// TestClosedSegmentsRefuseDamage: the zero-tail and zero-sector rules
// describe what a crash leaves in the segment a process died holding. A
// rotated or sealed segment was synced, trimmed and synced again, and
// says so with its last record; zeros inside one are lost data that was
// acknowledged, and must be refused like any other mid-log damage.
func TestClosedSegmentsRefuseDamage(t *testing.T) {
	// A cleanly sealed five-segment log of 300 fsynced commits.
	src := NewMemBackend()
	l := mustStart(t, src, Options{Partitions: 1, Ack: AckSync, SegmentBytes: 1400})
	appendN(t, l, 0, 1, 300)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, _ := src.List()
	if len(names) != 5 {
		t.Fatalf("log has %d segments, want 5", len(names))
	}
	base := map[string][]byte{}
	for i, name := range names {
		data, _ := src.Load(name)
		base[name] = data
		want := endFrame
		if i == len(names)-1 {
			want = sealFrame
		}
		if !bytes.HasSuffix(data, want) || len(data) < 2*sectorSize+64 {
			t.Fatalf("%s: %d bytes, does not end in its closing record or is too short for the fixture", name, len(data))
		}
	}
	rotated, sealed := names[0], names[len(names)-1]
	secondRecord := func(d []byte) int { return frameEnds(t, d)[1] }

	cases := []struct {
		name    string
		segment string
		mutate  func(d []byte) []byte
		corrupt string // substring of the refusal's reason; "" = the scan accepts
	}{
		{"intact", rotated, func(d []byte) []byte { return d }, ""},
		{"zeroed sector in a rotated segment", rotated, func(d []byte) []byte {
			clear(d[sectorSize : 2*sectorSize])
			return d
		}, "checksum mismatch"},
		{"zeroed sector in the sealed segment", sealed, func(d []byte) []byte {
			clear(d[sectorSize : 2*sectorSize])
			return d
		}, "checksum mismatch"},
		{"zeros from a record boundary up to the end record", rotated, func(d []byte) []byte {
			clear(d[secondRecord(d) : len(d)-len(endFrame)])
			return d
		}, "zeros where a record should start"},
		{"zeroed magic", rotated, func(d []byte) []byte {
			clear(d[:sectorSize])
			return d
		}, "zeros where a record should start"},
		{"length field pointing past the end", rotated, func(d []byte) []byte {
			d[secondRecord(d)+2] = 0x7f
			return d
		}, "record extends past end of segment, in a closed segment"},
		// Losing the suffix takes the closing record with it, which is
		// what a lying fsync leaves: still a torn tail, and the records of
		// later segments fall past the gap.
		{"suffix lost", rotated, func(d []byte) []byte { return d[:len(d)-40] }, ""},
	}
	for _, kind := range []string{"mem", "file"} {
		for _, tc := range cases {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				segs := map[string][]byte{}
				for name, data := range base {
					segs[name] = bytes.Clone(data)
				}
				segs[tc.segment] = tc.mutate(segs[tc.segment])
				scan, err := Scan(install(t, kind, segs))
				if tc.corrupt != "" {
					var ce *CorruptError
					if !errors.As(err, &ce) {
						t.Fatalf("Scan = %+v, %v; want CorruptError", scan, err)
					}
					if ce.Segment != tc.segment || !strings.Contains(ce.Reason, tc.corrupt) {
						t.Errorf("witness = %+v, want segment %s and reason %q", ce, tc.segment, tc.corrupt)
					}
					return
				}
				if err != nil {
					t.Fatalf("Scan: %v", err)
				}
				if tc.name == "intact" {
					if !scan.Clean || scan.Horizon[0] != 300 || len(scan.Torn)+len(scan.ZeroTails) != 0 {
						t.Errorf("clean=%v horizon=%d torn=%+v zero tails=%+v, want true/300/none/none",
							scan.Clean, scan.Horizon[0], scan.Torn, scan.ZeroTails)
					}
					return
				}
				if len(scan.Torn) != 1 || scan.Horizon[0] >= 300 || scan.DroppedByPart[0] == 0 {
					t.Errorf("torn=%+v horizon=%d dropped=%v, want one torn tail and a gap", scan.Torn, scan.Horizon[0], scan.DroppedByPart)
				}
			})
		}
	}
}

// TestZeroSectorNeedsTheRestOfItsSector pins the edge of the torn-write
// rule. A record may end a few bytes past a sector boundary in bytes that
// are honestly zero; that alone must not pass a flipped bit off as a
// tear. The sector counts as never written only if it is zero to its
// end, and so only for the last record a crashed process wrote.
func TestZeroSectorNeedsTheRestOfItsSector(t *testing.T) {
	txn := func(seq uint64, val []byte) []byte {
		return appendFrame(nil, appendTxnPayload(nil, 0, seq, 1, AppendOp(nil, false, []byte("k"), val)))
	}
	head := appendFrame([]byte(Magic), metaPayload(1))
	head = append(head, txn(1, []byte("v"))...)
	// Size the second record to end three bytes — zeros — into a sector.
	var rec []byte
	for n := 600; ; n++ {
		val := bytes.Repeat([]byte{0xAB}, n)
		clear(val[n-3:])
		rec = txn(2, val)
		if (len(head)+len(rec))%sectorSize == 3 {
			break
		}
	}
	flip := len(head) + headerSize + 20
	pad := make([]byte, 4*sectorSize)
	const name = "wal-0000000000000000.seg"

	cases := []struct {
		name    string
		after   []byte // what follows the flipped record
		corrupt bool
	}{
		{"last record of a killed segment", pad, false},
		{"another record in the same sector", append(txn(3, []byte("v")), pad...), true},
		{"sealed segment", sealFrame, true},
	}
	for _, kind := range []string{"mem", "file"} {
		for _, tc := range cases {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				data := append(append(bytes.Clone(head), rec...), tc.after...)
				if scan, err := Scan(install(t, kind, map[string][]byte{name: bytes.Clone(data)})); err != nil || scan.Horizon[0] < 2 {
					t.Fatalf("undamaged image: %+v, %v", scan, err)
				}
				data[flip] ^= 0x40
				scan, err := Scan(install(t, kind, map[string][]byte{name: data}))
				var ce *CorruptError
				switch {
				case tc.corrupt && !errors.As(err, &ce):
					t.Fatalf("Scan = %+v, %v; want CorruptError", scan, err)
				case !tc.corrupt && err != nil:
					t.Fatalf("Scan: %v", err)
				case !tc.corrupt && (len(scan.Torn) != 1 || scan.Horizon[0] != 1):
					t.Errorf("torn=%+v horizon=%d, want the flipped record dropped as a torn tail", scan.Torn, scan.Horizon[0])
				}
			})
		}
	}
}

// TestClosedSegmentsCarryNoPadding: a segment holds preallocated space
// only while it is the live tail; rotation and the seal trim it to the
// bytes written, on both backends.
func TestClosedSegmentsCarryNoPadding(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	for kind, b := range map[string]Backend{"mem": NewMemBackend(), "file": fb} {
		t.Run(kind, func(t *testing.T) {
			const segBytes = 256
			l := mustStart(t, b, Options{Partitions: 1, SegmentBytes: segBytes})
			appendN(t, l, 0, 1, 60)
			names, _ := b.List()
			if len(names) < 3 {
				t.Fatalf("expected rotation to produce >= 3 segments, got %d", len(names))
			}
			sizes := func() (out []int) {
				for _, name := range names {
					data, err := b.Load(name)
					if err != nil {
						t.Fatal(err)
					}
					if ends := frameEnds(t, data); len(ends) == 0 || !allZero(data[ends[len(ends)-1]:]) {
						t.Fatalf("%s: not records followed by zeros", name)
					}
					out = append(out, len(data))
				}
				return out
			}
			written := func(name string) int {
				data, _ := b.Load(name)
				ends := frameEnds(t, data)
				return ends[len(ends)-1]
			}
			live := len(names) - 1
			for i, size := range sizes() {
				switch {
				case i < live && size != written(names[i]):
					t.Errorf("rotated %s is %d bytes, wrote %d", names[i], size, written(names[i]))
				case i == live && kind == "file" && runtime.GOOS != "linux":
					// No preallocation here: the tail is a growing file.
				case i == live && size != segBytes+preallocSlack:
					t.Errorf("live %s is %d bytes, want %d preallocated", names[i], size, segBytes+preallocSlack)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			for i, size := range sizes() {
				if size != written(names[i]) {
					t.Errorf("after Close %s is %d bytes, wrote %d", names[i], size, written(names[i]))
				}
			}
			scan, err := Scan(b)
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if !scan.Clean || len(scan.ZeroTails) != 0 || scan.Horizon[0] != 60 {
				t.Errorf("clean=%v zero tails=%+v horizon=%d, want true/none/60", scan.Clean, scan.ZeroTails, scan.Horizon[0])
			}
		})
	}
}

// TestKilledFileLogRecoversFromZeroTail leaves a real file log without
// closing it — what SIGKILL does — and recovers from the directory.
func TestKilledFileLogRecoversFromZeroTail(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := mustStart(t, fb, Options{Partitions: 2})
	appendN(t, l, 0, 1, 10)
	appendN(t, l, 1, 1, 4)
	// No Close: the descriptor leaks until the test binary exits.

	fb2, _ := NewFileBackend(dir)
	scan, err := Scan(fb2)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if got := fmt.Sprint(scan.Horizon); got != "[10 4]" {
		t.Errorf("Horizon = %s, want [10 4]", got)
	}
	if scan.Clean || len(scan.Torn) != 0 {
		t.Errorf("clean=%v torn=%+v, want an unsealed log with no tear", scan.Clean, scan.Torn)
	}
	if runtime.GOOS == "linux" {
		if len(scan.ZeroTails) != 1 || scan.ZeroTails[0].Bytes == 0 {
			t.Errorf("ZeroTails = %+v, want the untrimmed preallocation", scan.ZeroTails)
		}
	}
	l2, err := Start(fb2, Options{Partitions: 2}, scan)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	appendN(t, l2, 1, 5, 6)
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	scan2, err := Scan(fb2)
	if err != nil {
		t.Fatalf("second Scan: %v", err)
	}
	if !scan2.Clean || scan2.Horizon[1] != 6 {
		t.Errorf("second generation: clean=%v horizons=%v, want true/[10 6]", scan2.Clean, scan2.Horizon)
	}
}
