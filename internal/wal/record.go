package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"

	"spacebounds/internal/dsys"
)

// Log file framing. Every record is one self-checking frame:
//
//	u32 len(body)
//	u32 crc32-IEEE(body)
//	body: u8 type | u64 seq | type-specific payload
//
// An apply record's payload is a dsys.Envelope (which carries the target
// object and the RMW's codec kind + parameters); a move record's payload is
// u64 ledger ID followed by the coordinator's opaque encoded MoveState.
//
// A segment is named by the first seq it may hold, and its records' seqs rise
// by one from there. A segment's file may be a recycled one (newSegmentLocked
// writes over the journal's spare from offset 0), so past the segment's own
// records its file can still hold an older generation's: whole records whose
// seq is below the segment's name, or frames cut mid-way that fail their
// checksum. The valid data therefore ends at the first frame that is short,
// fails its checksum, or holds a seq below the segment's name or not above the
// record before it. On the active segment whatever follows that end is a torn
// tail or a recycled file's old tail and is truncated away at Open; a frozen
// segment may end there only if its last seq is the one before the next
// segment's first; anywhere else the end is corruption and refuses the
// journal.

const (
	recApply = 1
	recMove  = 2

	frameHeader = 8 // len + crc
	bodyHeader  = 9 // type + seq

	// maxBody bounds a single record; a larger length prefix is treated as
	// corruption rather than an allocation request.
	maxBody = 1 << 28

	segmentPrefix  = "wal-"
	segmentSuffix  = ".log"
	snapshotPrefix = "snap-"
	snapshotSuffix = ".snap"
	tempSuffix     = ".tmp"
	// spareName is the journal's one spare segment file (see
	// newSegmentLocked). Open deletes it with every other .tmp file.
	spareName = segmentPrefix + "spare" + tempSuffix
)

// ErrCorrupt reports an unreadable record or snapshot outside the repairable
// torn-tail position.
var ErrCorrupt = errors.New("wal: corrupt record")

// record is one decoded log record.
type record struct {
	typ     byte
	seq     uint64
	object  int    // recApply: target base object (global ID)
	moveID  int    // recMove: ledger ID
	payload []byte // recApply: envelope bytes; recMove: encoded MoveState
}

// beginFrame starts a record's frame in buf's memory, growing it if it must:
// room for the frame header, then the body's type and sequence number. The
// caller appends the type-specific rest of the body and calls sealFrame.
func beginFrame(buf []byte, typ byte, seq uint64) []byte {
	b := append(buf[:0], make([]byte, frameHeader)...)
	b = append(b, typ)
	return binary.BigEndian.AppendUint64(b, seq)
}

// sealFrame fills in the header of a frame begun by beginFrame, now that its
// body is complete: the body's length and its checksum.
func sealFrame(frame []byte) {
	body := frame[frameHeader:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
}

// decodeBody parses a checksum-verified record body.
func decodeBody(body []byte) (record, error) {
	if len(body) < bodyHeader {
		return record{}, fmt.Errorf("%w: body of %d bytes", ErrCorrupt, len(body))
	}
	r := record{typ: body[0], seq: binary.BigEndian.Uint64(body[1:9])}
	rest := body[bodyHeader:]
	switch r.typ {
	case recApply:
		env, err := dsys.UnmarshalEnvelope(rest)
		if err != nil {
			return record{}, fmt.Errorf("%w: apply record: %v", ErrCorrupt, err)
		}
		r.object = env.Object
		r.payload = rest
	case recMove:
		if len(rest) < 8 {
			return record{}, fmt.Errorf("%w: move record of %d bytes", ErrCorrupt, len(rest))
		}
		r.moveID = int(int64(binary.BigEndian.Uint64(rest[:8])))
		r.payload = rest[8:]
	default:
		return record{}, fmt.Errorf("%w: record type %d", ErrCorrupt, r.typ)
	}
	return r, nil
}

// scanSegment reads the segment seg front to back, calling fn for each record
// of its valid data (see the framing comment above). It returns the byte
// offset of the end of valid data; err is non-nil if anything after that
// offset remains — a torn or old tail, or corruption: the caller decides which
// by the segment's position — or if fn failed. next is the first seq of the
// segment after seg, or 0 if seg is the active one: a frozen segment whose
// valid data ends before EOF at the record next-1 is whole (it was recycled,
// then frozen by a rotation before a snapshot replaced it), so that end is no
// error.
//
// Every record is read into one buffer, over the last: r.payload is valid
// until fn returns. What a caller keeps of a record it copies — an apply's
// pieces where its object stores them (register.Retain), a move's state in
// noteRecord.
func scanSegment(seg *segment, next uint64, fn func(r record, frameLen int) error) (validLen int64, err error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := info.Size()
	var off int64
	var last uint64 // seq of the record that ends at off, if off > 0
	stop := func(why error) (int64, error) {
		if next != 0 && off > 0 && last+1 == next {
			return off, nil
		}
		return off, fmt.Errorf("%w at offset %d", why, off)
	}
	header := make([]byte, frameHeader)
	var buf []byte
	for {
		if _, err := io.ReadFull(f, header); err != nil {
			if err == io.EOF {
				return off, nil
			}
			return stop(fmt.Errorf("%w: short frame header", ErrCorrupt))
		}
		bodyLen := binary.BigEndian.Uint32(header[:4])
		crc := binary.BigEndian.Uint32(header[4:8])
		if bodyLen > maxBody {
			return stop(fmt.Errorf("%w: frame of %d bytes", ErrCorrupt, bodyLen))
		}
		// A length the rest of the file cannot hold is a short frame, found
		// without allocating for it: an old tail's cut frames make such
		// lengths.
		if int64(bodyLen) > size-off-frameHeader {
			return stop(fmt.Errorf("%w: short frame body", ErrCorrupt))
		}
		if int(bodyLen) > cap(buf) {
			buf = make([]byte, bodyLen)
		}
		body := buf[:bodyLen]
		if _, err := io.ReadFull(f, body); err != nil {
			return stop(fmt.Errorf("%w: short frame body", ErrCorrupt))
		}
		if crc32.ChecksumIEEE(body) != crc {
			return stop(fmt.Errorf("%w: checksum mismatch", ErrCorrupt))
		}
		rec, err := decodeBody(body)
		if err != nil {
			return stop(err)
		}
		if rec.seq < seg.firstSeq || (off > 0 && rec.seq <= last) {
			return stop(fmt.Errorf("%w: record seq %d out of order in segment %016x", ErrCorrupt, rec.seq, seg.firstSeq))
		}
		frameLen := frameHeader + int(bodyLen)
		if err := fn(rec, frameLen); err != nil {
			return off, err
		}
		last = rec.seq
		off += int64(frameLen)
	}
}

func isSegmentName(name string) bool {
	return strings.HasPrefix(name, segmentPrefix) && strings.HasSuffix(name, segmentSuffix)
}

func isSnapshotName(name string) bool {
	return strings.HasPrefix(name, snapshotPrefix) && strings.HasSuffix(name, snapshotSuffix)
}

func isTempName(name string) bool { return strings.HasSuffix(name, tempSuffix) }

// parseSeqName extracts the 16-digit hex sequence number from a segment or
// snapshot file name.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(mid) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(mid, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
