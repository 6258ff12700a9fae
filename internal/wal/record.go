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
// u64 ledger ID followed by the coordinator's opaque encoded MoveState. A
// short or checksum-failing frame marks the end of valid data: on the active
// segment that is a torn tail from a crash mid-append and is truncated away;
// on any other segment it is corruption and refuses the journal.

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

// scanSegment reads a segment front to back, calling fn for each whole,
// checksum-passing record. It returns the byte offset of the end of valid
// data; err is non-nil if anything after that offset remains (torn tail or
// corruption — the caller decides which it is by the segment's position), or
// if fn failed.
//
// Every record is read into one buffer, over the last: r.payload is valid
// until fn returns. What a caller keeps of a record it copies — an apply's
// pieces where its object stores them (register.Retain), a move's state in
// noteRecord.
func scanSegment(path string, fn func(r record, frameLen int) error) (validLen int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var off int64
	header := make([]byte, frameHeader)
	var buf []byte
	for {
		if _, err := io.ReadFull(f, header); err != nil {
			if err == io.EOF {
				return off, nil
			}
			return off, fmt.Errorf("%w: short frame header at offset %d", ErrCorrupt, off)
		}
		bodyLen := binary.BigEndian.Uint32(header[:4])
		crc := binary.BigEndian.Uint32(header[4:8])
		if bodyLen > maxBody {
			return off, fmt.Errorf("%w: frame of %d bytes at offset %d", ErrCorrupt, bodyLen, off)
		}
		if int(bodyLen) > cap(buf) {
			buf = make([]byte, bodyLen)
		}
		body := buf[:bodyLen]
		if _, err := io.ReadFull(f, body); err != nil {
			return off, fmt.Errorf("%w: short frame body at offset %d", ErrCorrupt, off)
		}
		if crc32.ChecksumIEEE(body) != crc {
			return off, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		rec, err := decodeBody(body)
		if err != nil {
			return off, fmt.Errorf("%v at offset %d", err, off)
		}
		frameLen := frameHeader + int(bodyLen)
		if err := fn(rec, frameLen); err != nil {
			return off, err
		}
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
