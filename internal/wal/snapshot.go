package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
)

// Snapshot file layout (big-endian, one trailing CRC over everything before
// it):
//
//	u8  version
//	u64 rotSeq — the log rotation point this snapshot was taken at
//	u32 nObjects, then per object:
//	    u64 object | u64 lastSeq | u16 len(kind) kind | u32 len(state) state
//	u32 nMoves, then per move:
//	    u64 id | u32 len(payload) payload
//	u32 crc32-IEEE of all preceding bytes
//
// A snapshot is written to a .tmp file, fsynced, renamed into place, and the
// directory fsynced — it exists atomically or not at all. The snapshot
// ordering invariant is rotate-first: the active segment is rotated *before*
// object states are read, so every record in pre-rotation segments is
// reflected in the snapshot's states (the journal records an apply from
// inside the same critical section that mutates the state) and those
// segments can be deleted — or, the newest, recycled — afterwards.

const snapshotVersion = 1

type snapObject struct {
	obj     int
	lastSeq uint64
	kind    string
	state   []byte
}

// size is the object's byte footprint inside the snapshot file, for the
// durable-axis accounting.
func (e snapObject) size() int64 { return int64(8 + 8 + 2 + len(e.kind) + 4 + len(e.state)) }

type snapFileData struct {
	rotSeq        uint64
	objects       []snapObject
	moves         map[int][]byte
	overheadBytes int64 // header + move records + trailer (charged to ledgerID)
}

func encodeSnapshotFile(s snapFileData) []byte {
	b := []byte{snapshotVersion}
	b = binary.BigEndian.AppendUint64(b, s.rotSeq)
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.objects)))
	for _, en := range s.objects {
		b = binary.BigEndian.AppendUint64(b, uint64(en.obj))
		b = binary.BigEndian.AppendUint64(b, en.lastSeq)
		b = binary.BigEndian.AppendUint16(b, uint16(len(en.kind)))
		b = append(b, en.kind...)
		b = binary.BigEndian.AppendUint32(b, uint32(len(en.state)))
		b = append(b, en.state...)
	}
	ids := make([]int, 0, len(s.moves))
	for id := range s.moves {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	b = binary.BigEndian.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		b = binary.BigEndian.AppendUint64(b, uint64(id))
		b = binary.BigEndian.AppendUint32(b, uint32(len(s.moves[id])))
		b = append(b, s.moves[id]...)
	}
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func readSnapshotFile(path string) (snapFileData, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return snapFileData{}, err
	}
	if len(raw) < 4 {
		return snapFileData{}, fmt.Errorf("%w: snapshot of %d bytes", ErrCorrupt, len(raw))
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return snapFileData{}, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	cur := snapCursor{b: body}
	if v := cur.u8(); v != snapshotVersion {
		return snapFileData{}, fmt.Errorf("%w: snapshot version %d", ErrCorrupt, v)
	}
	s := snapFileData{rotSeq: cur.u64(), moves: make(map[int][]byte)}
	nObjects := cur.u32()
	if uint64(nObjects)*18 > uint64(len(body)) {
		return snapFileData{}, fmt.Errorf("%w: snapshot object count %d", ErrCorrupt, nObjects)
	}
	for i := uint32(0); i < nObjects && cur.err == nil; i++ {
		en := snapObject{
			obj:     int(int64(cur.u64())),
			lastSeq: cur.u64(),
		}
		en.kind = string(cur.take(int(cur.u16())))
		en.state = append([]byte(nil), cur.take(int(cur.u32()))...)
		s.objects = append(s.objects, en)
	}
	nMoves := cur.u32()
	if uint64(nMoves)*12 > uint64(len(body)) {
		return snapFileData{}, fmt.Errorf("%w: snapshot move count %d", ErrCorrupt, nMoves)
	}
	for i := uint32(0); i < nMoves && cur.err == nil; i++ {
		id := int(int64(cur.u64()))
		s.moves[id] = append([]byte(nil), cur.take(int(cur.u32()))...)
	}
	if cur.err != nil {
		return snapFileData{}, cur.err
	}
	if cur.off != len(body) {
		return snapFileData{}, fmt.Errorf("%w: %d trailing snapshot bytes", ErrCorrupt, len(body)-cur.off)
	}
	var objBytes int64
	for _, en := range s.objects {
		objBytes += en.size()
	}
	// Everything that is not a per-object entry — header, move records,
	// trailer — is charged to the ledger pseudo-object.
	s.overheadBytes = int64(len(raw)) - objBytes
	return s, nil
}

// snapCursor is a bounds-checked reader over the snapshot body.
type snapCursor struct {
	b   []byte
	off int
	err error
}

func (c *snapCursor) take(n int) []byte {
	if c.err != nil || n < 0 || c.off+n > len(c.b) {
		if c.err == nil {
			c.err = fmt.Errorf("%w: truncated snapshot at offset %d", ErrCorrupt, c.off)
		}
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

func (c *snapCursor) u8() byte {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *snapCursor) u16() uint16 {
	b := c.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (c *snapCursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (c *snapCursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// snapshotLoop is the background snapshotter: it wakes every SnapshotEvery
// appends and on Close.
func (j *Journal) snapshotLoop() {
	defer j.wg.Done()
	for {
		select {
		case <-j.stopC:
			return
		case <-j.snapC:
			if err := j.snapshotOnce(); err != nil {
				j.latch(err)
			}
		}
	}
}

// Snapshot forces a snapshot and log truncation now. The journal must be
// attached to a cluster.
func (j *Journal) Snapshot() error {
	return j.snapshotOnce()
}

// snapshotOnce takes one snapshot. Phases, with their locks:
//
//  1. Under jmu: fsync and rotate the log, copy the move map and the list of
//     now-frozen segments. Every record in those segments has seq < rotSeq.
//     An empty active segment is not rotated, only the ones before it frozen.
//  2. No jmu: read each covered object's state under its apply lock (via
//     dsys.ReadObjectState; the callback briefly takes jmu for the object's
//     lastSeq — apply-lock→jmu is the normal append order). Rotation
//     happened first, so each state reflects at least every pre-rotation
//     record of that object.
//  3. Write the snapshot file atomically (.tmp, fsync, rename, dir fsync).
//  4. Under jmu: adopt the snapshot. Then keep the newest frozen segment's
//     file as the spare (newSegmentLocked), and delete the other frozen
//     segments and the previous snapshot file.
//
// A crash between any two phases recovers cleanly: the old snapshot and all
// segments are still complete until the rename, and after it the frozen
// segments are redundant (replay deduplicates by per-object sequence). A
// spare is a .tmp file, which Open deletes.
func (j *Journal) snapshotOnce() error {
	j.snapMu.Lock()
	defer j.snapMu.Unlock()
	cl := j.cl
	if cl == nil {
		return fmt.Errorf("wal: snapshot before Attach")
	}

	// Phase 1: rotate.
	j.jmu.Lock()
	if j.err != nil || j.closed {
		err := j.err
		j.jmu.Unlock()
		return err
	}
	active := j.segments[len(j.segments)-1]
	if len(j.segments) == 1 && len(active.bytes) == 0 {
		// Nothing appended since the last rotation: the existing snapshot
		// (if any) is already current.
		j.jmu.Unlock()
		return nil
	}
	j.syncLocked()
	rotSeq := j.nextSeq
	frozen := append([]*segment(nil), j.segments[:len(j.segments)-1]...)
	if len(active.bytes) > 0 {
		if err := j.f.Close(); err != nil {
			j.jmu.Unlock()
			return fmt.Errorf("wal: rotate: %v", err)
		}
		frozen = append(frozen, active)
		if err := j.newSegmentLocked(); err != nil {
			j.jmu.Unlock()
			return err
		}
	}
	// An empty active segment stays: rotating would collide with its name,
	// which is nextSeq. Only a crash between a rotation and the adoption of
	// its snapshot leaves segments before one.
	j.segments = j.segments[len(j.segments)-1:] // keep only the active one,
	j.logTotal = 0                              // which is empty
	moves := make(map[int][]byte, len(j.moves))
	for id, p := range j.moves {
		moves[id] = append([]byte(nil), p...)
	}
	covered := make(map[int]bool, len(j.lastSeq)+len(j.snapBoundary))
	for obj := range j.lastSeq {
		covered[obj] = true
	}
	for obj := range j.snapBoundary {
		covered[obj] = true
	}
	oldSnap := j.snapFile
	j.jmu.Unlock()

	// Phase 2: collect states.
	objs := make([]int, 0, len(covered))
	for obj := range covered {
		objs = append(objs, obj)
	}
	sort.Ints(objs)
	data := snapFileData{rotSeq: rotSeq, moves: moves}
	var encErr error
	for _, obj := range objs {
		en := snapObject{obj: obj}
		err := cl.ReadObjectState(obj, func(s dsys.State) {
			en.kind, en.state, encErr = register.EncodeState(s)
			j.jmu.Lock()
			en.lastSeq = j.lastSeq[obj]
			j.jmu.Unlock()
		})
		if err != nil {
			// Unknown or retired: the object no longer exists, so its durable
			// state is dropped with the frozen segments.
			continue
		}
		if encErr != nil {
			return fmt.Errorf("wal: snapshot object %d: %v", obj, encErr)
		}
		data.objects = append(data.objects, en)
	}

	// Phase 3: write atomically.
	name := fmt.Sprintf("%s%016x%s", snapshotPrefix, rotSeq, snapshotSuffix)
	path := filepath.Join(j.cfg.Dir, name)
	raw := encodeSnapshotFile(data)
	tmp := path + tempSuffix
	if err := writeFileSync(tmp, raw); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: snapshot rename: %v", err)
	}
	if err := syncDir(j.cfg.Dir); err != nil {
		return err
	}

	// Phase 4: adopt, then discard what it replaced.
	var objBytes int64
	j.jmu.Lock()
	j.snapFile = path
	j.snapBoundary = make(map[int]uint64, len(data.objects))
	j.snapBytes = make(map[int]int64, len(data.objects)+1)
	for _, en := range data.objects {
		j.snapBoundary[en.obj] = en.lastSeq
		j.snapBytes[en.obj] = en.size()
		objBytes += en.size()
	}
	// Header, move records, and trailer are charged to the ledger
	// pseudo-object — the same split readSnapshotFile reconstructs.
	j.snapBytes[ledgerID] = int64(len(raw)) - objBytes
	m := j.met.Load()
	if m != nil {
		m.logBytes.Set(j.logTotal)
		m.snapBytes.Set(j.snapBytesLocked())
	}
	j.jmu.Unlock()
	if m != nil {
		m.snapshots.Inc()
	}
	// The newest frozen segment's file becomes the spare the next rotation
	// writes over. The older ones go, oldest first, so that a crash partway
	// leaves the ones still listed a chain Open accepts (scanSegment).
	for i, seg := range frozen {
		if i == len(frozen)-1 && os.Rename(seg.path, filepath.Join(j.cfg.Dir, spareName)) == nil {
			j.spare = true
			continue
		}
		os.Remove(seg.path)
	}
	if oldSnap != "" && oldSnap != path {
		os.Remove(oldSnap)
	}
	return nil
}

// writeFileSync writes data to path and fsyncs it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %v", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: %v", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %v", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %v", err)
	}
	return nil
}
