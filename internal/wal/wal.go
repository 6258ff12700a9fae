// Package wal gives a node durable state: an append-only, CRC-framed
// write-ahead log of every mutating RMW the node applies, plus periodic
// snapshots that bound log length. A process that crashes at any point —
// mid-append, mid-snapshot, mid-truncation — reopens the directory and
// replays to a prefix-consistent state: the snapshot's per-object states plus
// exactly the logged suffix of applies, each applied once (records the
// snapshot already covers are deduplicated by per-object sequence number).
//
// The journal sits below the paper's model: Definition 2 charges the
// emulation's volatile code blocks, so log and snapshot bytes are accounted
// on the separate durable axis of the storage accountant, never in TotalBits.
//
// Layering: wal implements dsys.Journal (applied RMWs are reported from
// inside each object's apply critical section, so log order matches apply
// order per object) and reconfig.MoveJournal (ledger transitions arrive as
// opaque encoded records keyed by move ID; only the latest per ID matters).
// It imports dsys and register, never reconfig.
package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"spacebounds/internal/dsys"
	"spacebounds/internal/oracle"
	"spacebounds/internal/register"
	"spacebounds/internal/storagecost"
	"spacebounds/internal/trace"
)

// Config configures a journal.
type Config struct {
	// Dir is the journal directory (created if missing). One node per
	// directory.
	Dir string
	// SyncEvery batches fsyncs: the log is fsynced every SyncEvery appends.
	// 1 (the default) fsyncs every append — an acknowledged write is durable.
	// Larger values trade a bounded tail-loss window for throughput.
	SyncEvery int
	// SnapshotEvery triggers a background snapshot (and log truncation) every
	// SnapshotEvery appends. Default 4096.
	SnapshotEvery int
}

// ledgerID is the pseudo-object ID durable bytes not attributable to one
// base object are charged to: record framing for move-ledger records and
// snapshot file overhead.
const ledgerID = -1

const defaultSnapshotEvery = 4096

// segment is one log file: its path, the first sequence number it may
// contain, and its per-object byte footprint (frame bytes included; move
// records charge ledgerID).
type segment struct {
	path     string
	firstSeq uint64
	bytes    map[int]int64
}

// segmentFile is what the journal does to the active segment once it is open:
// *os.File in every build, and the seam through which tests make the disk
// fail (see export_test.go).
type segmentFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// maxKeptFrame caps the frame buffer the journal keeps between appends: a
// record that needed more is framed in a buffer of its own and the journal
// goes back to a small one, so one large value never pins its size for good.
const maxKeptFrame = 1 << 20

// Journal is one node's write-ahead log plus snapshot state. It is safe for
// concurrent use; appends serialize on an internal mutex that is always
// innermost (RecordApply runs under an object's apply lock).
type Journal struct {
	cfg Config

	// cl is the cluster replayed into / snapshotted from; set by Attach.
	cl *dsys.Cluster

	// jmu guards the append path and all accounting below. Lock order:
	// an object's apply lock (liveMu or the controlled-mode cluster lock)
	// may be held when jmu is taken, never the reverse.
	jmu          sync.Mutex
	f            segmentFile
	wrapFile     func(segmentFile) segmentFile // tests only; nil otherwise
	frame        []byte                        // the record being appended; reused, see maxKeptFrame
	w            register.WireWriter           // encodes an apply record into frame
	segments     []*segment                    // ascending firstSeq; last is the active file
	logTotal     int64                         // sum of every segment's bytes
	nextSeq      uint64
	lastSeq      map[int]uint64 // per object, seq of its latest log record
	moves        map[int][]byte // latest encoded move-ledger record per ID
	sinceSync    int
	sinceSnap    int
	snapFile     string
	snapBoundary map[int]uint64 // per object, last seq the snapshot covers
	snapBytes    map[int]int64  // per object, snapshot bytes (ledgerID: overhead)
	unknownRMWs  int            // mutating RMWs skipped for lack of a codec
	err          error          // first write error, latched
	closed       bool

	// failed mirrors err != nil for Refuses, which every apply calls and which
	// must not queue behind an append for jmu.
	failed atomic.Bool

	// snapMu serializes snapshots and whole-journal replays against each
	// other. It is outermost: never taken while holding jmu or a cluster
	// lock.
	snapMu sync.Mutex

	snapC chan struct{}
	stopC chan struct{}
	wg    sync.WaitGroup

	met atomic.Pointer[walMetrics]
	tr  *trace.Tracer // the attached cluster's (see Attach); nil before

	// traceTR/traceTC, meaningful only while jmu is held, carry the trace
	// context of the append in progress so syncLocked can parent the fsync
	// span it records under the append span (see RecordApplyTraced).
	traceTR *trace.Tracer
	traceTC trace.Context
}

// Open opens (or initializes) the journal directory, scanning snapshots and
// segments to rebuild accounting and truncating a torn tail on the active
// segment. It does not touch any cluster: call Replay to restore state, then
// Attach to start journaling new applies.
func Open(cfg Config) (*Journal, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("wal: empty directory")
	}
	if cfg.SyncEvery <= 1 {
		cfg.SyncEvery = 1
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = defaultSnapshotEvery
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %v", err)
	}
	j := &Journal{
		cfg:          cfg,
		nextSeq:      1,
		lastSeq:      make(map[int]uint64),
		moves:        make(map[int][]byte),
		snapBoundary: make(map[int]uint64),
		snapBytes:    make(map[int]int64),
		snapC:        make(chan struct{}, 1),
		stopC:        make(chan struct{}),
	}
	if err := j.load(); err != nil {
		return nil, err
	}
	return j, nil
}

// load scans the directory: adopt the newest valid snapshot, scan segments in
// order (rebuilding per-object accounting and truncating a torn tail on the
// last one), and open the active segment for append.
func (j *Journal) load() error {
	entries, err := os.ReadDir(j.cfg.Dir)
	if err != nil {
		return fmt.Errorf("wal: %v", err)
	}
	var segPaths, snapPaths []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case isTempName(name):
			// A crash mid-snapshot leaves a .tmp; it was never adopted.
			os.Remove(filepath.Join(j.cfg.Dir, name))
		case isSegmentName(name):
			segPaths = append(segPaths, name)
		case isSnapshotName(name):
			snapPaths = append(snapPaths, name)
		}
	}
	sort.Strings(segPaths) // fixed-width hex: lexicographic == numeric
	sort.Strings(snapPaths)

	// Adopt the newest snapshot that parses; older ones (a crash between
	// adopting a new snapshot and removing its predecessor) are removed.
	for i := len(snapPaths) - 1; i >= 0; i-- {
		path := filepath.Join(j.cfg.Dir, snapPaths[i])
		if j.snapFile == "" {
			snap, err := readSnapshotFile(path)
			if err == nil {
				j.snapFile = path
				for _, en := range snap.objects {
					j.snapBoundary[en.obj] = en.lastSeq
					j.snapBytes[en.obj] = en.size()
					if en.lastSeq >= j.nextSeq {
						j.nextSeq = en.lastSeq + 1
					}
				}
				j.snapBytes[ledgerID] = snap.overheadBytes
				for id, payload := range snap.moves {
					j.moves[id] = payload
				}
				if snap.rotSeq >= j.nextSeq {
					j.nextSeq = snap.rotSeq
				}
				continue
			}
			// The newest snapshot is unreadable (torn rename is impossible,
			// but disk corruption is not): fall back to the previous one —
			// the log segments it covered are still on disk.
		}
		os.Remove(path)
	}

	// Scan segments ascending. Only the last may have a torn tail (it was the
	// active file at crash time); corruption anywhere else is a hard error.
	for i, name := range segPaths {
		path := filepath.Join(j.cfg.Dir, name)
		first, ok := parseSeqName(name, segmentPrefix, segmentSuffix)
		if !ok {
			return fmt.Errorf("wal: bad segment name %q", name)
		}
		seg := &segment{path: path, firstSeq: first, bytes: make(map[int]int64)}
		last := i == len(segPaths)-1
		validLen, err := scanSegment(path, func(r record, frameLen int) error {
			j.noteRecord(seg, r, frameLen)
			return nil
		})
		if err != nil {
			if !last {
				return fmt.Errorf("wal: segment %s: %v", name, err)
			}
			// Torn tail on the active segment: everything past the last
			// whole, checksummed frame was never acknowledged as durable.
			if terr := os.Truncate(path, validLen); terr != nil {
				return fmt.Errorf("wal: truncating torn tail of %s: %v", name, terr)
			}
		}
		j.segments = append(j.segments, seg)
	}

	if len(j.segments) == 0 {
		if err := j.newSegmentLocked(); err != nil {
			return err
		}
		return nil
	}
	active := j.segments[len(j.segments)-1]
	f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %v", err)
	}
	j.f = f
	return nil
}

// noteRecord folds one scanned record into the accounting maps.
func (j *Journal) noteRecord(seg *segment, r record, frameLen int) {
	if r.seq >= j.nextSeq {
		j.nextSeq = r.seq + 1
	}
	switch r.typ {
	case recApply:
		seg.bytes[r.object] += int64(frameLen)
		j.logTotal += int64(frameLen)
		if r.seq > j.lastSeq[r.object] {
			j.lastSeq[r.object] = r.seq
		}
	case recMove:
		seg.bytes[ledgerID] += int64(frameLen)
		j.logTotal += int64(frameLen)
		j.moves[r.moveID] = append([]byte(nil), r.payload...)
	}
}

// newSegmentLocked creates and opens a fresh active segment starting at the
// current nextSeq. Caller holds jmu (or is initializing).
func (j *Journal) newSegmentLocked() error {
	name := fmt.Sprintf("%s%016x%s", segmentPrefix, j.nextSeq, segmentSuffix)
	path := filepath.Join(j.cfg.Dir, name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %v", err)
	}
	if err := syncDir(j.cfg.Dir); err != nil {
		f.Close()
		return err
	}
	j.f = f
	if j.wrapFile != nil {
		j.f = j.wrapFile(f)
	}
	j.segments = append(j.segments, &segment{path: path, firstSeq: j.nextSeq, bytes: make(map[int]int64)})
	return nil
}

// RecordApply implements dsys.Journal: journal one applied mutating RMW.
// Called under the object's apply lock, which is what makes the log order
// match the apply order per object. Read-only RMWs are skipped — they carry
// no state change to replay.
func (j *Journal) RecordApply(object int, rmw dsys.RMW) {
	j.recordApply(object, rmw, nil, trace.Context{})
}

// recordApply journals one applied RMW; with a tracer, under a StageWALAppend
// span parented at tc. There is nothing to journal when the RMW has no codec
// (counted) or its kind is read-only. An RMW that offers a trimmed form of
// itself (dsys.JournalTrimmer) is journaled as that: Apply has just run under
// the lock the caller still holds, so the RMW knows which of its parameters
// the transition read, and replay starts from the same state. The codec still
// encodes exactly the RMW it is handed.
func (j *Journal) recordApply(object int, rmw dsys.RMW, tr *trace.Tracer, tc trace.Context) {
	c, ok := register.CodecOf(rmw)
	if !ok {
		j.jmu.Lock()
		j.unknownRMWs++
		j.jmu.Unlock()
		return
	}
	if c.ReadOnly {
		return
	}
	if t, ok := rmw.(dsys.JournalTrimmer); ok {
		rmw = t.JournalForm()
	}
	m := j.met.Load()
	start := m.now()
	var sp trace.Pending
	if tr != nil {
		sp = tr.Start(tc, trace.StageWALAppend)
	}
	j.jmu.Lock()
	if tr != nil {
		j.traceTR, j.traceTC = tr, sp.Context()
	}
	j.appendApplyLocked(object, c, rmw)
	j.traceTR, j.traceTC = nil, trace.Context{}
	j.jmu.Unlock()
	sp.Done()
	if m != nil {
		m.appendSec.ObserveSince(start)
		m.appends.Inc()
	}
}

// RecordMove implements reconfig.MoveJournal: journal one move-ledger
// transition. The coordinator re-records the full entry on every transition,
// so only the latest record per ID is live; older ones fall away at the next
// snapshot.
func (j *Journal) RecordMove(id int, encoded []byte) {
	m := j.met.Load()
	start := m.now()
	j.jmu.Lock()
	j.moves[id] = append([]byte(nil), encoded...)
	if j.writable() {
		b := binary.BigEndian.AppendUint64(beginFrame(j.frame, recMove, j.nextSeq), uint64(id))
		j.writeFrameLocked(append(b, encoded...), ledgerID)
	}
	j.jmu.Unlock()
	if m != nil {
		m.appendSec.ObserveSince(start)
		m.appends.Inc()
	}
}

// appendApplyLocked frames and writes one apply record: the RMW, whose codec
// is c, is encoded straight into the journal's frame buffer as the envelope
// replay decodes — no payload in between. Caller holds jmu.
func (j *Journal) appendApplyLocked(object int, c register.Codec, rmw dsys.RMW) {
	if !j.writable() {
		return
	}
	_, total, err := c.RequestSize(&j.w, rmw)
	if err == nil {
		j.w.Reset(beginFrame(j.frame, recApply, j.nextSeq), false)
		err = register.WriteEnvelope(&j.w, dsys.Envelope{Object: object}, c, rmw, total)
	}
	if err != nil {
		j.failLocked(fmt.Errorf("wal: append: %v", err))
		return
	}
	j.writeFrameLocked(j.w.Finish(), object)
	j.w.Reset(nil, false) // the frame buffer is writeFrameLocked's to keep or drop
}

// writable reports whether appends still reach the disk. Errors latch: the
// journal keeps accepting calls but writes nothing more, Err reports the first
// failure and Refuses turns it into refused applies. Caller holds jmu.
func (j *Journal) writable() bool { return j.err == nil && !j.closed }

// writeFrameLocked finishes the frame begun at the journal's next sequence
// number — b, built in the journal's frame buffer by one pass over the
// record — and hands it to the active segment in one Write, then charges its
// bytes to chargeTo (a base object, or ledgerID for a move record) and — per
// the sync policy — fsyncs. Caller holds jmu and has checked writable.
func (j *Journal) writeFrameLocked(b []byte, chargeTo int) {
	seq := j.nextSeq
	j.nextSeq++
	sealFrame(b)
	_, err := j.f.Write(b)
	if cap(b) <= maxKeptFrame {
		j.frame = b[:0]
	} else {
		j.frame = nil
	}
	if err != nil {
		j.failLocked(fmt.Errorf("wal: append: %v", err))
		return
	}
	seg := j.segments[len(j.segments)-1]
	seg.bytes[chargeTo] += int64(len(b))
	j.logTotal += int64(len(b))
	if chargeTo != ledgerID {
		j.lastSeq[chargeTo] = seq
	}
	if m := j.met.Load(); m != nil {
		m.logBytes.Set(j.logTotal)
	}
	j.sinceSync++
	if j.sinceSync >= j.cfg.SyncEvery {
		j.syncLocked()
	}
	j.sinceSnap++
	if j.sinceSnap >= j.cfg.SnapshotEvery {
		j.sinceSnap = 0
		select {
		case j.snapC <- struct{}{}:
		default:
		}
	}
}

// syncLocked fsyncs the active segment. Caller holds jmu. When the append in
// progress carries a trace context (traceTR set by RecordApplyTraced), the
// fsync records a StageWALFsync span under the append span — the fsync is
// charged to whichever traced append tripped the sync policy, even though it
// covers every append batched since the last sync.
func (j *Journal) syncLocked() {
	if j.err != nil || j.closed || j.sinceSync == 0 {
		return
	}
	m := j.met.Load()
	start := m.now()
	var fsp trace.Pending
	if j.traceTR != nil {
		fsp = j.traceTR.Start(j.traceTC, trace.StageWALFsync)
	}
	if err := j.f.Sync(); err != nil {
		j.failLocked(fmt.Errorf("wal: fsync: %v", err))
		return
	}
	fsp.Done()
	j.sinceSync = 0
	if m != nil {
		m.fsyncSec.ObserveSince(start)
		m.fsyncs.Inc()
	}
}

// Sync forces an fsync of the active segment (a no-op if nothing is
// unsynced).
func (j *Journal) Sync() error {
	j.jmu.Lock()
	defer j.jmu.Unlock()
	j.syncLocked()
	return j.err
}

// latch records the journal's first error.
func (j *Journal) latch(err error) {
	j.jmu.Lock()
	j.failLocked(err)
	j.jmu.Unlock()
}

// failLocked is latch for a caller that holds jmu.
func (j *Journal) failLocked(err error) {
	if j.err == nil {
		j.err = err
		j.failed.Store(true)
	}
}

// Err returns the journal's first error, if any. From then on nothing more is
// written and the node is fail-stop for durability: see Refuses.
func (j *Journal) Err() error {
	j.jmu.Lock()
	defer j.jmu.Unlock()
	return j.err
}

var _ dsys.Journal = (*Journal)(nil)

// Refuses implements dsys.Journal: once an error has latched, every
// RMW the journal would have had to record is refused with it, so the node
// stops acknowledging what it cannot make durable. Read-only kinds, which are
// never recorded, are not refused: the node's reads keep working.
func (j *Journal) Refuses(rmw dsys.RMW) error {
	if !j.failed.Load() {
		return nil
	}
	if kind, ok := register.KindOf(rmw); ok && register.KindReadOnly(kind) {
		return nil
	}
	return j.Err()
}

// Attach connects the journal to a cluster: new applies are journaled from
// here on — sampled ones traced with the cluster's tracer — and the
// background snapshotter starts. Call after Replay.
func (j *Journal) Attach(c *dsys.Cluster) {
	j.cl = c
	j.tr = c.Tracer()
	c.SetJournal(j)
	j.wg.Add(1)
	go j.snapshotLoop()
}

// Close stops the snapshotter, flushes and fsyncs the log, and closes the
// active segment. Call after the cluster has quiesced (no in-flight applies:
// the facade closes its shard set first).
func (j *Journal) Close() error {
	select {
	case <-j.stopC:
	default:
		close(j.stopC)
	}
	j.wg.Wait()
	j.jmu.Lock()
	defer j.jmu.Unlock()
	if j.closed {
		return j.err
	}
	j.syncLocked()
	j.closed = true
	if j.f != nil {
		if err := j.f.Close(); err != nil {
			j.failLocked(fmt.Errorf("wal: close: %v", err))
		}
	}
	return j.err
}

// snapBytesLocked sums snapshot bytes. Caller holds jmu.
func (j *Journal) snapBytesLocked() int64 {
	var total int64
	for _, b := range j.snapBytes {
		total += b
	}
	return total
}

// LogBytes returns the journal's current log footprint in bytes.
func (j *Journal) LogBytes() int64 {
	j.jmu.Lock()
	defer j.jmu.Unlock()
	return j.logTotal
}

// SnapshotBytes returns the journal's current snapshot footprint in bytes.
func (j *Journal) SnapshotBytes() int64 {
	j.jmu.Lock()
	defer j.jmu.Unlock()
	return j.snapBytesLocked()
}

// DurableBlocks implements dsys.Journal: the on-disk footprint, one block per
// (axis, object). Framing and ledger bytes are charged to the ledgerID
// pseudo-object, so the per-object and total sums stay summation-exact.
func (j *Journal) DurableBlocks() []storagecost.BlockInfo {
	j.jmu.Lock()
	defer j.jmu.Unlock()
	var out []storagecost.BlockInfo
	logPer := make(map[int]int64)
	for _, seg := range j.segments {
		for obj, b := range seg.bytes {
			logPer[obj] += b
		}
	}
	for obj, b := range logPer {
		if b == 0 {
			continue
		}
		out = append(out, storagecost.BlockInfo{
			Location: storagecost.Location{Kind: storagecost.DurableLog, ID: obj},
			Source:   oracle.SourceTag{},
			Bits:     int(b) * 8,
		})
	}
	for obj, b := range j.snapBytes {
		if b == 0 {
			continue
		}
		out = append(out, storagecost.BlockInfo{
			Location: storagecost.Location{Kind: storagecost.DurableSnapshot, ID: obj},
			Source:   oracle.SourceTag{},
			Bits:     int(b) * 8,
		})
	}
	return out
}

// MoveRecord is one journaled move-ledger entry: the move's ID and its
// latest encoded MoveState (opaque to this package).
type MoveRecord struct {
	ID      int
	Payload []byte
}

// Moves returns the latest journaled record per move, in ID order. The
// facade decodes these and hands them to the reconfiguration coordinator's
// ledger restore.
func (j *Journal) Moves() []MoveRecord {
	j.jmu.Lock()
	defer j.jmu.Unlock()
	ids := make([]int, 0, len(j.moves))
	for id := range j.moves {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]MoveRecord, 0, len(ids))
	for _, id := range ids {
		out = append(out, MoveRecord{ID: id, Payload: append([]byte(nil), j.moves[id]...)})
	}
	return out
}

// Covered reports whether the journal holds any durable state for the object
// (a snapshot entry or at least one log record). A node restarting from this
// journal can serve the object's reads from replay alone iff Covered.
func (j *Journal) Covered(object int) bool {
	j.jmu.Lock()
	defer j.jmu.Unlock()
	if _, ok := j.snapBoundary[object]; ok {
		return true
	}
	_, ok := j.lastSeq[object]
	return ok
}

// syncDir fsyncs a directory so a just-created or renamed file's directory
// entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %v", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %v", err)
	}
	return nil
}
