package wal

import (
	"errors"
	"fmt"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
)

// ReplayStats summarizes one recovery replay.
type ReplayStats struct {
	// SnapshotObjects counts object states restored from the snapshot.
	SnapshotObjects int
	// Records counts log records scanned.
	Records int
	// Applied counts apply records replayed onto object states.
	Applied int
	// Skipped counts records already covered by the snapshot (dedup) or
	// addressed to retired objects.
	Skipped int
	// Unknown counts records and snapshot entries for objects the cluster
	// does not have (a layout smaller than the journaled one).
	Unknown int
	// Moves counts journaled move-ledger records carried (latest per ID).
	Moves int
}

// String renders the one-line replay summary operators grep for.
func (s ReplayStats) String() string {
	return fmt.Sprintf("snapshot_objects=%d records=%d applied=%d skipped=%d unknown=%d moves=%d",
		s.SnapshotObjects, s.Records, s.Applied, s.Skipped, s.Unknown, s.Moves)
}

// Replay restores the whole journal into a freshly built cluster: snapshot
// states first, then every logged apply the snapshot does not already cover,
// in log order, deduplicated by per-object sequence number. Call before
// Attach and before the cluster serves any traffic. Replaying the same
// journal into the same fresh cluster twice yields the same states — replay
// is idempotent from a fixed starting point, which is what crash-during-
// recovery needs (recovery that crashes restarts from the unchanged log).
func (j *Journal) Replay(c *dsys.Cluster) (ReplayStats, error) {
	m := j.met.Load()
	start := time.Now()
	j.snapMu.Lock()
	defer j.snapMu.Unlock()
	var stats ReplayStats

	j.jmu.Lock()
	snapFile := j.snapFile
	boundary := make(map[int]uint64, len(j.snapBoundary))
	for obj, seq := range j.snapBoundary {
		boundary[obj] = seq
	}
	segs := append([]*segment(nil), j.segments...)
	stats.Moves = len(j.moves)
	j.jmu.Unlock()

	if snapFile != "" {
		snap, err := readSnapshotFile(snapFile)
		if err != nil {
			return stats, fmt.Errorf("wal: replay: %v", err)
		}
		for _, en := range snap.objects {
			st, err := register.DecodeState(en.kind, en.state)
			if err != nil {
				return stats, fmt.Errorf("wal: replay object %d: %v", en.obj, err)
			}
			switch err := c.RestoreObjectState(en.obj, st); {
			case err == nil:
				stats.SnapshotObjects++
			case errors.Is(err, dsys.ErrUnknownObject):
				stats.Unknown++
			case errors.Is(err, dsys.ErrRetiredObject):
				stats.Skipped++
			default:
				return stats, fmt.Errorf("wal: replay object %d: %v", en.obj, err)
			}
		}
	}

	for i, seg := range segs {
		if err := j.replaySegment(c, seg, nextFirst(segs, i), allObjects, boundary, &stats); err != nil {
			return stats, err
		}
	}
	if m != nil {
		m.replaySec.ObserveSince(start)
		m.replayed.Add(int64(stats.Records))
	}
	return stats, nil
}

// nextFirst is the next argument scanSegment takes for segs[i]: the first seq
// of the segment after it, or 0 for the active one.
func nextFirst(segs []*segment, i int) uint64 {
	if i == len(segs)-1 {
		return 0
	}
	return segs[i+1].firstSeq
}

// allObjects is replaySegment's object filter for a whole-journal replay.
const allObjects = -1

// replaySegment scans one segment and applies its apply records with
// seq > boundary[object], only object's unless object is allObjects. next is
// scanSegment's: 0 for the active segment, whose scan errors mean a torn tail
// and end the segment cleanly; on any other segment they are corruption. The
// tail is torn at Open for the crash-recovery path, but a live replay may
// race fresh appends — a one-object replay's by other, live objects, after
// everything of the crashed object was fsynced, so stopping at the first torn
// frame loses nothing of it. A whole-journal replay counts records for
// objects the cluster no longer has or has retired; a one-object replay
// fails on them.
func (j *Journal) replaySegment(c *dsys.Cluster, seg *segment, next uint64, object int, boundary map[int]uint64, stats *ReplayStats) error {
	_, err := scanSegment(seg, next, func(r record, frameLen int) error {
		if r.typ != recApply || (object != allObjects && r.object != object) {
			return nil
		}
		stats.Records++
		if r.seq <= boundary[r.object] {
			stats.Skipped++
			return nil
		}
		env, err := dsys.UnmarshalEnvelope(r.payload)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		rmw, _, err := register.DecodeRMW(env)
		if err != nil {
			return fmt.Errorf("wal: replay: %v", err)
		}
		switch _, err := c.ReplayApply(r.object, rmw); {
		case err == nil:
			stats.Applied++
		case object != allObjects:
			return err
		case errors.Is(err, dsys.ErrUnknownObject):
			stats.Unknown++
		case errors.Is(err, dsys.ErrRetiredObject):
			stats.Skipped++
		default:
			return err
		}
		return nil
	})
	if err != nil && !(next == 0 && errors.Is(err, ErrCorrupt)) {
		return fmt.Errorf("wal: replay %s: %w", seg.path, err)
	}
	return nil
}

// ReplayObject rebuilds one object from disk while it is crashed: the given
// fresh (initial) state is installed, the snapshot's state for the object —
// if any — is restored over it, and the object's logged suffix is applied on
// top. This is the live-restart path: the in-memory state is deliberately
// discarded and rebuilt from durable data alone, so a restart in a
// long-running process exercises exactly what a process restart would.
// The object must be crashed (no concurrent applies) and the journal
// attached; the log is fsynced first so the scan sees every acknowledged
// record.
func (j *Journal) ReplayObject(c *dsys.Cluster, object int, fresh dsys.State) (ReplayStats, error) {
	m := j.met.Load()
	start := time.Now()
	j.snapMu.Lock()
	defer j.snapMu.Unlock()
	var stats ReplayStats

	j.jmu.Lock()
	j.syncLocked()
	err := j.err
	snapFile := j.snapFile
	boundary := j.snapBoundary[object]
	segs := append([]*segment(nil), j.segments...)
	j.jmu.Unlock()
	if err != nil {
		return stats, err
	}

	restored := false
	if snapFile != "" {
		snap, err := readSnapshotFile(snapFile)
		if err != nil {
			return stats, fmt.Errorf("wal: replay: %v", err)
		}
		for _, en := range snap.objects {
			if en.obj != object {
				continue
			}
			st, err := register.DecodeState(en.kind, en.state)
			if err != nil {
				return stats, fmt.Errorf("wal: replay object %d: %v", object, err)
			}
			if err := c.RestoreObjectState(object, st); err != nil {
				return stats, err
			}
			stats.SnapshotObjects++
			restored = true
			break
		}
	}
	if !restored {
		if err := c.RestoreObjectState(object, fresh); err != nil {
			return stats, err
		}
	}

	only := map[int]uint64{object: boundary}
	for i, seg := range segs {
		if err := j.replaySegment(c, seg, nextFirst(segs, i), object, only, &stats); err != nil {
			return stats, err
		}
	}
	if m != nil {
		m.replaySec.ObserveSince(start)
		m.replayed.Add(int64(stats.Records))
	}
	return stats, nil
}
