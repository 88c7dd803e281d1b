package journal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"unsafe"

	"repro/internal/faultfs"
	"repro/internal/meta"
)

// replayState is the result of reading a journal directory.
type replayState struct {
	db      *meta.DB
	lastLSN int64 // newest record applied or covered by the snapshot
	snapLSN int64 // LSN the loaded snapshot covers (0 when none)
	hdrTerm int64 // newest segment-header term seen; headers must never regress

	// tail is the first LSN of the newest segment (0 when there is none) and
	// tailNext the LSN its records continue at — not lastLSN+1 when a
	// snapshot installed by BootstrapSnapshot is ahead of it.
	tail, tailNext int64

	win frameWindow // the one read buffer every segment goes through
}

// Replay restores a database from a journal directory without modifying
// it: the newest snapshot is loaded and the record tail applied, but a
// torn final record is merely ignored, never truncated away on disk, and
// no writer state is created.  It is the read-only inspection path (dquery
// -journal) and is safe to run against the directory of a live server —
// the result is simply the state as of the last committed record.
func Replay(dir string, shards int) (*meta.DB, int64, error) {
	return ReplayUpTo(dir, shards, math.MaxInt64)
}

// ReplayUpTo is Replay bounded at a journal position: records with LSN
// beyond upTo are not applied, so the result is the database exactly as
// it stood at that LSN — the ground truth the MVCC property tests compare
// ReadViewAt(lsn) against.  The newest snapshot at or below upTo seeds
// the replay; when every snapshot is newer, the history below upTo has
// been compacted away and the call fails.
func ReplayUpTo(dir string, shards int, upTo int64) (*meta.DB, int64, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		st, err := replayFS(faultfs.OS, dir, shards, false, upTo)
		if err == nil {
			return st.db, st.lastLSN, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, 0, err
		}
		// A live writer's compaction deleted a file between our directory
		// listing and the read; the fresh listing is consistent again.
		lastErr = err
	}
	return nil, 0, lastErr
}

// replayFS reads dir through vfs.  With repair set, a torn final record is
// truncated off the last segment and leftover temporary snapshot files are
// removed, so a Writer can resume appending at a clean tail.  Records
// beyond upTo are scanned (the continuity checks still run) but not
// applied.  A file of an older format version fails it before any snapshot
// or segment is changed: each is read before anything after it is.
func replayFS(vfs faultfs.FS, dir string, shards int, repair bool, upTo int64) (replayState, error) {
	if shards <= 0 {
		shards = meta.DefaultShards
	}
	segs, snaps, temps, err := list(vfs, dir)
	if err != nil {
		return replayState{}, fmt.Errorf("journal: %w", err)
	}
	if repair {
		// A crash mid-snapshot leaves its temporary file behind; it was
		// never renamed into place, so it holds nothing recovery wants.
		for _, name := range temps {
			vfs.Remove(filepath.Join(dir, name))
		}
	}

	// Load the newest snapshot — for a bounded replay, the newest at or
	// below the bound; when none qualifies the replay starts from empty, and
	// the segment continuity check below fails loudly if the history below
	// the bound has already been compacted away.  Snapshots are written to a
	// temporary file and renamed, so a crash cannot leave a torn one under a
	// valid name; if the newest still fails to load, that is disk corruption
	// — fail loudly rather than silently fall back to an older snapshot whose
	// covering segments compaction may already have deleted.
	var st replayState
	snap := -1
	for i, lsn := range snaps {
		if lsn <= upTo {
			snap = i
		}
	}
	if snap < 0 {
		st.db = meta.NewDBWithShards(shards)
	} else {
		st.snapLSN = snaps[snap]
		name := snapshotName(st.snapLSN)
		f, err := vfs.Open(filepath.Join(dir, name))
		if err != nil {
			return replayState{}, fmt.Errorf("journal: %w", err)
		}
		db, err := st.win.readSnapshot(f, st.snapLSN, shards)
		f.Close()
		if err != nil {
			return replayState{}, fmt.Errorf("journal: snapshot %s: %w", name, err)
		}
		st.db = db
		st.lastLSN = st.snapLSN
	}

	// next tracks the LSN the record stream must continue at, across
	// segment boundaries: a gap means a lost or deleted segment, and the
	// surviving records must not be replayed onto a state that is missing
	// the middle of its history.
	next := int64(-1)
	for i, start := range segs {
		last := i == len(segs)-1
		if !last && segs[i+1] <= st.snapLSN+1 {
			// Every record this segment can hold is older than the next
			// segment's first, hence covered by the snapshot.
			continue
		}
		switch {
		case next == -1:
			if start > st.snapLSN+1 {
				return replayState{}, fmt.Errorf(
					"journal: gap between snapshot lsn %d and first segment %s",
					st.snapLSN, segmentName(start))
			}
		case start != next:
			return replayState{}, fmt.Errorf(
				"journal: gap in record stream: segment %s starts at lsn %d, want %d",
				segmentName(start), start, next)
		}
		n, err := replaySegment(vfs, &st, filepath.Join(dir, segmentName(start)), start, last, repair, upTo)
		if err != nil {
			return replayState{}, err
		}
		next = n
		st.tail, st.tailNext = start, n
	}
	// The snapshot may have advanced the state without individual record
	// applies; keep the applied-LSN marker in step with what the database
	// actually reflects, and make that position the version horizon: no
	// view may pin below what was recovered.
	st.db.SealVersions(st.lastLSN)
	return st, nil
}

// replaySegment applies one segment's records with LSN beyond the loaded
// snapshot and returns the LSN the stream continues at in the next
// segment.  On the last segment a torn tail stops the replay (and, with
// repair, is truncated off the file); anywhere else it is corruption.
//
// The segment is read through st.win, a window at a time.  Every frame has
// its length, its CRC-32C and its LSN's place in the sequence checked; the
// LSN is read off the payload's leading digits, and only a record that will
// be applied (snapLSN < lsn ≤ upTo) is decoded in full — on a loaded
// primary most of the segment lies under the snapshot.
func replaySegment(vfs faultfs.FS, st *replayState, path string, start int64, last, repair bool, upTo int64) (int64, error) {
	win := &st.win
	f, hdrDamage, err := openSegment(vfs, path, win, &st.hdrTerm)
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	name := filepath.Base(path)

	// torn classifies a damaged frame at the window's position.  A genuine
	// torn write can only be the suffix of the last segment — a single
	// appender never writes anything after an unfinished record — so damage
	// is tolerated (and with repair truncated away) only on the last segment
	// AND only when no decodable frame exists beyond it; a valid frame after
	// the damage proves mid-stream corruption of acknowledged history, which
	// must fail loudly, never be silently cut off.  Only here is the rest of
	// the file read in.
	torn := func(damage string) error {
		off := win.off
		if !last {
			return fmt.Errorf("journal: segment %s: %s at offset %d (not the journal tail)", name, damage, off)
		}
		rest, err := win.rest()
		if err != nil {
			return fmt.Errorf("journal: segment %s: %w", name, err)
		}
		for cand := 1; cand+frameHeader <= len(rest); cand++ {
			if validFrameAt(rest, cand) {
				return fmt.Errorf("journal: segment %s: %s at offset %d (valid records follow — corruption, not a torn tail)", name, damage, off)
			}
		}
		if repair {
			if err := vfs.Truncate(path, off); err != nil {
				return fmt.Errorf("journal: truncate torn tail of %s: %w", name, err)
			}
		}
		return nil
	}

	if hdrDamage != "" {
		return start, torn(hdrDamage)
	}

	next := start
	for {
		payload, lsn, damage, err := win.record()
		if err == io.EOF {
			return next, nil
		}
		if err != nil {
			return 0, fmt.Errorf("journal: segment %s: %w", name, err)
		}
		var rec meta.Record
		if damage == "" && lsn > st.snapLSN && lsn <= upTo {
			// The record's strings are the window's bytes: ApplyRecord keeps
			// none of them, so a record costs no copy of its payload.
			if rec, err = win.dec.decode(unsafe.String(unsafe.SliceData(payload), len(payload))); err != nil {
				damage = fmt.Sprintf("undecodable record (%v)", err)
			}
		}
		if damage != "" {
			return next, torn(damage)
		}
		// A record that passed its checksum must carry the expected LSN:
		// a mismatch means shuffled or doctored files, which truncation
		// must not paper over.
		if lsn != next {
			return 0, fmt.Errorf("journal: segment %s: record lsn %d at offset %d, want %d", name, lsn, win.off, next)
		}
		if lsn > st.snapLSN && lsn <= upTo {
			if err := st.db.ApplyRecord(rec); err != nil {
				return 0, fmt.Errorf("journal: segment %s: %w", name, err)
			}
			st.lastLSN = lsn
		}
		next++
		win.consume(frameHeader + len(payload))
	}
}
