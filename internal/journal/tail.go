package journal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"time"

	"repro/internal/faultfs"
)

// ErrTailStopped reports that a Tailer's stop channel (or its Writer)
// closed while waiting for the next committed record.
var ErrTailStopped = errors.New("journal: tail stopped")

// Tailer reads a live journal from a given position: retained history from
// the segment files, then new records as the Writer commits them.  It is
// the serving half of replication — the server opens one per FOLLOW
// connection, each at its own position, none blocking the Writer.  A Tailer
// never delivers a record above the commit watermark: what it ships is
// exactly what a primary crash would preserve, so a follower can never run
// ahead of its primary's recovery.
//
// A Tailer is not safe for concurrent use.  Close releases the open
// segment handle; it does not unblock a concurrent Next (close the stop
// channel for that).
type Tailer struct {
	w          *Writer
	next       int64 // LSN of the next record to deliver
	hdrTerm    int64 // newest segment-header term seen; headers must never regress
	f          faultfs.File
	win        frameWindow
	sentMark   bool
	sentHealth bool          // the one FollowHealth event has been delivered
	ping       time.Duration // idle-stream liveness tick cadence; 0 = silent idle
}

// SetPing arms the idle-stream liveness tick: whenever the tail is
// caught up and nothing commits for every ms, Next returns a FollowPing
// event instead of blocking silently.  0 disables (the legacy silent
// idle).  Must be set before the first Next.
func (t *Tailer) SetPing(every time.Duration) { t.ping = every }

// NewTailer starts a tail that delivers every committed record with LSN
// greater than after (0 tails from the beginning of history).
func (w *Writer) NewTailer(after int64) *Tailer {
	if after < 0 {
		after = 0
	}
	return &Tailer{w: w, next: after + 1}
}

// Close releases the tailer's segment handle.
func (t *Tailer) Close() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
}

// Next blocks until the tail can make progress and returns one event: a
// record, a snapshot bootstrap, or a caught-up watermark.  Closing stop
// makes it return ErrTailStopped.
func (t *Tailer) Next(stop <-chan struct{}) (FollowEvent, error) {
	for {
		wm := t.w.CommittedLSN()
		if wm < t.next {
			// Caught up: everything committed so far has been delivered.
			// Report the watermark once, then block for the next commit.
			if !t.sentMark {
				t.sentMark = true
				return FollowEvent{Kind: FollowMark, Watermark: wm}, nil
			}
			// A degraded journal's watermark is final: report it once so a
			// parked follower learns the primary stopped accepting writes
			// instead of waiting forever, then keep blocking — the stream
			// stays open in case the watermark was raced just before the
			// fault, and closes on stop like any idle tail.
			if !t.sentHealth {
				select {
				case <-t.w.healthChan():
					t.sentHealth = true
					_, reason := t.w.Health()
					return FollowEvent{Kind: FollowHealth, Reason: reason}, nil
				default:
				}
			}
			var health <-chan struct{}
			if !t.sentHealth {
				health = t.w.healthChan()
			}
			var wake <-chan time.Time
			var timer *time.Timer
			if t.ping > 0 {
				timer = time.NewTimer(t.ping)
				wake = timer.C
			}
			_, ok, woke := t.w.waitCommitted(t.next-1, stop, health, wake)
			if timer != nil {
				timer.Stop()
			}
			if !ok {
				return FollowEvent{}, ErrTailStopped
			}
			if woke {
				return FollowEvent{Kind: FollowPing, Watermark: t.w.CommittedLSN()}, nil
			}
			continue
		}
		t.sentMark = false
		if t.f == nil {
			ev, opened, err := t.locate()
			if err != nil {
				return FollowEvent{}, err
			}
			if !opened {
				return ev, nil // snapshot bootstrap
			}
			continue
		}
		ev, delivered, err := t.scanFrame()
		if err != nil {
			return FollowEvent{}, err
		}
		if delivered {
			return ev, nil
		}
	}
}

// locate opens the segment holding record t.next, or — when that record
// is older than the oldest retained segment — returns the newest snapshot
// as a bootstrap event and re-bases the tail behind it.  Compaction may
// delete files between the directory listing and the open; the listing is
// retried until it is consistent.
func (t *Tailer) locate() (FollowEvent, bool, error) {
	for attempt := 0; attempt < 20; attempt++ {
		segs, snaps, _, err := list(t.w.fs, t.w.dir)
		if err != nil {
			return FollowEvent{}, false, fmt.Errorf("journal: tail: %w", err)
		}
		var seg int64 = -1
		for _, s := range segs {
			if s <= t.next {
				seg = s
			}
		}
		if seg < 0 {
			// The requested position predates every retained segment: the
			// follower is stale (or cold) and must re-base on a snapshot.
			if len(snaps) == 0 || snaps[len(snaps)-1] < t.next {
				return FollowEvent{}, false, fmt.Errorf(
					"journal: tail: no segment or snapshot covers lsn %d", t.next)
			}
			lsn := snaps[len(snaps)-1]
			body, err := t.snapshotBody(lsn)
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					continue // compaction replaced it; re-list
				}
				return FollowEvent{}, false, fmt.Errorf("journal: tail: snapshot %s: %w", snapshotName(lsn), err)
			}
			t.next = lsn + 1
			return FollowEvent{Kind: FollowSnapshot, SnapLSN: lsn, Snapshot: body}, false, nil
		}
		f, damage, err := openSegment(t.w.fs, filepath.Join(t.w.dir, segmentName(seg)), &t.win, &t.hdrTerm)
		if errors.Is(err, fs.ErrNotExist) {
			continue // compacted away underneath us; re-list
		}
		if err != nil {
			return FollowEvent{}, false, fmt.Errorf("journal: tail: %w", err)
		}
		if damage != "" {
			f.Close()
			return FollowEvent{}, false, fmt.Errorf("journal: tail: segment %s: %s, before committed lsn %d", segmentName(seg), damage, t.next)
		}
		t.f = f
		return FollowEvent{}, true, nil
	}
	return FollowEvent{}, false, fmt.Errorf("journal: tail: directory kept changing underneath the listing")
}

// snapshotBody reads the snapshot of lsn as FollowSnapshot carries it: the
// file, byte for byte.  The follower reads it as recovery does before it
// installs it.
func (t *Tailer) snapshotBody(lsn int64) ([]byte, error) {
	f, err := t.w.fs.Open(filepath.Join(t.w.dir, snapshotName(lsn)))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// scanFrame reads the current segment forward: it returns the next record
// at or beyond the tail position, as its frame, rotates to the next segment
// at a clean end-of-file, and reports corruption otherwise.  The caller has
// already established that record t.next is committed (watermark ≥ t.next),
// so the frame bytes are fully visible wherever they live — a partial frame
// here is disk corruption, not a write in progress.
func (t *Tailer) scanFrame() (FollowEvent, bool, error) {
	for {
		payload, lsn, damage, err := t.win.record()
		if err == io.EOF {
			// Clean end of segment with a committed record still owed: it
			// lives in a later segment.  Rotate via a fresh locate.
			t.f.Close()
			t.f = nil
			return FollowEvent{}, false, nil
		}
		if err != nil {
			return FollowEvent{}, false, fmt.Errorf("journal: tail: %w", err)
		}
		if damage != "" {
			return FollowEvent{}, false, fmt.Errorf(
				"journal: tail: %s at offset %d, before committed lsn %d", damage, t.win.off, t.next)
		}
		frame := t.win.take(payload)
		if lsn < t.next {
			continue // entered the segment mid-way; below our position
		}
		if lsn != t.next {
			return FollowEvent{}, false, fmt.Errorf(
				"journal: tail: record lsn %d where %d was expected", lsn, t.next)
		}
		t.next++
		return FollowEvent{Kind: FollowRecord, Frame: frame}, true, nil
	}
}
