package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/faultfs"
	"repro/internal/meta"
)

// Options tunes a journal Writer.  The zero value picks sensible defaults.
type Options struct {
	// SegmentBytes rotates the log to a fresh segment once the current one
	// reaches this size; 0 means 4 MiB.  It is a soft bound: the rotation
	// is the end of the Commit that finds the segment full, and everything
	// written before it lands in that segment — a primary's whole buffer,
	// or a follower's write-throughs until its spill runs.
	SegmentBytes int64

	// SnapshotEvery takes a snapshot after this many records have been
	// committed since the last one; 0 means 4096, negative disables the
	// record-count trigger.
	SnapshotEvery int64

	// Fsync forces the segment file to stable storage on every Commit.
	// Off by default: a process crash (the failure the journal defends
	// against first) loses nothing without it, only an OS crash can, and
	// per-commit fsync is the dominant latency cost.  Snapshots are always
	// fsynced before they are renamed into place.
	Fsync bool

	// FS is the filesystem the journal performs every open, write, sync,
	// rename and remove through; nil means the real one (faultfs.OS).
	// Tests substitute a faultfs.Injector to drive the journal through
	// deterministic disk faults — ENOSPC, failed fsync, wedged writes.
	FS faultfs.FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	if o.FS == nil {
		o.FS = faultfs.OS
	}
	return o
}

// bufFlushBytes bounds the in-memory record buffer: past it, the
// dedicated spill goroutine is woken to Commit even before the caller's
// next explicit Commit, so a long drain cannot hold an unbounded journal
// in memory.  The spill is asynchronous because Record runs under the
// MVCC epoch gate (and the database's writer lock): a segment-file write —
// or, in fsync mode, a disk flush — inside that critical section would
// stall every writer and all view pinning for the syscall's duration.
const bufFlushBytes = 1 << 20

// followWriteBytes is how much a follower buffers before ApplyAppend writes
// it through to the segment, unsynced (writeThrough).
const followWriteBytes = 64 << 10

// Writer is an open journal: the meta.Recorder end that appends records,
// and the snapshot/compaction machinery behind it.  One Writer owns its
// directory; running two against the same directory corrupts the log.
//
// Record is safe to call from any goroutine (the database calls it under
// its own locks) and never performs blocking I/O beyond an occasional
// buffer spill; Commit, Snapshot and Close may block on the filesystem.
type Writer struct {
	dir      string
	opt      Options
	fs       faultfs.FS
	db       *meta.DB
	follower bool // opened by OpenFollower: records arrive pre-numbered via ApplyAppend

	// flushMu serializes flushers (Commit), ordered outside mu: the
	// buffer write happens under mu, the fsync with mu released, so
	// Record keeps buffering — and the MVCC gate keeps pinning —
	// through a disk flush.
	flushMu sync.Mutex

	mu       sync.Mutex
	seg      faultfs.File
	segSize  int64
	segFirst int64 // first LSN the open segment can contain (its name)
	buf      []byte
	scratch  []byte // the payload being appended; guarded by mu
	pending  int64  // records buffered since the last flush
	ioErr    error  // first sticky I/O failure — the degraded state's reason
	closed   bool

	// hlCh is closed exactly once, when the first sticky I/O error flips
	// the journal into the degraded state — the health signal tailers
	// block on so a parked follower stream learns the primary stopped
	// accepting writes instead of waiting forever for a watermark that
	// will never advance.
	hlCh chan struct{}

	lastLSN   atomic.Int64 // newest assigned record number
	snapLSN   atomic.Int64 // LSN covered by the newest snapshot
	sinceSnap atomic.Int64 // records flushed and not yet covered by a snapshot

	// term is the writer's election term (≥ 1), mirrored from the
	// database's term table: recovery seeds it, an applied term-bump
	// record raises it on a follower, and Promote bumps it.  New segment
	// headers stamp it; the replication handshake fences on it.
	term atomic.Int64

	// watermark is the commit watermark: the newest LSN whose frame has
	// been written through to the operating system.  Everything at or below
	// it is exactly as durable as a committed record and safe to ship to a
	// follower.  wmCh is the wake channel of the tailers blocked on its
	// next advance: waitCommitted makes it when there is none, and an
	// advance closes it and leaves none, so a commit nobody waits for
	// makes no channel.
	watermark atomic.Int64
	wmMu      sync.Mutex
	wmCh      chan struct{}

	// applyMu serializes a follower's apply+append pairs, and holds them
	// off BootstrapSnapshot, Promote and Snapshot's pin (see ApplyAppend).
	applyMu sync.Mutex
	dec     payloadDecoder // ApplyAppend's; guarded by applyMu

	snapMu  sync.Mutex // serializes Snapshot
	pinHook func()     // tests only: runs between Snapshot's LSN read and its pin
	snapCh  chan struct{}
	spillCh chan struct{} // wakes the background loop to Commit an outgrown buffer
	quit    chan struct{}
	wg      sync.WaitGroup
}

// Open recovers the database persisted in dir (creating the directory if
// needed: an empty directory is an empty project) and returns a Writer
// already attached to it as its mutation recorder.  A torn final record
// left by a crash is truncated away before appending resumes.  The
// recovered database keys its read views by the journal LSN — the horizon
// is the recovered position — which is what makes snapshots, reports and
// read-your-LSN queries pause-free.
func Open(dir string, opt Options) (*Writer, *meta.DB, error) {
	w, db, err := open(dir, opt, false)
	if err != nil {
		return nil, nil, err
	}
	db.SetRecorder(w)
	return w, db, nil
}

// OpenFollower recovers dir like Open but leaves the database without a
// recorder and the Writer in follower mode: records arrive from a primary
// with their LSNs already assigned and are persisted through ApplyAppend,
// which preserves the primary's numbering so the follower's log is
// record-for-record identical to the primary's.  The recovered database's
// LastLSN is the follower's persisted applied position — the resume point
// a restarted follower hands the primary's FOLLOW verb.  Versions are
// keyed by the primary's LSNs, so a follower REPORT at a given LSN reads
// exactly the state the primary had at that LSN.
func OpenFollower(dir string, opt Options) (*Writer, *meta.DB, error) {
	return open(dir, opt, true)
}

func open(dir string, opt Options, follower bool) (*Writer, *meta.DB, error) {
	opt = opt.withDefaults()
	if err := opt.FS.MkdirAll(dir, 0o777); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	st, err := replayFS(opt.FS, dir, true, math.MaxInt64)
	if err != nil {
		return nil, nil, err
	}
	w := &Writer{
		dir:      dir,
		opt:      opt,
		fs:       opt.FS,
		db:       st.db,
		follower: follower,
		hlCh:     make(chan struct{}),
		snapCh:   make(chan struct{}, 1),
		quit:     make(chan struct{}),
	}
	w.lastLSN.Store(st.lastLSN)
	w.snapLSN.Store(st.snapLSN)
	w.watermark.Store(st.lastLSN)
	w.term.Store(st.db.CurrentTerm())
	w.spillCh = make(chan struct{}, 1)
	if err := w.openTail(st.tail, st.tailNext); err != nil {
		return nil, nil, err
	}
	w.wg.Add(2)
	go w.snapshotLoop()
	go w.spillLoop()
	return w, st.db, nil
}

// openTail opens the newest segment, starting at LSN tail, for appending —
// or starts a fresh one at the next LSN when there is none or tailNext, where
// the newest continues, is not the next: a follower that died between
// BootstrapSnapshot's rename and its segment create recovers at the snapshot,
// far past the old tail.  A tail torn down to less than a header is reset.
func (w *Writer) openTail(tail, tailNext int64) error {
	if next := w.lastLSN.Load() + 1; tail == 0 || tailNext != next {
		return w.newSegmentLocked(next)
	}
	f, err := w.fs.OpenFile(filepath.Join(w.dir, segmentName(tail)), os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	w.seg, w.segSize, w.segFirst = f, fi.Size(), tail
	if w.segSize < int64(segHeaderLen) {
		// Torn at creation (replay truncated it to zero): restart the
		// segment header before any record lands in it.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return fmt.Errorf("journal: %w", err)
		}
		hdr := encodeSegHeader(w.term.Load())
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return fmt.Errorf("journal: %w", err)
		}
		w.segSize = int64(len(hdr))
	}
	return nil
}

// newSegmentLocked starts the next segment, named after first, the LSN of
// the first record it will receive: one past the newest record written to
// the segment it replaces, which is not lastLSN when records were buffered
// since that write.  The tailer and recovery both find a record by the
// segment names around it.  Callers hold w.mu (or are single-threaded in
// Open).
func (w *Writer) newSegmentLocked(first int64) error {
	if w.seg != nil {
		if err := w.seg.Close(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		w.seg = nil
	}
	path := filepath.Join(w.dir, segmentName(first))
	f, err := w.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	hdr := encodeSegHeader(w.term.Load())
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	w.seg, w.segSize, w.segFirst = f, int64(len(hdr)), first
	return nil
}

// DB returns the recovered database the Writer records for.
func (w *Writer) DB() *meta.DB { return w.db }

// LastLSN returns the newest assigned record number.
func (w *Writer) LastLSN() int64 { return w.lastLSN.Load() }

// SnapshotLSN returns the position the newest snapshot covers.
func (w *Writer) SnapshotLSN() int64 { return w.snapLSN.Load() }

// CommittedLSN returns the commit watermark: the newest record number
// written through to the operating system.  Replication ships records up
// to and including it — nothing above the watermark is offered to a
// follower, because a primary crash could still lose it.
func (w *Writer) CommittedLSN() int64 { return w.watermark.Load() }

// Term returns the writer's current election term (≥ 1; 1 is the genesis
// term of a history that never lived through a promotion).
func (w *Writer) Term() int64 { return w.term.Load() }

// ValidateFollowPosition decides whether a follower resuming at position
// from with history ending in term fromTerm may be served from this
// journal — the fencing half of the FOLLOW handshake.  fromTerm 0 marks an
// observer, which holds no history, and skips the term checks.
//
// The rules, term checks first because they carry the sharper diagnosis:
// a follower term NEWER than ours means this node is the deposed one —
// serving would feed a stale lineage to a replica that already moved on.
// A follower term OLDER than ours is fine only below the promotion point
// that ended it: the oldest term-bump past fromTerm bounds the shared
// history, and a follower claiming records at or beyond that bound holds
// a divergent tail written by a deposed primary (a revived old primary is
// the canonical case — its raw position may even exceed our watermark) —
// refused loudly, never resumed over.  Finally, a position ahead of the
// commit watermark within the same lineage (or an observer's) means
// divergent histories outright: journal reset or wrong primary.
func (w *Writer) ValidateFollowPosition(from, fromTerm int64) error {
	if fromTerm > 0 {
		myTerm := w.term.Load()
		switch {
		case fromTerm > myTerm:
			return fmt.Errorf("journal: follower at term %d is ahead of this node's term %d — this primary is deposed", fromTerm, myTerm)
		case fromTerm < myTerm:
			bound, ok := w.db.FirstTermStartAfter(fromTerm)
			if !ok {
				// myTerm > fromTerm guarantees a bump past fromTerm
				// happened; a missing table entry means lost term history.
				// Nothing but a cold bootstrap can be validated against it.
				if from == 0 {
					return nil
				}
				return fmt.Errorf("journal: no term history past term %d to validate follower position %d against", fromTerm, from)
			}
			if from >= bound {
				return fmt.Errorf("journal: follower tail at lsn %d term %d reaches past this lineage's promotion point (term bump at lsn %d) — divergent tail, refusing to serve", from, fromTerm, bound)
			}
			// Below the bound the histories are shared; the watermark
			// check below still applies while the bump is uncommitted.
		}
	}
	if wm := w.CommittedLSN(); from > wm {
		return fmt.Errorf("journal: follower position %d is ahead of the primary's committed lsn %d — journal reset or wrong primary", from, wm)
	}
	return nil
}

// advanceWatermark publishes a new commit watermark and wakes every tailer
// blocked in waitCommitted.  Callers hold w.mu.
func (w *Writer) advanceWatermark(lsn int64) {
	if lsn <= w.watermark.Load() {
		return
	}
	w.watermark.Store(lsn)
	w.wmMu.Lock()
	if w.wmCh != nil {
		close(w.wmCh)
		w.wmCh = nil
	}
	w.wmMu.Unlock()
}

// waitCommitted blocks until the commit watermark exceeds after, the stop
// channel closes, or the writer closes.  It returns the watermark and
// whether waiting may continue (false on stop/close).  A non-nil health
// channel additionally wakes the wait (returning true) when it closes —
// the degraded-journal signal; the caller must pass nil once it has
// consumed that signal, or a closed channel would spin the wait.  A
// non-nil wake channel (a timer) likewise ends the wait early with
// woke=true — the idle-ping tick a tailer uses to prove stream liveness
// to its follower.
func (w *Writer) waitCommitted(after int64, stop, health <-chan struct{}, wake <-chan time.Time) (lsn int64, ok, woke bool) {
	for {
		w.wmMu.Lock()
		if w.wmCh == nil {
			w.wmCh = make(chan struct{})
		}
		ch := w.wmCh
		w.wmMu.Unlock()
		// The watermark is read after the channel is taken: an advance
		// past this read closes ch.
		if wm := w.watermark.Load(); wm > after {
			return wm, true, false
		}
		select {
		case <-ch:
		case <-health:
			return w.watermark.Load(), true, false
		case <-wake:
			return w.watermark.Load(), true, true
		case <-stop:
			return w.watermark.Load(), false, false
		case <-w.quit:
			return w.watermark.Load(), false, false
		}
	}
}

// Record implements meta.Recorder: it stamps the record with the next
// LSN, buffers its encoding, and returns the assigned LSN (the MVCC
// version stamp of the mutation it describes).  It is called with
// database locks and the MVCC epoch gate held, so it performs no I/O at
// all — it only appends to the buffer (through a reused scratch buffer,
// so the hot path allocates nothing per record) and, when the buffer
// outgrows its bound, wakes the background loop to commit it.  I/O
// errors are sticky and surface at the next Commit.
func (w *Writer) Record(r meta.Record) int64 {
	w.mu.Lock()
	r.LSN = w.lastLSN.Load() + 1
	w.scratch = appendPayload(w.scratch[:0], r)
	w.appendLocked(r.LSN, AppendFrame(w.buf, w.scratch))
	w.mu.Unlock()
	return r.LSN
}

// appendLocked takes buf, the buffer with record lsn's frame appended, as
// the buffer, lsn as the newest record — the one append body of Record,
// ApplyAppend and Promote — and wakes the spill goroutine when the buffer
// outgrows its bound: rotation and fsync belong to the flushMu-serialized
// Commit path, never under w.mu.  Callers hold w.mu.
func (w *Writer) appendLocked(lsn int64, buf []byte) {
	w.lastLSN.Store(lsn)
	w.buf = buf
	w.pending++
	if len(w.buf) >= bufFlushBytes {
		w.wakeSpill()
	}
}

// wakeSpill wakes the spill goroutine to Commit.
func (w *Writer) wakeSpill() {
	select {
	case w.spillCh <- struct{}{}:
	default: // a spill wake-up is already pending
	}
}

// writeBufLocked writes the buffered records through to the segment file
// and reports the write error without deciding its fate — Commit owns the
// degrade-or-retry decision.  Callers hold w.mu.  On failure the
// unwritten suffix of the buffer is retained so a retry (the ENOSPC
// free-space-and-try-again path) continues exactly where the short write
// stopped: a half-written frame at the tail is the torn-record case
// recovery already truncates, and completing it keeps the log seamless.
func (w *Writer) writeBufLocked() error {
	if w.ioErr != nil || len(w.buf) == 0 {
		w.buf = w.buf[:0]
		w.pending = 0
		return nil
	}
	if w.seg == nil {
		return errors.New("writer is closed")
	}
	n, err := w.seg.Write(w.buf)
	w.segSize += int64(n)
	if err != nil {
		w.buf = append(w.buf[:0], w.buf[n:]...)
		return err
	}
	w.sinceSnap.Add(w.pending)
	w.buf = w.buf[:0]
	w.pending = 0
	return nil
}

// failLocked records the first sticky I/O failure, flipping the journal
// into the degraded state: writes are refused with this reason from now
// on, while reads and the already-durable history stay servable.  The
// health channel is closed exactly once so watchers (the follower tailer,
// the server's ROLE verb) learn of the flip without polling.  Callers
// hold w.mu.
func (w *Writer) failLocked(err error) {
	if w.ioErr != nil || err == nil {
		return
	}
	w.ioErr = err
	close(w.hlCh)
}

// Health reports whether the journal is accepting writes.  A degraded
// journal (healthy == false) carries its first sticky I/O failure as the
// reason; the degraded contract keeps MVCC reads serving and the log
// valid through the commit watermark, but refuses every new write.
func (w *Writer) Health() (healthy bool, reason string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ioErr == nil {
		return true, ""
	}
	return false, w.ioErr.Error()
}

// healthChan returns the channel closed when the journal degrades.
func (w *Writer) healthChan() <-chan struct{} { return w.hlCh }

// emergencyFree tries to reclaim disk space after an ENOSPC append by
// compacting the log behind the newest snapshot — the one recovery source
// that makes every older segment and snapshot disposable.  Called with
// flushMu held and w.mu released; compaction only touches files recovery
// tolerates losing, so a crash mid-free is safe.
func (w *Writer) emergencyFree() {
	w.compact(w.snapLSN.Load())
}

// Commit makes every record assigned before the call durable: written
// through to the operating system, and synced in fsync mode.  It covers
// its caller: once it holds flushMu, a healthy journal whose watermark
// already reaches the LSN read on entry returns at once, without a write
// or a sync, so a caller queued behind another's fsync is served by it
// (group commit).  A degraded journal refuses every caller: the watermark
// advances only after a successful sync.  Commit also arms the snapshot
// trigger when enough records have accumulated.
//
// In fsync mode the Sync runs while w.mu is released (flushMu alone
// serializes flushers): Record is called under the MVCC epoch gate, so
// an fsync performed — or waited on — while w.mu is held would stall
// every writer and all view pinning for the disk flush's duration.  The
// watermark advances only after the sync succeeds, and only to the
// position captured at write time: replication must never ship records an
// OS crash could still erase from the primary — permanent silent
// divergence, because the reconnect protocol skips LSNs the follower
// already applied.
func (w *Writer) Commit() error {
	target := w.lastLSN.Load()
	w.flushMu.Lock()
	w.mu.Lock()
	if w.ioErr == nil && w.watermark.Load() >= target {
		w.mu.Unlock()
		w.flushMu.Unlock()
		return nil
	}
	werr := w.writeBufLocked()
	if werr != nil && errors.Is(werr, syscall.ENOSPC) && w.ioErr == nil {
		// Full disk: before degrading, compact away everything the newest
		// snapshot already covers and retry the append once.  The retained
		// buffer suffix resumes exactly where the short write stopped, so
		// a successful retry leaves the log seamless.
		w.mu.Unlock()
		w.emergencyFree()
		w.mu.Lock()
		werr = w.writeBufLocked()
	}
	if werr != nil {
		w.failLocked(fmt.Errorf("journal: append: %w", werr))
	}
	seg := w.seg
	lsn := w.lastLSN.Load()
	needSync := w.opt.Fsync && w.ioErr == nil && seg != nil
	w.mu.Unlock()
	syncOK := true
	if needSync {
		if serr := seg.Sync(); serr != nil {
			syncOK = false
			w.mu.Lock()
			if w.seg == seg {
				// A sync failure on a segment that was retired underneath
				// us (snapshot re-bootstrap swapped the log) is moot — its
				// records were superseded wholesale; on the live segment it
				// is a real durability failure and sticks.
				w.failLocked(fmt.Errorf("journal: fsync: %w", serr))
			}
			w.mu.Unlock()
		}
	}
	w.mu.Lock()
	if w.ioErr == nil && syncOK {
		w.advanceWatermark(lsn)
	}
	// Rotate only when the segment actually holds a record: a fresh
	// segment whose header alone exceeds a tiny SegmentBytes would
	// otherwise re-rotate on an empty commit into the same name (segments
	// are named by first containable LSN) and trip the O_EXCL create.
	// The new segment starts after lsn, the position captured at write
	// time: records buffered while w.mu was released for the fsync are not
	// in the old segment and will be the new one's first.
	if w.ioErr == nil && w.seg != nil && w.segSize >= w.opt.SegmentBytes && lsn+1 > w.segFirst {
		if err := w.newSegmentLocked(lsn + 1); err != nil {
			w.failLocked(err)
		}
	}
	err := w.ioErr
	w.mu.Unlock()
	w.flushMu.Unlock()
	if err != nil {
		return err
	}
	if w.opt.SnapshotEvery > 0 && w.sinceSnap.Load() >= w.opt.SnapshotEvery {
		select {
		case w.snapCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// ApplyAppend is the follower-side ingestion point: it applies one
// primary-shipped record, given as its journal frame, to the database and
// appends the same frame to the local log — the primary's bytes, its
// checksum included, never re-encoded — so the follower's journal is
// frame-for-frame identical to the primary's and a restart resumes from
// exactly the persisted position.  The frame's checksum is the caller's to
// have checked (ReadFollow checks every frame it delivers).  A record at or
// below the current position is a duplicate from a reconnect overlap and
// is skipped; a record that skips ahead is a gap and fails loudly —
// silently applying it would hide lost history.  lsn is the position after
// the call, whatever it did.
//
// The apply+append pair runs under applyMu, which serializes the pairs
// and keeps BootstrapSnapshot and Promote out of their middle.  Snapshot
// holds it only across its pin, and takes no database lock: the view reads
// the versions at its LSN whatever is applied meanwhile, but a term record
// moves the term without a version, so the term Snapshot reads must be the
// one at the LSN it pinned.  Past followWriteBytes the buffer is written
// through, unsynced: only a Commit makes the records durable and moves the
// watermark.
func (w *Writer) ApplyAppend(frame []byte) (lsn int64, err error) {
	if !w.follower {
		return w.lastLSN.Load(), fmt.Errorf("journal: ApplyAppend on a primary-mode writer")
	}
	w.applyMu.Lock()
	defer w.applyMu.Unlock()
	last := w.lastLSN.Load()
	if len(frame) < frameHeader || int(binary.LittleEndian.Uint32(frame)) != len(frame)-frameHeader {
		return last, fmt.Errorf("journal: ApplyAppend of a malformed frame")
	}
	// The record's strings are the frame's bytes: ApplyRecord keeps none of
	// them, so, as in recovery, a record costs no copy of its payload.
	payload := frame[frameHeader:]
	r, err := w.dec.decode(unsafe.String(unsafe.SliceData(payload), len(payload)))
	if err != nil {
		return last, err
	}
	if r.LSN <= last {
		return last, nil // duplicate: already applied and persisted
	}
	if r.LSN != last+1 {
		return last, fmt.Errorf("journal: follower gap: record lsn %d arrived at applied lsn %d", r.LSN, last)
	}
	if err := w.db.ApplyRecord(r); err != nil {
		return last, err
	}
	if r.Op == meta.OpTerm {
		// The primary promoted somewhere upstream of us: adopt its term so
		// our next reconnect handshakes with it and our next segment header
		// stamps it.  ApplyRecord already validated monotonicity.
		w.term.Store(w.db.CurrentTerm())
	}
	w.mu.Lock()
	w.appendLocked(r.LSN, append(w.buf, frame...))
	through := len(w.buf) >= followWriteBytes
	err = w.ioErr
	w.mu.Unlock()
	if through && err == nil {
		w.writeThrough()
	}
	return r.LSN, err
}

// writeThrough writes a follower's buffer to its segment without a sync, so
// that between its commits — it commits when its stream is caught up — a
// follower holds, and a process crash loses, less than followWriteBytes.
// It holds flushMu, as Commit does: no record is written behind a Commit's
// sync into the segment that Commit then retires.  A failed write, or a
// segment it fills, wakes the spill, whose Commit retries the write or
// degrades, or syncs the segment and rotates.
func (w *Writer) writeThrough() {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.writeBufLocked() != nil || w.segSize >= w.opt.SegmentBytes {
		w.wakeSpill()
	}
}

// BootstrapSnapshot installs a primary-shipped snapshot as the follower's
// new base state: body, the primary's checkpoint file byte for byte, becomes
// snapshot-<lsn>.json, a fresh segment starting at lsn+1 replaces the
// tail, every older segment and snapshot is deleted, and the in-memory
// database is reset to the snapshot.  This is the cold or stale-follower
// path — the primary has compacted away the records between the follower's
// applied position and its retained history, so tailing cannot continue and
// the follower must re-base.  The file order (snapshot renamed into place,
// new segment created, then old files deleted) keeps every crash window
// recoverable.
func (w *Writer) BootstrapSnapshot(lsn int64, body []byte) error {
	if !w.follower {
		return fmt.Errorf("journal: BootstrapSnapshot on a primary-mode writer")
	}
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	w.applyMu.Lock()
	defer w.applyMu.Unlock()
	if lsn <= w.lastLSN.Load() {
		return fmt.Errorf("journal: bootstrap snapshot lsn %d is not ahead of applied lsn %d", lsn, w.lastLSN.Load())
	}

	// Read the snapshot as recovery does before touching any file: a torn,
	// corrupt or older-format one must leave the follower's state untouched.
	var win frameWindow
	restored, err := win.readSnapshot(bytes.NewReader(body), lsn)
	if err != nil {
		return fmt.Errorf("journal: bootstrap snapshot: %w", err)
	}

	f, err := w.fs.CreateTemp(w.dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("journal: bootstrap snapshot: %w", err)
	}
	_, werr := f.Write(body)
	if err := seal(w.fs, f, werr, filepath.Join(w.dir, snapshotName(lsn))); err != nil {
		return fmt.Errorf("journal: bootstrap snapshot: %w", err)
	}

	// The snapshot may carry term bumps this stale follower never saw as
	// records; adopt them before the fresh segment below stamps its header.
	w.term.Store(restored.CurrentTerm())

	w.mu.Lock()
	w.buf = w.buf[:0]
	w.pending = 0
	w.lastLSN.Store(lsn)
	if err := w.newSegmentLocked(lsn + 1); err != nil {
		w.failLocked(err)
		w.mu.Unlock()
		return err
	}
	w.advanceWatermark(lsn)
	w.mu.Unlock()
	w.snapLSN.Store(lsn)
	w.sinceSnap.Store(0)

	// Old segments hold LSNs below the new base; with the segment after the
	// snapshot in place, they and the older snapshots are dead history.
	w.compact(lsn)
	return w.db.RestoreFrom(restored, lsn)
}

// Promote atomically flips a follower-mode writer into a primary: it
// bumps the election term, applies and appends the term-bump record that
// opens the new term, commits it, and attaches the writer as the
// database's recorder so local mutations journal from here on.  The
// caller must have stopped the replication apply loop first (no
// ApplyAppend may race this); applyMu additionally serializes against a
// snapshot pinning its LSN.
//
// The commit of the bump record is the atomicity hinge: a crash before it
// recovers as a follower still in the old term (the bump was never
// acknowledged and is truncated as a torn tail at worst), a crash after
// it recovers with the new term in the database's term table — exactly
// one of {still-follower, fully-primary}, never a half-promoted state.
// The returned term and LSN identify the new lineage.
func (w *Writer) Promote() (term, lsn int64, err error) {
	w.applyMu.Lock()
	defer w.applyMu.Unlock()
	if !w.follower {
		return 0, 0, fmt.Errorf("journal: Promote on a primary-mode writer")
	}
	newTerm := w.term.Load() + 1
	rec := meta.Record{
		LSN:  w.lastLSN.Load() + 1,
		Seq:  w.db.Seq(),
		Op:   meta.OpTerm,
		Args: []string{strconv.FormatInt(newTerm, 10)},
	}
	if err := w.db.ApplyRecord(rec); err != nil {
		return 0, 0, fmt.Errorf("journal: promote: %w", err)
	}
	w.mu.Lock()
	w.scratch = appendPayload(w.scratch[:0], rec)
	w.appendLocked(rec.LSN, AppendFrame(w.buf, w.scratch))
	w.mu.Unlock()
	w.term.Store(newTerm)
	if err := w.Commit(); err != nil {
		return 0, 0, fmt.Errorf("journal: promote: %w", err)
	}
	w.follower = false
	w.db.SetRecorder(w)
	return newTerm, rec.LSN, nil
}

// Abort closes the writer without flushing the in-memory buffer — the
// crash-simulation exit: records not yet flushed are lost exactly as a
// SIGKILL would lose them, while the on-disk log stays valid through the
// commit watermark.  Tests use it to exercise restart-from-persisted-LSN
// paths without a child process.
func (w *Writer) Abort() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.buf = nil
	w.pending = 0
	if w.seg != nil {
		w.seg.Close()
		w.seg = nil
	}
	w.mu.Unlock()
	close(w.quit)
	w.wg.Wait()
	w.db.SetRecorder(nil)
}

// Snapshot writes a consistent whole-database snapshot and compacts the
// log behind it.  The checkpoint is collected from a pinned MVCC read view
// at the journal's newest assigned LSN — no database lock of any kind is
// held for the collection, the encode or the file write, so checkins
// proceed for the snapshot's whole duration — and that LSN names the file,
// so recovery knows exactly which records the snapshot covers.  It is streamed to a temporary file a buffer at a time, and the
// file is fsynced and renamed, making snapshot installation atomic under
// crashes: a write that fails part-way leaves nothing behind.
func (w *Writer) Snapshot() error {
	w.snapMu.Lock()
	defer w.snapMu.Unlock()

	f, err := w.fs.CreateTemp(w.dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	tmp := f.Name()
	// On a follower, holding applyMu across the pin keeps the term read
	// below at the pinned LSN (see ApplyAppend), and is released the moment
	// the view is pinned so the encode, the file I/O and the compaction
	// below all run with replication apply flowing.  On a primary the
	// lock is uncontended and the pin waits only for a mutation already
	// past its journal append to finish installing.
	w.applyMu.Lock()
	v, err := w.pinNewest()
	// The records counted so far are, give or take the few still buffered,
	// what the pinned view holds: the count the snapshot retires at its end.
	// Records committed while it runs stay counted toward the next one.
	covered := w.sinceSnap.Load()
	term := w.db.CurrentTerm() // at the pinned LSN: a term moves only under applyMu
	w.applyMu.Unlock()
	if err != nil {
		f.Close()
		w.fs.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	defer v.Close()
	lsn := v.LSN()
	if lsn <= w.snapLSN.Load() {
		// Nothing newer than the snapshot already on disk.
		f.Close()
		w.fs.Remove(tmp)
		return nil
	}
	err = writeCheckpoint(f, v, term)
	if err == nil {
		// Flush the log through the pinned LSN before the snapshot becomes
		// visible.  The pinned records may still sit in the in-memory
		// buffer; installing a snapshot that covers them while the tail
		// segment ends short of them would let a crash leave a log whose
		// next append is discontinuous with its last record — which a
		// later recovery must (and does) refuse.
		err = w.Commit()
	}
	if err := seal(w.fs, f, err, filepath.Join(w.dir, snapshotName(lsn))); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	w.snapLSN.Store(lsn)
	w.sinceSnap.Add(-covered)
	w.compact(lsn)
	return nil
}

// pinNewest pins a read view at the journal's newest assigned LSN.  On a
// primary, records keep arriving between reading that position and pinning
// it, and a reclaim pass in that window may move the version horizon past
// it; the view is then pinned at the newer position instead — a snapshot
// has no use for the older one, and a healthy node must not degrade over
// it.  The horizon never passes the newest record, so re-reading converges.
func (w *Writer) pinNewest() (*meta.View, error) {
	for {
		lsn := w.lastLSN.Load()
		if w.pinHook != nil {
			w.pinHook()
		}
		v, err := w.db.ReadViewAt(lsn)
		if errors.Is(err, meta.ErrViewReclaimed) && w.lastLSN.Load() > lsn {
			continue
		}
		return v, err
	}
}

// seal finishes f, the temporary file of a file that is to be path: fsync,
// close, and atomic rename into place.  werr is the error state of the
// writes so far; on any failure the temporary file is removed and nothing
// is installed.  Every file written whole — a snapshot of either producer,
// Snapshot and BootstrapSnapshot — installs through here, so crash-safety
// fixes to the sequence apply to both.
func seal(vfs faultfs.FS, f faultfs.File, werr error, path string) error {
	tmp := f.Name()
	err := werr
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = vfs.Rename(tmp, path)
	}
	if err != nil {
		vfs.Remove(tmp)
	}
	return err
}

// compact deletes log segments fully covered by the snapshot at lsn — a
// segment is disposable once a successor segment exists whose records all
// fit under the snapshot horizon — and every older snapshot.  Compaction
// races harmlessly with rotation: a segment created concurrently starts
// past lsn and is never considered.
func (w *Writer) compact(lsn int64) {
	segs, snaps, _, err := list(w.fs, w.dir)
	if err != nil {
		return // compaction is best-effort; recovery tolerates extra files
	}
	for _, s := range snaps {
		if s < lsn {
			w.fs.Remove(filepath.Join(w.dir, snapshotName(s)))
		}
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] <= lsn+1 {
			w.fs.Remove(filepath.Join(w.dir, segmentName(segs[i])))
		}
	}
}

// snapshotLoop services the record-count trigger.
func (w *Writer) snapshotLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.quit:
			return
		case <-w.snapCh:
		}
		// Commits made while the last snapshot ran queued a signal its
		// records may already be covered by.
		if w.sinceSnap.Load() < w.opt.SnapshotEvery {
			continue
		}
		if err := w.Snapshot(); err != nil {
			// A full disk is not yet fatal: the append path frees space by
			// compacting behind the last good snapshot and the trigger
			// stays armed, so the snapshot retries once space returns.
			// Anything else is a durability failure and degrades the node.
			if errors.Is(err, syscall.ENOSPC) {
				continue
			}
			w.mu.Lock()
			w.failLocked(err)
			w.mu.Unlock()
		}
	}
}

// spillLoop services buffer-overflow wake-ups from Record and ApplyAppend
// on its own goroutine — deliberately not snapshotLoop, whose Snapshot
// calls take seconds on a large database and would let the buffer grow
// unboundedly past its bound while one is in flight.  Commit failures are
// already sticky in ioErr and surface at the caller's next Commit.
func (w *Writer) spillLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.quit:
			return
		case <-w.spillCh:
			_ = w.Commit()
		}
	}
}

// Close flushes the journal, writes a final snapshot (so the next Open
// replays nothing), detaches from the database and closes the segment.
// The caller must have quiesced writers first.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		err := w.ioErr
		w.mu.Unlock()
		return err
	}
	w.closed = true
	w.mu.Unlock()
	close(w.quit)
	w.wg.Wait()

	err := w.Commit()
	if err == nil && w.lastLSN.Load() > w.snapLSN.Load() {
		// Anything beyond the newest snapshot — fresh records or a tail
		// this process merely replayed at Open — gets folded in, so the
		// next Open loads one checkpoint and replays nothing.
		err = w.Snapshot()
	}
	w.db.SetRecorder(nil)
	w.mu.Lock()
	if w.seg != nil {
		if cerr := w.seg.Close(); err == nil {
			err = cerr
		}
		w.seg = nil
	}
	w.mu.Unlock()
	return err
}
