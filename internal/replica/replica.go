// Package replica is the follower side of the append-only journal's
// replication: live followers — warm standbys that serve REPORT/GAP/STATE
// queries from a mirrored meta-database while refusing writes, the read
// scale-out half of the paper's single project server grown to production
// shape.  The stream itself is served by the project server (package
// server) from the node's own journal: a follower connects with FOLLOW
// <last-applied-lsn>, gets a snapshot bootstrap if its position predates the
// oldest retained segment, then committed records in strict LSN order —
// never a record above the commit watermark, so a follower can never hold
// state a primary crash would lose.
//
// A Follower appends each record's frame, exactly as the primary's segment
// holds it and checked against the primary's checksum, to its own local
// journal and applies it to its own database: the follower's log is
// frame-for-frame identical to the primary's, a restart resumes from
// exactly the persisted applied position, and the caught-up follower's
// checkpoint is byte-identical to the primary's.
package replica

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/server"
)

// Follower is a live replication follower: a local journal directory, the
// mirrored database recovered from it, and a background loop that keeps
// both in step with the primary, reconnecting (and re-bootstrapping when
// left too far behind) as needed.  It implements server.ReadFollower, so
// a read-only server over DB() answers read-your-LSN queries.
type Follower struct {
	dir        string
	w          *journal.Writer
	db         *meta.DB
	backoffMin time.Duration
	backoffMax time.Duration
	stall      time.Duration // dead-link detector; 0 = legacy unbounded stream reads
	dialMax    time.Duration // bound on one dial attempt

	mu         sync.Mutex
	addr       string // current primary; Repoint swaps it on a live loop
	applied    int64
	watermark  int64 // newest caught-up watermark seen from the primary
	progress   bool  // frames applied since the last reconnect
	conn       *server.Client
	err        error              // terminal replication error; nil while healthy
	advCh      chan struct{}      // WaitApplied's wake channel; nil until one waits
	repointCh  chan struct{}      // closed and replaced by Repoint: wakes a backoff pause
	dialCancel context.CancelFunc // cancels the in-flight dial; nil outside one
	freshAt    time.Time          // last upstream freshness evidence; zero = none yet

	upHealth atomic.Value // string: "" unknown/ok, else the upstream's degraded reason

	stats struct {
		connects   atomic.Int64 // successful dials
		failures   atomic.Int64 // failed dials and broken streams
		bootstraps atomic.Int64 // snapshot re-bases
		records    atomic.Int64 // records applied
		acks       atomic.Int64 // ACK lines sent upstream
		stalls     atomic.Int64 // dead links detected by the stall timeout
	}

	stop     chan struct{}
	stopOnce sync.Once
	aborting atomic.Bool
	promoted atomic.Bool
	done     chan struct{}
}

// FollowerStats is a point-in-time copy of the replication loop's
// counters — the observability surface for reconnect churn.
type FollowerStats struct {
	Connects   int64 // successful dials since Start
	Failures   int64 // failed dials and broken streams
	Bootstraps int64 // snapshot re-bases (left behind by compaction)
	Records    int64 // records applied
	Acks       int64 // ACK progress lines sent upstream
	Stalls     int64 // dead links detected by the stall timeout (half-open streams)
}

// Option tunes a Follower.
type Option func(*Follower)

// WithBackoff bounds the reconnect backoff: the first retry waits min,
// each failure doubles the wait up to max, and every wait is jittered
// ±25% so a fleet of followers orphaned by the same primary death does
// not reconnect in lockstep.  The defaults are 50ms and 1s.
func WithBackoff(min, max time.Duration) Option {
	return func(f *Follower) {
		if min > 0 {
			f.backoffMin = min
		}
		if max >= f.backoffMin {
			f.backoffMax = max
		}
	}
}

// DefaultStallTimeout is the follower's dead-link detector default:
// five server.DefaultPingInterval ticks must go missing in a row before a
// stream is declared dead, so scheduler hiccups never look like
// partitions, while a genuinely half-open link is torn down in seconds
// rather than held forever by TCP's multi-minute patience.
const DefaultStallTimeout = 10 * time.Second

// WithStallTimeout sets how long the follower lets the stream stay
// silent before declaring the link dead — tearing it down, counting a
// stall in Stats, and reconnecting through the normal backoff.  The
// primary pings idle streams (see server.DefaultPingInterval), so silence past
// a few intervals can only be a dead or half-open connection.  d ≤ 0
// disables the detector (the legacy unbounded read).  The timeout also
// bounds the dial-side FOLLOW handshake: a blackholed primary that
// accepts the TCP connect but never answers is caught here too.
func WithStallTimeout(d time.Duration) Option {
	return func(f *Follower) {
		if d < 0 {
			d = 0
		}
		f.stall = d
	}
}

// Start opens (or resumes) the follower's local journal in dir and begins
// replicating from the primary at addr.  The returned follower's database
// is live immediately — recovered to the persisted applied position, then
// mutated in place as records stream in.
func Start(dir, addr string, opt journal.Options, opts ...Option) (*Follower, error) {
	w, db, err := journal.OpenFollower(dir, opt)
	if err != nil {
		return nil, err
	}
	f := &Follower{
		dir:        dir,
		addr:       addr,
		w:          w,
		db:         db,
		backoffMin: 50 * time.Millisecond,
		backoffMax: time.Second,
		stall:      DefaultStallTimeout,
		dialMax:    5 * time.Second,
		applied:    w.LastLSN(),
		repointCh:  make(chan struct{}),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	for _, o := range opts {
		o(f)
	}
	go f.run()
	return f, nil
}

// DB returns the mirrored database.  It is read-only by contract: local
// writes would fork the replica from its primary.
func (f *Follower) DB() *meta.DB { return f.db }

// AppliedLSN returns the newest primary record applied and persisted.
func (f *Follower) AppliedLSN() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// Watermark returns the newest caught-up commit watermark the primary has
// reported — AppliedLSN == Watermark means the follower has seen
// everything the primary had committed at that moment.
func (f *Follower) Watermark() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.watermark
}

// Stats returns a copy of the replication loop's counters.
func (f *Follower) Stats() FollowerStats {
	return FollowerStats{
		Connects:   f.stats.connects.Load(),
		Failures:   f.stats.failures.Load(),
		Bootstraps: f.stats.bootstraps.Load(),
		Records:    f.stats.records.Load(),
		Acks:       f.stats.acks.Load(),
		Stalls:     f.stats.stalls.Load(),
	}
}

// Staleness reports the wall-clock age of the follower's last upstream
// freshness evidence — an applied record, a caught-up watermark, or a
// liveness ping — and whether any has arrived at all.  It bounds how old
// the data served from DB() can be relative to the primary: a small age
// means the link was provably alive (and the follower caught up or
// catching up) that recently; a growing age means reads are drifting
// into the past, the thing a half-open link used to hide.  The server's
// ROLE verb surfaces it as staleness=<ms>.
func (f *Follower) Staleness() (time.Duration, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.freshAt.IsZero() {
		return 0, false
	}
	return time.Since(f.freshAt), true
}

// UpstreamHealth reports what the primary last said about its own journal:
// ok is false (with the primary's reason) after a health frame announced
// upstream degradation, and flips back to true the moment records flow
// again — a recovered or replaced primary clears the flag by making
// progress, not by an explicit all-clear frame.
func (f *Follower) UpstreamHealth() (ok bool, reason string) {
	r, _ := f.upHealth.Load().(string)
	return r == "", r
}

// Writer exposes the follower's own journal writer — the chaining handle:
// a read-only server over this follower serves FOLLOW from it to downstream
// followers, relaying the watermark only up to its own committed position,
// and after Promote it is the new primary's journal.
func (f *Follower) Writer() *journal.Writer { return f.w }

// Term returns the election term of the follower's replicated history.
func (f *Follower) Term() int64 { return f.w.Term() }

// Repoint re-targets the follower at a different primary: the current
// stream (if any) is hung up, an in-flight dial is canceled, a backoff
// pause is cut short, and the reconnect loop dials the new address
// immediately — re-pointing during an outage (the very moment it
// happens) must not wait out a dial to a dead address or a backoff
// earned by one.  Duplicate records across the switch are skipped, a
// gap is a terminal error, and a divergent-lineage upstream is refused
// by term fencing — re-pointing is safe exactly when the new upstream
// shares the follower's history.
func (f *Follower) Repoint(addr string) {
	f.mu.Lock()
	f.addr = addr
	c := f.conn
	cancel := f.dialCancel
	close(f.repointCh)
	f.repointCh = make(chan struct{})
	f.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if c != nil {
		c.Hangup()
	}
}

// Promote flips the follower into a primary: the replication loop is
// stopped and drained (its tail committed), the term is bumped with a
// journal record, and the journal writer switches to primary mode and
// becomes the database's recorder — an engine over the database journals
// from then on — ready for a server (WithJournal).  After a successful
// Promote the replication loop is done (Done() is closed with Promoted()
// true, Err() nil) and Close/Abort must not be called: the journal now
// belongs to the primary plane.
//
// The hinge of crash atomicity is the term-bump record's commit: a crash
// before it leaves a valid follower journal (still a follower), a crash
// after it a valid primary journal at the new term (recovery seeds the
// term from the record).  There is no intermediate state on disk.
func (f *Follower) Promote() (term, lsn int64, err error) {
	f.promoted.Store(true)
	f.halt()
	if ferr := f.Err(); ferr != nil {
		f.promoted.Store(false)
		return 0, 0, fmt.Errorf("replica: promote: replication failed terminally: %w", ferr)
	}
	term, lsn, err = f.w.Promote()
	if err != nil {
		f.promoted.Store(false)
		return 0, 0, err
	}
	f.mu.Lock()
	f.applied = lsn
	f.wakeLocked()
	f.mu.Unlock()
	return term, lsn, nil
}

// Promoted reports whether Promote has stopped this follower; daemons
// watching Done use it to tell a promotion from a terminal failure.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// Done is closed when the replication loop has stopped — after Close or
// Abort, or on a terminal error (see Err).  Daemons select on it so a
// dead loop is surfaced instead of silently serving ever-staler state.
func (f *Follower) Done() <-chan struct{} { return f.done }

// Err returns the terminal replication error, if the loop has given up
// (an LSN gap or apply failure — never a mere disconnect, which retries).
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// WaitApplied blocks until the follower has applied at least lsn, the
// timeout expires, or replication fails terminally.  It returns the
// applied position at return time.
func (f *Follower) WaitApplied(lsn int64, timeout time.Duration) (int64, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		f.mu.Lock()
		applied, err := f.applied, f.err
		if f.advCh == nil {
			f.advCh = make(chan struct{})
		}
		ch := f.advCh
		f.mu.Unlock()
		if applied >= lsn {
			return applied, nil
		}
		if err != nil {
			return applied, err
		}
		select {
		case <-ch:
		case <-f.done:
			return f.AppliedLSN(), fmt.Errorf("replica: follower stopped at lsn %d, wanted %d", f.AppliedLSN(), lsn)
		case <-timer.C:
			return applied, fmt.Errorf("replica: timeout at lsn %d, wanted %d", applied, lsn)
		}
	}
}

// Close stops replicating and closes the local journal cleanly (final
// commit and snapshot), so the next Start replays nothing.
func (f *Follower) Close() error {
	f.halt()
	return f.w.Close()
}

// Abort stops replicating and drops the journal without flushing its
// buffer — the crash-simulation exit.  The records not yet written through
// are lost: less than the journal's 64 KiB follower buffer of re-fetchable
// progress, none of it acknowledged.  The on-disk log stays valid and a
// restarted follower resumes from its persisted position, re-fetching (and
// duplicate-skipping across) the lost tail.  The aborting flag suppresses the loop's
// park-commit: without it, every Abort would flush the buffer on the way
// out and the "crash" would never lose anything.
func (f *Follower) Abort() {
	f.aborting.Store(true)
	f.halt()
	f.w.Abort()
}

func (f *Follower) halt() {
	f.stopOnce.Do(func() {
		close(f.stop)
		f.mu.Lock()
		if f.conn != nil {
			f.conn.Hangup() // unblock a read parked on the stream
		}
		if f.dialCancel != nil {
			f.dialCancel() // unblock a dial parked on a blackholed address
		}
		f.mu.Unlock()
	})
	<-f.done
}

// terminalError marks an apply-side failure that must stop the loop:
// reconnecting cannot fix a gap or a record the database refuses.
type terminalError struct{ err error }

func (t terminalError) Error() string { return t.err.Error() }

// dial opens one upstream connection.  The attempt is bounded by dialMax
// and cancelable by Repoint and halt — a dial parked on a blackholed
// address must not pin the loop to a primary the caller already knows is
// gone.  The resulting client gets the stall timeout as the bound on its
// peer's silence: a half-open accept that never answers FOLLOW dies on it,
// and so does a stream that stops delivering whole frames.
func (f *Follower) dial() (*server.Client, error) {
	f.mu.Lock()
	addr := f.addr
	ctx, cancel := context.WithTimeout(context.Background(), f.dialMax)
	f.dialCancel = cancel
	f.mu.Unlock()
	conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
	f.mu.Lock()
	f.dialCancel = nil
	f.mu.Unlock()
	cancel()
	if err != nil {
		return nil, err
	}
	return server.NewClient(conn, f.stall), nil
}

func (f *Follower) run() {
	defer close(f.done)
	delay := f.backoffMin
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		c, err := f.dial()
		if err != nil {
			f.stats.failures.Add(1)
			if !f.pause(&delay) {
				return
			}
			continue
		}
		f.stats.connects.Add(1)
		f.mu.Lock()
		f.conn = c
		f.progress = false
		select {
		case <-f.stop:
			// halt() may have swept before the connection was registered;
			// it would then never see it to hang it up.
			f.conn = nil
			f.mu.Unlock()
			c.Hangup()
			return
		default:
		}
		f.mu.Unlock()
		err = c.FollowFrom(f.AppliedLSN(), f.w.Term(), f.apply)
		if err != nil {
			f.stats.failures.Add(1)
			// A read-deadline expiry on the stream is the stall detector
			// firing: the link went silent past the timeout while a pinged
			// primary would have spoken — a dead or half-open connection,
			// counted separately from ordinary breaks.
			if errors.Is(err, server.ErrTimeout) {
				f.stats.stalls.Add(1)
			}
		}
		c.Hangup()
		f.mu.Lock()
		f.conn = nil
		madeProgress := f.progress
		f.mu.Unlock()
		// Park whatever the stream delivered before the break — unless
		// this is a crash-simulating Abort, whose whole point is losing
		// the uncommitted tail.
		if !f.aborting.Load() {
			if cerr := f.w.Commit(); cerr != nil {
				err = terminalError{cerr}
			}
		}
		// A rejection or a primary-reported stream failure cannot be
		// fixed by reconnecting with the same position: wrong primary,
		// reset primary history, or tail corruption.  Retrying forever
		// would make dead replication look like a healthy idle follower.
		if errors.Is(err, server.ErrFollowRefused) || errors.Is(err, server.ErrFollowStream) {
			err = terminalError{err}
		}
		var te terminalError
		if errors.As(err, &te) {
			f.mu.Lock()
			f.err = te.err
			f.wakeLocked()
			f.mu.Unlock()
			return
		}
		select {
		case <-f.stop:
			return
		default:
		}
		if madeProgress {
			delay = f.backoffMin
		}
		if !f.pause(&delay) {
			return
		}
	}
}

// wakeLocked broadcasts a state change to every WaitApplied waiter by
// closing the watch channel, if a waiter made one; the next waiter makes
// the next.  Callers hold f.mu; every path that changes applied/err must
// come through here or a waiter on the skipped path sleeps until its
// timeout.
func (f *Follower) wakeLocked() {
	if f.advCh != nil {
		close(f.advCh)
		f.advCh = nil
	}
}

// pause sleeps the current backoff — jittered ±25% so orphaned followers
// decorrelate — doubles it up to the configured cap, and reports whether
// the loop should continue.  A Repoint cuts the sleep short and resets
// the ladder: the backoff was earned against the old address, and the
// new one deserves an immediate, fresh attempt.
func (f *Follower) pause(delay *time.Duration) bool {
	d := *delay
	if j := int64(d / 4); j > 0 {
		d += time.Duration(rand.Int64N(2*j) - j)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	if *delay < f.backoffMax {
		*delay *= 2
		if *delay > f.backoffMax {
			*delay = f.backoffMax
		}
	}
	f.mu.Lock()
	repoint := f.repointCh
	f.mu.Unlock()
	select {
	case <-f.stop:
		return false
	case <-repoint:
		*delay = f.backoffMin
		return true
	case <-t.C:
		return true
	}
}

// sendAck reports the follower's applied-and-committed position upstream
// on the live stream.  Called after every commit the stream drives (a
// watermark, a bootstrap); a send failure is ignored here — the broken
// transport surfaces on the stream's read side and triggers the normal
// reconnect.
func (f *Follower) sendAck(lsn int64) {
	f.mu.Lock()
	c := f.conn
	f.mu.Unlock()
	if c == nil {
		return
	}
	if c.SendAck(lsn) == nil {
		f.stats.acks.Add(1)
	}
}

// apply consumes one stream event.  Errors it returns deliberately are
// terminal; transport-level failures surface from FollowFrom itself and
// lead to a reconnect.
func (f *Follower) apply(ev journal.FollowEvent) error {
	switch ev.Kind {
	case journal.FollowRecord:
		lsn, err := f.w.ApplyAppend(ev.Frame)
		if err != nil {
			return terminalError{err}
		}
		f.upHealth.Store("") // records flowing again: upstream recovered
		f.stats.records.Add(1)
		f.mu.Lock()
		f.applied = lsn
		f.freshAt = time.Now()
		f.progress = true
		f.wakeLocked()
		f.mu.Unlock()

	case journal.FollowSnapshot:
		if err := f.w.BootstrapSnapshot(ev.SnapLSN, ev.Snapshot); err != nil {
			return terminalError{err}
		}
		f.stats.bootstraps.Add(1)
		f.mu.Lock()
		f.applied = ev.SnapLSN
		f.freshAt = time.Now()
		f.progress = true
		f.wakeLocked()
		f.mu.Unlock()
		f.sendAck(ev.SnapLSN)

	case journal.FollowMark:
		// Caught up: the primary has nothing more committed.  This is the
		// follower's commit point — the records applied since the last one
		// are made durable with one fsync, and only then acknowledged.
		// Between marks the journal writes them through unsynced.
		if err := f.w.Commit(); err != nil {
			return terminalError{err}
		}
		f.mu.Lock()
		f.watermark = ev.Watermark
		f.freshAt = time.Now()
		applied := f.applied
		f.wakeLocked()
		f.mu.Unlock()
		f.sendAck(applied)

	case journal.FollowPing:
		// Idle-stream liveness tick: the primary is alive and still caught
		// up at its Watermark, it just has nothing to ship — freshness
		// evidence without data.  The tailer only pings from its caught-up
		// state, so that is a watermark this stream has fully delivered.
		f.mu.Lock()
		if ev.Watermark > f.watermark {
			f.watermark = ev.Watermark
		}
		f.freshAt = time.Now()
		f.wakeLocked()
		f.mu.Unlock()

	case journal.FollowHealth:
		// Upstream degraded: the parked watermark is final until its disk
		// fault clears.  Remember why, for this node's own ROLE health and
		// operators asking the replica what happened to its primary.
		reason := ev.Reason
		if reason == "" {
			reason = "upstream degraded"
		}
		f.upHealth.Store(reason)
	}
	return nil
}
