// Package server implements the DAMOCLES project server of Figure 1: a TCP
// daemon owning the meta-database and the BluePrint engine.  Wrapper
// programs connect, post design events, create OIDs and links, and query
// project state; the engine processes events sequentially, first-in
// first-out.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/state"
	"repro/internal/viz"
	"repro/internal/wire"
)

// Server is a running project server.
type Server struct {
	eng *engine.Engine

	// role is the replication role.  The options fill the first value in
	// before New returns; after that a role is never written, only replaced
	// whole — once, by PROMOTE — so a request that loads it once sees all
	// of the follower or all of the primary.
	role atomic.Pointer[role]

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup

	// promoteMu serializes PROMOTE requests end to end, so a second
	// request observes the flipped role instead of racing the hook.
	promoteMu sync.Mutex

	quorum *quorum

	limits     Limits
	inflight   chan struct{} // admission semaphore; nil = unlimited
	logf       func(format string, args ...any)
	followPing time.Duration // idle FOLLOW streams' liveness cadence; 0 = silent idle

	// testHookHandle, when set by an in-package test, runs at the top of
	// every handled request — the seam overload tests use to park a
	// request inside its in-flight slot.
	testHookHandle func(wire.Request)

	quit chan struct{}

	counters Counters
}

// role is one replication role: a primary's journal, or a read-only
// follower's applier and the hook that promotes it.
type role struct {
	journal  *journal.Writer
	readOnly ReadFollower
	promote  func() (Promotion, error)
}

// Counters are the server's shed/refusal tallies, exported through
// STATS so a load generator's client-side error accounting can be
// reconciled exactly against what the server says it refused.
type Counters struct {
	// ConnsShed counts connections refused at accept time by the
	// MaxConns gate.
	ConnsShed atomic.Int64

	// InflightShed counts requests refused by the MaxInflight gate.
	InflightShed atomic.Int64

	// ReadOnlyRefused counts mutating verbs refused because this node is
	// a read-only follower.
	ReadOnlyRefused atomic.Int64

	// DegradedRefused counts writes refused by the journal-io degraded
	// contract.
	DegradedRefused atomic.Int64

	// BatchOversize counts BATCH requests refused for exceeding the
	// item bound.
	BatchOversize atomic.Int64

	// Panics counts connection handlers lost to a recovered panic.
	Panics atomic.Int64
}

// Limits bounds the server's exposure to slow, stuck or excessive
// clients.  The zero value means unlimited connections and in-flight
// requests, no deadlines, and the default BATCH bound — the historical
// behaviour, minus unbounded BATCH.
type Limits struct {
	// MaxConns caps concurrent connections; past it, new connections are
	// shed with an explicit "overloaded" error line, never silently
	// dropped.  0 means unlimited.
	MaxConns int

	// MaxInflight caps concurrently-executing requests across all
	// connections (FOLLOW streams are exempt — they are subscriptions,
	// bounded by MaxConns).  Excess requests are refused with
	// "overloaded", not queued: the client knows immediately and can back
	// off.  0 means unlimited.
	MaxInflight int

	// MaxBatchItems caps items in one BATCH request; 0 means
	// DefaultMaxBatchItems.  A bound always applies: one request must not
	// expand into unbounded queued work.
	MaxBatchItems int

	// IdleTimeout closes a connection whose next request does not arrive
	// in time.  It does not apply to FOLLOW connections, which are
	// legitimately silent between commits.  0 means no deadline.
	IdleTimeout time.Duration

	// WriteTimeout bounds each write to the client, so a stalled consumer
	// of a large REPORT or a follow stream kills its own connection
	// instead of parking a handler goroutine forever.  0 means no
	// deadline.
	WriteTimeout time.Duration
}

// DefaultMaxBatchItems bounds BATCH when Limits leaves it unset.
const DefaultMaxBatchItems = 4096

// WithLimits applies connection, admission and deadline bounds.
func WithLimits(l Limits) Option { return func(s *Server) { s.limits = l } }

// WithLogger routes the server's diagnostics (handler panics, accept
// backoff) through logf; the default is the standard library's
// log.Printf.
func WithLogger(logf func(format string, args ...any)) Option {
	return func(s *Server) {
		if logf != nil {
			s.logf = logf
		}
	}
}

// DefaultPingInterval is the liveness cadence of idle FOLLOW streams:
// several ticks fit inside a follower's default stall timeout, so one lost or
// late ping never looks like a dead link.
const DefaultPingInterval = 2 * time.Second

// WithFollowPing sets how often an idle FOLLOW stream carries a liveness
// ping (DefaultPingInterval when unset); d ≤ 0 leaves idle streams silent.
func WithFollowPing(d time.Duration) Option {
	return func(s *Server) { s.followPing = max(d, 0) }
}

// ReadFollower is the follower-side applier a read-only server consults
// for its applied position, its replication standing and health (ROLE),
// for read-your-LSN queries, and for the journal it serves FOLLOW from
// (implemented by replica.Follower).
type ReadFollower interface {
	AppliedLSN() int64
	Watermark() int64
	Term() int64
	WaitApplied(lsn int64, timeout time.Duration) (int64, error)
	Err() error                               // the replication loop's terminal failure
	UpstreamHealth() (ok bool, reason string) // the upstream's journal health, as last streamed
	Staleness() (time.Duration, bool)         // age of the last word from upstream; false if none yet
	Writer() *journal.Writer                  // the follower's own journal; FOLLOW chains from it
}

// Promotion is what a promotion hook hands back to the server: the
// journal that now accepts local writes (the follower's own, flipped to
// primary mode, which FOLLOW goes on serving) and the new term.  The hook
// — built by the daemon, which owns the replication plumbing the server
// cannot import — must have already stopped the apply loop, written the
// term-bump record, and attached the journal to the engine before
// returning.
type Promotion struct {
	Journal *journal.Writer
	Term    int64
	LSN     int64
}

// Option configures a Server.
type Option func(*Server)

// WithJournal tells the server which journal persists its database, so
// mutations that do not ride a drain commit it before their response is
// written — LINK, SNAPSHOT, CREATE (whose OID is created outside the
// drain), and SYNC — the same on-disk-before-ack guarantee the engine
// provides for event processing.  The engine should carry the same journal
// via engine.WithJournal.  The journal also makes the server a replication
// primary: the FOLLOW verb streams it.
func WithJournal(j *journal.Writer) Option { return func(s *Server) { s.role.Load().journal = j } }

// WithReadOnly puts the server in follower read mode: every mutating verb
// (POST, BATCH, CREATE, LINK, SNAPSHOT) is refused — the database is
// mirrored from a primary and local writes would fork it — while the read
// verbs (REPORT, GAP, STATE, QUERY-style lookups) serve from the
// replicated state.  REPORT/GAP accept an optional minimum LSN that waits
// on f until the replica has applied at least that position, giving
// clients read-your-writes across the primary/follower boundary.
func WithReadOnly(f ReadFollower) Option { return func(s *Server) { s.role.Load().readOnly = f } }

// WithPromote arms the PROMOTE verb on a read-only follower server: the
// hook performs the actual role flip (stop replicating, bump the term,
// re-wire the engine) and the server then atomically swaps its own role
// state to primary.  Without it PROMOTE is refused.
func WithPromote(hook func() (Promotion, error)) Option {
	return func(s *Server) { s.role.Load().promote = hook }
}

// WithQuorum holds each write's acknowledgement until n follower
// watermarks cover its LSN, as reported by ACK lines on their FOLLOW
// connections.  A write that cannot gather its quorum within timeout
// (default 5s) degrades to an explicit "quorum-timeout" error — the write
// is committed locally and will replicate when followers return; it is
// never silently lost, and never silently under-replicated.
func WithQuorum(n int, timeout time.Duration) Option {
	return func(s *Server) {
		if n <= 0 {
			return
		}
		if timeout <= 0 {
			timeout = 5 * time.Second
		}
		s.quorum = newQuorum(n, timeout)
	}
}

// New creates a server around an engine.
func New(eng *engine.Engine, opts ...Option) *Server {
	s := &Server{
		eng:        eng,
		conns:      make(map[net.Conn]bool),
		quit:       make(chan struct{}),
		logf:       log.Printf,
		followPing: DefaultPingInterval,
	}
	s.role.Store(new(role))
	for _, o := range opts {
		o(s)
	}
	if s.limits.MaxInflight > 0 {
		s.inflight = make(chan struct{}, s.limits.MaxInflight)
	}
	return s
}

// admit reserves an in-flight execution slot, returning its release and
// whether the request may run.  Saturation sheds immediately rather than
// queueing: an explicit "overloaded" travels back to the client while the
// server's actual work stays bounded.
func (s *Server) admit() (release func(), ok bool) {
	if s.inflight == nil {
		return func() {}, true
	}
	select {
	case s.inflight <- struct{}{}:
		return func() { <-s.inflight }, true
	default:
		return nil, false
	}
}

// errf and okf build the single-line ERR and OK responses.
func errf(format string, a ...any) wire.Response {
	return wire.Response{OK: false, Detail: fmt.Sprintf(format, a...)}
}

func okf(format string, a ...any) wire.Response {
	return wire.Response{OK: true, Detail: fmt.Sprintf(format, a...)}
}

// overloadedResp is the explicit shed response of the admission gates.
func overloadedResp(what string) wire.Response { return errf("overloaded: %s", what) }

// Engine exposes the underlying engine, e.g. for in-process inspection in
// tests and tools.
func (s *Server) Engine() *engine.Engine { return s.eng }

// commit flushes the journal, if one is attached.  A failure here is the
// journal-io degraded contract speaking: the prefix tells the client its
// write was refused by the disk, not the protocol.
func (r *role) commit() error {
	if r.journal == nil {
		return nil
	}
	if err := r.journal.Commit(); err != nil {
		return fmt.Errorf("journal-io: %v", err)
	}
	return nil
}

// settle holds a write's acknowledgement until the write is on disk and
// the configured quorum of follower watermarks covers it.  commit is false
// when the change rode a drain, which committed it already (a second
// Commit would be a second fsync).  Once committed, a quorum timeout means
// under-replication, not loss, and the error says so explicitly instead of
// stalling forever or lying with an OK.
func (s *Server) settle(r *role, commit bool) error {
	if commit {
		if err := r.commit(); err != nil {
			return err
		}
	}
	if s.quorum == nil || r.journal == nil {
		return nil
	}
	return s.quorum.wait(r.journal.LastLSN(), s.quit)
}

// Listen starts accepting connections on addr ("host:port"; port 0 picks a
// free port) and returns the bound address.  Serving happens on background
// goroutines; call Close to stop.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("server: already closed")
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	const backoffMin, backoffMax = 5 * time.Millisecond, time.Second
	backoff := backoffMin
	for {
		conn, err := ln.Accept()
		if err != nil {
			// A transient accept failure (EMFILE under connection pressure
			// is the classic) must not tight-loop the CPU or, worse, kill
			// the accept loop and silently stop the server.  Back off with
			// jitter and retry; anything else means the listener is gone.
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				d := backoff + rand.N(backoff)
				s.logf("server: accept: %v (retrying in %v)", err, d)
				select {
				case <-s.quit:
					return
				case <-time.After(d):
				}
				if backoff < backoffMax {
					backoff *= 2
				}
				continue
			}
			return // listener closed
		}
		backoff = backoffMin
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.limits.MaxConns > 0 && len(s.conns) >= s.limits.MaxConns {
			// Shed, loudly: the one line tells the client this is load, not
			// a network failure, so its retry policy can be deliberate.
			s.mu.Unlock()
			s.counters.ConnsShed.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
				fmt.Fprintf(conn, "%s\n", overloadedResp(fmt.Sprintf("connection limit %d reached", s.limits.MaxConns)).Encode())
				conn.Close()
			}()
			continue
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops the listener and all connections and waits for handlers to
// finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	close(s.quit)
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	// Handlers have retired; park any straggling records on disk.  The
	// journal itself stays open — its owner (the daemon) closes it.
	return s.role.Load().commit()
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// timeoutConn applies the configured idle/write deadlines around every
// Read and Write, so one stalled peer kills its own connection instead of
// parking a handler goroutine (and its buffers) forever.  The server wraps
// each connection in one with its Limits, a Client its own with its op
// timeout.
type timeoutConn struct {
	net.Conn
	idle, write time.Duration
	noIdle      atomic.Bool
}

func (c *timeoutConn) Read(p []byte) (int, error) {
	if c.idle > 0 && !c.noIdle.Load() {
		c.Conn.SetReadDeadline(time.Now().Add(c.idle))
	}
	return c.Conn.Read(p)
}

func (c *timeoutConn) Write(p []byte) (int, error) {
	if c.write > 0 {
		c.Conn.SetWriteDeadline(time.Now().Add(c.write))
	}
	return c.Conn.Write(p)
}

// disableIdle lifts the idle read deadline for connection modes that are
// legitimately silent for long stretches — the FOLLOW ack reader, whose
// follower only speaks when records flow.
func (c *timeoutConn) disableIdle() {
	c.noIdle.Store(true)
	c.Conn.SetReadDeadline(time.Time{})
}

// connWriteBuffer is the size of a connection's write buffer.  Single-line
// responses are flushed as they are written whatever its size; it is the
// streamed REPORT/GAP that fills it, and the benchmark's report is 100 to
// 260 KB: at bufio's default 4 KiB that is a write(2) and a deadline reset
// every 40 to 90 rows, at 16 KiB a quarter of them.
const connWriteBuffer = 16 << 10

func (s *Server) serveConn(conn net.Conn) {
	defer s.dropConn(conn)
	// A panicking handler must cost exactly its own connection, never the
	// node: the panic is logged with its stack and the connection closes,
	// while every other client — and the journal — carries on.
	defer func() {
		if p := recover(); p != nil {
			s.counters.Panics.Add(1)
			s.logf("server: panic in connection handler: %v\n%s", p, debug.Stack())
		}
	}()
	tc := &timeoutConn{Conn: conn, idle: s.limits.IdleTimeout, write: s.limits.WriteTimeout}
	r := bufio.NewReaderSize(tc, 64*1024)
	w := bufio.NewWriterSize(tc, connWriteBuffer)
	for {
		line, err := readProtocolLine(r)
		if err != nil {
			// Transport end, idle deadline, oversized line, or a final
			// fragment torn off mid-send.  A fragment is never executed: a
			// truncated request can parse as a valid, different request,
			// and on a journaled primary the wrong mutation would be
			// committed and replicated.
			return
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		req, err := wire.ParseRequest(line)
		if err == nil && req.Verb == wire.VerbFollow {
			// FOLLOW dedicates the connection to the record stream; when
			// it returns, the conversation is over either way.  The stream
			// is a subscription, not a request: it takes no in-flight slot
			// (MaxConns bounds it) and may sit idle between commits
			// without tripping the idle deadline.
			tc.disableIdle()
			s.serveFollow(r, w, req)
			return
		}
		var resp wire.Response
		if err != nil {
			resp = errf("%v", err)
		} else if release, admitted := s.admit(); !admitted {
			s.counters.InflightShed.Add(1)
			resp = overloadedResp("too many in-flight requests")
		} else if req.Verb == wire.VerbReport || req.Verb == wire.VerbGap {
			// Streamed: rows go to the socket a write buffer at a time
			// instead of building the whole body first.
			alive := s.streamReport(w, req)
			release()
			if !alive {
				return
			}
			continue
		} else {
			resp = s.Handle(req)
			release()
		}
		if _, err := w.WriteString(resp.Encode() + "\n"); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
		if err == nil && req.Verb == wire.VerbQuit {
			return
		}
	}
}

// writeFlush writes one already-terminated chunk and pushes it to the
// socket; false means the connection is gone.
func writeFlush(w *bufio.Writer, chunk string) bool {
	if _, err := w.WriteString(chunk); err != nil {
		return false
	}
	return w.Flush() == nil
}

// reportGate validates the optional minimum-LSN argument of REPORT/GAP
// and, on a follower, blocks until the replica has applied that position.
// It returns a pinned MVCC view to evaluate the rows against — at exactly
// the requested LSN when the version history still reaches back that far,
// at the current stable epoch otherwise (still "at least" the requested
// position, the read-your-writes contract) — or, with a nil view, the error
// response to send instead.  The caller must Close a returned view once the
// rows are written.
func (s *Server) reportGate(req wire.Request) (*meta.View, wire.Response) {
	db := s.eng.DB()
	if len(req.Args) == 0 {
		return db.ReadView(), wire.Response{}
	}
	if len(req.Args) > 1 {
		return nil, errf("%s wants at most one <min-lsn> argument", req.Verb)
	}
	lsn, err := strconv.ParseInt(req.Args[0], 10, 64)
	if err != nil || lsn < 0 {
		return nil, errf("%s: bad min-lsn %q", req.Verb, req.Args[0])
	}
	switch r := s.role.Load(); {
	case r.readOnly != nil:
		if at, err := r.readOnly.WaitApplied(lsn, 10*time.Second); err != nil {
			return nil, errf("replica at lsn %d has not reached %d: %v", at, lsn, err)
		}
	case r.journal != nil:
		if at := r.journal.LastLSN(); at < lsn {
			return nil, errf("journal at lsn %d has not reached %d", at, lsn)
		}
	default:
		return nil, errf("%s <min-lsn> needs a journal or replica", req.Verb)
	}
	// The journal (or replica) has reached lsn, so a view pinned exactly
	// there answers "the state at my write", not "whatever is current once
	// we caught up".  History reclaimed below the horizon falls back to
	// the current stable view, which is newer than lsn and therefore still
	// satisfies the minimum.
	v, err := db.ReadViewAt(lsn)
	if err != nil {
		v = db.ReadView()
	}
	return v, wire.Response{}
}

// handleQuery serves QUERY <lsn> <reach|deps|equiv|resolve> <args...>:
// time-travel graph queries pinned at an LSN (0 = the current state).
// Primaries and read-only followers serve it alike — the LSN gate is the
// REPORT/GAP one (a follower blocks until it has applied the position), so
// the body at a given LSN is byte-identical on every node that has reached
// it.  reach/deps take an optional follow spec: "use" (hierarchy links),
// "all" (every link), or "type:t1,t2,..." (use links plus derive links of
// the named types); reach defaults to use, deps to all, matching the DB
// methods.  The walk runs on the pinned view through the versioned
// reachability index and takes zero shard locks.
func (s *Server) handleQuery(req wire.Request) wire.Response {
	if len(req.Args) < 2 {
		return errf("QUERY wants <lsn> <reach|deps|equiv|resolve> <args...>")
	}
	lsn, err := strconv.ParseInt(req.Args[0], 10, 64)
	if err != nil || lsn < 0 {
		return errf("QUERY: bad lsn %q", req.Args[0])
	}
	gateReq := wire.Request{Verb: req.Verb}
	if lsn > 0 {
		gateReq.Args = []string{req.Args[0]}
	}
	v, resp := s.reportGate(gateReq)
	if v == nil {
		return resp
	}
	defer v.Close()
	kind, args := req.Args[1], req.Args[2:]
	switch kind {
	case "reach", "deps":
		if len(args) < 1 || len(args) > 2 {
			return errf("QUERY %s wants <oid> [use|all|type:t1,t2,...]", kind)
		}
		root, err := meta.ParseKey(args[0])
		if err != nil {
			return errf("%v", err)
		}
		var follow meta.FollowFunc
		if len(args) == 2 {
			if follow, err = parseFollowSpec(args[1]); err != nil {
				return errf("%v", err)
			}
		}
		if !v.HasOID(root) {
			return errf("oid %v: not found", root)
		}
		if kind == "reach" {
			return keysResponse(v.Reachable(root, follow))
		}
		return keysResponse(v.Dependents(root, follow))
	case "equiv":
		if len(args) != 1 {
			return errf("QUERY equiv wants <oid>")
		}
		k, err := meta.ParseKey(args[0])
		if err != nil {
			return errf("%v", err)
		}
		if !v.HasOID(k) {
			return errf("oid %v: not found", k)
		}
		return keysResponse(v.Equivalents(k))
	case "resolve":
		if len(args) != 1 {
			return errf("QUERY resolve wants <configuration>")
		}
		r, err := v.Resolve(args[0])
		if err != nil {
			return errf("%v", err)
		}
		body := []string{fmt.Sprintf("config %s %d", wire.Quote(r.Config.Name), r.Config.Seq)}
		for _, o := range r.OIDs {
			body = append(body, "oid "+o.Key.String())
		}
		for _, l := range r.Links {
			body = append(body, fmt.Sprintf("link %d %s %s %s", l.ID, l.Class, l.From, l.To))
		}
		for _, k := range r.MissingOIDs {
			body = append(body, "missing-oid "+k.String())
		}
		for _, id := range r.MissingLinks {
			body = append(body, fmt.Sprintf("missing-link %d", id))
		}
		return wire.Response{OK: true,
			Detail: fmt.Sprintf("%d oids %d links %d missing",
				len(r.OIDs), len(r.Links), len(r.MissingOIDs)+len(r.MissingLinks)),
			Body: body}
	default:
		return errf("QUERY: unknown kind %q (want reach, deps, equiv or resolve)", kind)
	}
}

func keysResponse(keys []meta.Key) wire.Response {
	body := make([]string, len(keys))
	for i, k := range keys {
		body[i] = k.String()
	}
	return wire.Response{OK: true, Detail: fmt.Sprintf("%d keys", len(keys)), Body: body}
}

// parseFollowSpec maps the wire follow spec of QUERY reach/deps onto a
// FollowFunc.
func parseFollowSpec(spec string) (meta.FollowFunc, error) {
	switch {
	case spec == "use":
		return meta.FollowUseLinks, nil
	case spec == "all":
		return meta.FollowAllLinks, nil
	case strings.HasPrefix(spec, "type:"):
		types := strings.Split(strings.TrimPrefix(spec, "type:"), ",")
		return meta.FollowType(types...), nil
	}
	return nil, fmt.Errorf("bad follow spec %q (want use, all or type:t1,t2,...)", spec)
}

// streamReport serves REPORT/GAP over a live connection.  Each "|" body
// row is formatted in place in the connection's write buffer, which goes to
// the socket whenever it is full and once after the "." terminator: a
// report over a large database starts arriving after one buffer, never
// materializes as a whole, and costs a write per buffer, not per row.  A
// reader that stops reading blocks that write — its own connection only —
// until WriteTimeout ends the scan.  Rows keep the stable key-sorted order
// of the buffered form.  false means the connection died mid-stream.
func (s *Server) streamReport(w *bufio.Writer, req wire.Request) bool {
	v, resp := s.reportGate(req)
	if v == nil {
		return writeFlush(w, resp.Encode()+"\n")
	}
	defer v.Close()
	if _, err := w.WriteString("OK+ streaming\n"); err != nil {
		return false
	}
	s.scanReport(v, req.Verb == wire.VerbGap, func(key meta.Key, ready bool, reasons []byte) bool {
		// The row is built in the free tail of the write buffer, so Write
		// only advances past it; the buffer goes out first when the row may
		// not fit.  (A row larger than the whole buffer grows out of it by
		// append and is written through.)
		if w.Available() < reportRowMax(key, reasons)+2 && w.Flush() != nil {
			return false
		}
		b := append(w.AvailableBuffer(), '|')
		b = appendReportRow(b, key, ready, reasons)
		b = append(b, '\n')
		_, err := w.Write(b)
		return err == nil
	})
	return writeFlush(w, ".\n")
}

// scanReport runs the REPORT (or, with gap set, GAP) pass over the pinned
// view in key order and hands row each row to send.
func (s *Server) scanReport(v *meta.View, gap bool, row func(key meta.Key, ready bool, reasons []byte) bool) {
	if gap {
		all := row
		row = func(key meta.Key, ready bool, reasons []byte) bool {
			return ready || all(key, ready, reasons)
		}
	}
	state.ScanSortedView(v, s.eng.Blueprint(), row)
}

// appendReportRow appends one REPORT/GAP body row: the key, ready=<bool>
// and, unless the row is ready, its reasons as one quoted field.
func appendReportRow(dst []byte, key meta.Key, ready bool, reasons []byte) []byte {
	dst = key.AppendTo(dst)
	dst = append(dst, " ready="...)
	dst = strconv.AppendBool(dst, ready)
	if len(reasons) > 0 {
		dst = append(dst, ' ')
		dst = wire.AppendQuote(dst, reasons)
	}
	return dst
}

// reportRowMax bounds the bytes appendReportRow appends for a row: the two
// commas and up to 20 characters of version, " ready=false", and a space and
// two quotes around reasons whose every byte may be escaped.
func reportRowMax(key meta.Key, reasons []byte) int {
	return len(key.Block) + len(key.View) + 22 + len(" ready=false") + 3 + 2*len(reasons)
}

// followRequest is the FOLLOW handshake, "FOLLOW <after> <term> <version>":
// the follower's applied position, the election term of its history there —
// 0 for an observer (dquery -follow), which holds no history and is not
// fenced — and the version of the stream it reads.
type followRequest struct {
	after, term int64
	version     int
}

// A FOLLOW of another stream version is refused at the handshake: the two
// versions do not mix, and the nodes of a cluster upgrade together.
var (
	errFollowOld = errors.New("FOLLOW of an older stream version")
	errFollowNew = errors.New("FOLLOW of a newer stream version")
)

func (h followRequest) Bytes() []byte {
	return fmt.Appendf(nil, "%s %d %d %d", wire.VerbFollow, h.after, h.term, h.version)
}

// parseFollowRequest decodes the handshake's arguments, its version first: a
// newer version may lay the rest out anew, and a FOLLOW without one comes
// from a build of version 1.
func parseFollowRequest(args []string) (h followRequest, err error) {
	h.version = 1
	if len(args) >= 3 {
		if h.version, err = strconv.Atoi(args[2]); err != nil {
			return h, fmt.Errorf("FOLLOW: bad stream version %q", args[2])
		}
	}
	switch {
	case h.version < journal.FollowVersion:
		return h, fmt.Errorf("%w: version %d, this server speaks version %d", errFollowOld, h.version, journal.FollowVersion)
	case h.version > journal.FollowVersion:
		return h, fmt.Errorf("%w: version %d, this server speaks version %d", errFollowNew, h.version, journal.FollowVersion)
	case len(args) != 3:
		return h, errors.New("FOLLOW wants <last-applied-lsn> <term|0> <version>")
	}
	if h.after, err = strconv.ParseInt(args[0], 10, 64); err != nil || h.after < 0 {
		return h, fmt.Errorf("FOLLOW: bad lsn %q", args[0])
	}
	if h.term, err = strconv.ParseInt(args[1], 10, 64); err != nil || h.term < 0 {
		return h, fmt.Errorf("FOLLOW: bad term %q", args[1])
	}
	return h, nil
}

// serveFollow turns the connection into a replication stream of this
// node's own journal — a primary's, or a read-only follower's, which chains
// — from a tail of it: an OK+ header, then the stream's frames, each
// flushed as it is written, until the follower hangs up or the server shuts
// down.  The request reader keeps draining in the background purely as a
// hangup detector — a parked stream on a write-idle primary would otherwise
// hold its goroutine, connection and tail open until the next commit
// happened to wake it into a failing write.
func (s *Server) serveFollow(r *bufio.Reader, w *bufio.Writer, req wire.Request) {
	ro := s.role.Load()
	j := ro.journal
	if ro.readOnly != nil {
		j = ro.readOnly.Writer()
	}
	h, err := parseFollowRequest(req.Args)
	if j == nil {
		err = errors.New("FOLLOW: this server is not a replication primary")
	}
	if err != nil {
		writeFlush(w, errf("%v", err).Encode()+"\n")
		return
	}
	if !writeFlush(w, fmt.Sprintf("OK+ following after lsn %d\n", h.after)) {
		return
	}
	// stop closes when the server shuts down OR the follower hangs up.
	// The hangup side comes from draining the request scanner: the only
	// upstream traffic a FOLLOW connection carries is ACK progress lines,
	// so the reader parses those into the quorum registry and anything
	// else ends the conversation.  Both watcher goroutines retire when
	// this handler returns (serveConn closes the connection, failing the
	// read).
	stop := make(chan struct{})
	var stopOnce sync.Once
	closeStop := func() { stopOnce.Do(func() { close(stop) }) }
	defer closeStop()
	var connID int64
	if s.quorum != nil {
		connID = s.quorum.register()
		defer s.quorum.unregister(connID)
	}
	go func() {
		defer closeStop()
		for {
			line, err := readProtocolLine(r)
			if err != nil {
				return // hangup (or a torn/oversized line: same outcome)
			}
			fields := strings.Fields(line)
			if len(fields) == 2 && fields[0] == wire.AckPrefix {
				if lsn, err := strconv.ParseInt(fields[1], 10, 64); err == nil && lsn >= 0 {
					if s.quorum != nil {
						s.quorum.ack(connID, lsn)
					}
					continue
				}
			}
			return // not an ACK: the peer is confused, end the stream
		}
	}()
	go func() {
		select {
		case <-s.quit:
			closeStop()
		case <-stop:
		}
	}()
	// A position or term off this journal's lineage is refused loudly: the
	// stream would ship new history under LSNs the follower holds from the
	// old one, and its duplicate-skip would hide the divergence.
	err = j.ValidateFollowPosition(h.after, h.term)
	if err == nil {
		err = s.streamTail(w, j, h.after, stop)
	}
	switch {
	case errors.Is(err, errConnGone):
	case errors.Is(err, journal.ErrTailStopped):
		// Deliberate end: the follower sees end-of-stream, not a torn frame.
		writeEvent(w, journal.FollowEvent{Kind: journal.FollowEnd})
	default:
		// A terminal failure (tail corruption, a follower position off this
		// journal's lineage) must reach the follower as an error, not
		// masquerade as a clean shutdown it would silently retry forever.
		writeEvent(w, journal.FollowEvent{Kind: journal.FollowError, Reason: err.Error()})
	}
}

// errConnGone reports a FOLLOW stream whose connection failed a write.
var errConnGone = errors.New("follower connection gone")

// streamTail writes the events of a tail of j after position from to w,
// each flushed whole, until the tail fails or stops.  A record goes out as
// the frame the segment file holds, never decoded here.
func (s *Server) streamTail(w *bufio.Writer, j *journal.Writer, from int64, stop <-chan struct{}) error {
	t := j.NewTailer(from)
	defer t.Close()
	t.SetPing(s.followPing)
	for {
		ev, err := t.Next(stop)
		if err != nil {
			return err
		}
		if !writeEvent(w, ev) {
			return errConnGone
		}
	}
}

// writeEvent writes one stream event, encoded in the free tail of the write
// buffer when it fits there, and flushes it; false means the connection is
// gone.
func writeEvent(w *bufio.Writer, ev journal.FollowEvent) bool {
	if _, err := w.Write(journal.AppendFollowEvent(w.AvailableBuffer(), ev)); err != nil {
		return false
	}
	return w.Flush() == nil
}

// post queues one event, given as its wire fields, on the engine: the
// intake POST and every BATCH item share.
func (s *Server) post(event, dir, oid string, args []string, user string) error {
	d, err := bpl.ParseDirection(dir)
	if err != nil {
		return err
	}
	target, err := meta.ParseKey(oid)
	if err != nil {
		return err
	}
	return s.eng.Post(engine.Event{Name: event, Dir: d, Target: target, Args: args, User: user})
}

// Handle processes one request against the engine and database: what a
// connection runs for every verb that does not stream, exported for
// in-process use (the flow simulator drives the same code path without
// TCP).  After QUIT's response the connection closes.
func (s *Server) Handle(req wire.Request) wire.Response {
	if s.testHookHandle != nil {
		s.testHookHandle(req)
	}
	r := s.role.Load()
	switch req.Verb {
	case wire.VerbPost, wire.VerbBatch, wire.VerbCreate, wire.VerbLink, wire.VerbSnapshot, wire.VerbBPSwap:
		if r.readOnly != nil {
			s.counters.ReadOnlyRefused.Add(1)
			return errf("read-only follower: %s refused (write to the primary)", req.Verb)
		}
		// The degraded-mode contract: once the journal has hit a sticky
		// I/O failure, every write is refused up front with the reason —
		// never accepted-then-lost, never silently un-acked — while reads
		// keep serving below.
		if r.journal != nil {
			if healthy, reason := r.journal.Health(); !healthy {
				s.counters.DegradedRefused.Add(1)
				return errf("journal-io: %s (node degraded: writes refused, reads still served)", reason)
			}
		}
	}
	switch req.Verb {
	case wire.VerbPing:
		return okf("pong")

	case wire.VerbLSN:
		switch {
		case r.readOnly != nil:
			return okf("lsn %d", r.readOnly.AppliedLSN())
		case r.journal != nil:
			return okf("lsn %d", r.journal.LastLSN())
		default:
			return okf("lsn 0")
		}

	case wire.VerbRole:
		// One line a failover driver can act on: who am I, which election
		// term, how far has my history reached, and is my disk (or my
		// upstream's) still accepting writes.
		switch ro, j := r.readOnly, r.journal; {
		case ro != nil:
			return okf("role=follower term=%d applied=%d watermark=%d%s",
				ro.Term(), ro.AppliedLSN(), ro.Watermark(), followerFields(ro))
		case j != nil:
			health, reason := j.Health()
			return okf("role=primary term=%d applied=%d watermark=%d%s",
				j.Term(), j.LastLSN(), j.CommittedLSN(), healthFields(health, reason))
		default:
			return okf("role=primary term=1 applied=0 watermark=0 health=ok")
		}

	case wire.VerbPromote:
		// promoteMu serializes promotions end to end: a second PROMOTE
		// waits out the first and then sees the flipped role, instead of
		// racing the hook into a double term bump.
		s.promoteMu.Lock()
		defer s.promoteMu.Unlock()
		r = s.role.Load() // the one a promotion we waited out left behind
		if r.readOnly == nil {
			return errf("PROMOTE: already a primary")
		}
		if r.promote == nil {
			return errf("PROMOTE: this follower has no promotion hook")
		}
		p, err := r.promote()
		if err != nil {
			return errf("PROMOTE: %v", err)
		}
		s.role.Store(&role{journal: p.Journal})
		return okf("promoted term %d lsn %d", p.Term, p.LSN)

	case wire.VerbFollow:
		return errf("FOLLOW needs a network connection (it streams indefinitely)")

	case wire.VerbSync:
		// Quiescence may be observed a moment before another connection's
		// drain commits, so commit here too — "idle" always means "settled
		// and on disk".
		s.eng.WaitIdle()
		if err := s.settle(r, true); err != nil {
			return errf("%v", err)
		}
		return okf("idle")

	case wire.VerbQuit:
		return okf("bye")

	case wire.VerbPost:
		if len(req.Args) < 3 {
			return errf("POST wants <event> <up|down> <oid> [args...]")
		}
		if err := s.post(req.Args[0], req.Args[1], req.Args[2], req.Args[3:], req.User); err != nil {
			return errf("%v", err)
		}
		if err := s.eng.Drain(); err != nil {
			return errf("%v", err)
		}
		// The drain committed the journal; now the write must also reach
		// the configured follower quorum before it is acknowledged as
		// posted.
		if err := s.settle(r, false); err != nil {
			return errf("%v", err)
		}
		return okf("posted %s", req.Args[0])

	case wire.VerbBatch:
		// Many events, one round-trip, one drain — the batched form of
		// POST a hierarchy check-in uses.  Items are validated and posted
		// in order; a bad item is reported in the body without blocking
		// the rest.  One drain runs after every accepted item is queued.
		if len(req.Args) == 0 {
			return errf("BATCH wants at least one <event dir oid [args...]> item")
		}
		maxItems := s.limits.MaxBatchItems
		if maxItems <= 0 {
			maxItems = DefaultMaxBatchItems
		}
		if len(req.Args) > maxItems {
			// Bounded intake: one request must not expand into unbounded
			// queued work.  Nothing was posted — the client can split.
			s.counters.BatchOversize.Add(1)
			return errf("BATCH: %d items exceeds the %d-item bound (split the batch)", len(req.Args), maxItems)
		}
		body := make([]string, 0, len(req.Args))
		posted := 0
		for i, raw := range req.Args {
			it, err := wire.ParseBatchItem(raw)
			if err == nil {
				err = s.post(it.Event, it.Dir, it.OID, it.Args, req.User)
			}
			if err != nil {
				body = append(body, fmt.Sprintf("%d err %s", i, err))
				continue
			}
			body = append(body, fmt.Sprintf("%d ok %s", i, it.Event))
			posted++
		}
		if posted > 0 {
			if err := s.eng.Drain(); err != nil {
				return errf("%v", err)
			}
			if err := s.settle(r, false); err != nil {
				return errf("%v", err)
			}
		}
		return wire.Response{OK: posted == len(req.Args),
			Detail: fmt.Sprintf("posted %d/%d", posted, len(req.Args)), Body: body}

	case wire.VerbCreate:
		if len(req.Args) != 2 {
			return errf("CREATE wants <block> <view>")
		}
		k, err := s.eng.CreateOID(req.Args[0], req.Args[1], req.User)
		if err != nil {
			return errf("%v", err)
		}
		if err := s.eng.Drain(); err != nil {
			return errf("%v", err)
		}
		// The OID itself was created outside the drain, which commits only
		// when it processed something; make the creation durable before
		// acknowledging it.
		if err := s.settle(r, true); err != nil {
			return errf("%v", err)
		}
		return okf("%s", k)

	case wire.VerbLink:
		if len(req.Args) != 3 {
			return errf("LINK wants <use|derive> <from-oid> <to-oid>")
		}
		class, err := meta.ParseLinkClass(req.Args[0])
		if err != nil {
			return errf("%v", err)
		}
		from, err := meta.ParseKey(req.Args[1])
		if err != nil {
			return errf("from: %v", err)
		}
		to, err := meta.ParseKey(req.Args[2])
		if err != nil {
			return errf("to: %v", err)
		}
		id, err := s.eng.CreateLink(class, from, to)
		if err != nil {
			return errf("%v", err)
		}
		if err := s.settle(r, true); err != nil {
			return errf("%v", err)
		}
		return okf("%d", id)

	case wire.VerbState:
		if len(req.Args) != 1 {
			return errf("STATE wants <oid>")
		}
		k, err := meta.ParseKey(req.Args[0])
		if err != nil {
			return errf("%v", err)
		}
		o, err := s.eng.DB().Head().GetOID(k)
		if err != nil {
			return errf("%v", err)
		}
		st := state.Evaluate(s.eng.Blueprint(), o)
		body := []string{fmt.Sprintf("ready %v", st.Ready)}
		for _, name := range o.PropNames() {
			body = append(body, fmt.Sprintf("prop %s %s", name, wire.Quote(o.Props[name])))
		}
		for _, r := range st.Reasons {
			body = append(body, "blocking "+r)
		}
		return wire.Response{OK: true, Detail: k.String(), Body: body}

	case wire.VerbReport, wire.VerbGap:
		// The buffered form, used by in-process callers (Handle); network
		// connections take the streaming path in serveConn.  Both run the
		// same scan and the same row formatter, so they emit identical
		// bodies.
		v, resp := s.reportGate(req)
		if v == nil {
			return resp
		}
		defer v.Close()
		var body []string
		var buf []byte
		s.scanReport(v, req.Verb == wire.VerbGap, func(key meta.Key, ready bool, reasons []byte) bool {
			buf = appendReportRow(buf[:0], key, ready, reasons)
			body = append(body, string(buf))
			return true
		})
		return wire.Response{OK: true, Detail: strconv.Itoa(len(body)) + " rows", Body: body}

	case wire.VerbQuery:
		return s.handleQuery(req)

	case wire.VerbSnapshot:
		if len(req.Args) != 2 {
			return errf("SNAPSHOT wants <name> <root-oid|*>")
		}
		name := req.Args[0]
		var cfg *meta.Configuration
		var err error
		if req.Args[1] == "*" {
			cfg, err = s.eng.DB().SnapshotQuery(name, func(*meta.OID) bool { return true })
		} else {
			var root meta.Key
			root, err = meta.ParseKey(req.Args[1])
			if err == nil {
				cfg, err = s.eng.DB().SnapshotHierarchy(name, root, meta.FollowAllLinks)
			}
		}
		if err != nil {
			return errf("%v", err)
		}
		if err := s.settle(r, true); err != nil {
			return errf("%v", err)
		}
		return okf("%d oids %d links", len(cfg.OIDs), len(cfg.Links))

	case wire.VerbStats:
		es := s.eng.Stats()
		v := s.eng.DB().ReadView()
		ds := v.Stats()
		v.Close()
		c := &s.counters
		return okf("oids=%d links=%d posted=%d deliveries=%d propagations=%d rules=%d execs=%d"+
			" conns_shed=%d inflight_shed=%d readonly_refused=%d degraded_refused=%d batch_oversize=%d panics=%d",
			ds.OIDs, ds.Links, es.Posted, es.Deliveries, es.Propagations, es.RulesFired, es.Execs,
			c.ConnsShed.Load(), c.InflightShed.Load(), c.ReadOnlyRefused.Load(),
			c.DegradedRefused.Load(), c.BatchOversize.Load(), c.Panics.Load())

	case wire.VerbLatest:
		if len(req.Args) != 2 {
			return errf("LATEST wants <block> <view>")
		}
		k, err := s.eng.DB().Head().Latest(req.Args[0], req.Args[1])
		if err != nil {
			return errf("%v", err)
		}
		return okf("%s", k)

	case wire.VerbProp:
		if len(req.Args) != 2 {
			return errf("PROP wants <oid> <name>")
		}
		k, err := meta.ParseKey(req.Args[0])
		if err != nil {
			return errf("%v", err)
		}
		v, set, err := s.eng.DB().Head().GetProp(k, req.Args[1])
		if err != nil {
			return errf("%v", err)
		}
		if !set {
			return okf("unset")
		}
		return okf("set %s", wire.Quote(v))

	case wire.VerbLinks:
		if len(req.Args) != 1 {
			return errf("LINKS wants <oid>")
		}
		k, err := meta.ParseKey(req.Args[0])
		if err != nil {
			return errf("%v", err)
		}
		head := s.eng.DB().Head()
		if !head.HasOID(k) {
			return errf("oid %v: not found", k)
		}
		var body []string
		for _, l := range head.LinksOf(k) {
			line := fmt.Sprintf("%d %s %s %s", l.ID, l.Class, l.From, l.To)
			if t := l.Type(); t != "" {
				line += " type=" + wire.Quote(t)
			}
			if evs := l.PropagateList(); len(evs) > 0 {
				line += " propagates=" + wire.Quote(strings.Join(evs, ","))
			}
			body = append(body, line)
		}
		return wire.Response{OK: true, Detail: fmt.Sprintf("%d links", len(body)), Body: body}

	case wire.VerbDot:
		if len(req.Args) != 1 {
			return errf("DOT wants flow or state")
		}
		var doc string
		switch strings.ToLower(req.Args[0]) {
		case "flow":
			doc = viz.FlowDOT(s.eng.Blueprint())
		case "state":
			v := s.eng.DB().ReadView()
			doc = viz.StateDOT(v, s.eng.Blueprint())
			v.Close()
		default:
			return errf("DOT wants flow or state")
		}
		body := strings.Split(strings.TrimRight(doc, "\n"), "\n")
		return wire.Response{OK: true, Detail: req.Args[0], Body: body}

	case wire.VerbBlueprint:
		src := bpl.Print(s.eng.Blueprint())
		body := strings.Split(strings.TrimRight(src, "\n"), "\n")
		return wire.Response{OK: true, Detail: s.eng.Blueprint().Name, Body: body}

	case wire.VerbBPSwap:
		// Swap the live blueprint: parse, analyze and atomically install
		// the new policy while events keep flowing.  The swap is node
		// configuration, not project data — it is NOT journaled and does
		// not replicate; each node carries its own policy (docs/LOAD.md).
		if len(req.Args) != 1 {
			return errf("BPSWAP wants exactly one <source> arg")
		}
		bp, err := bpl.Parse(req.Args[0])
		if err != nil {
			return errf("BPSWAP: %v", err)
		}
		if err := s.eng.SetBlueprint(bp); err != nil {
			return errf("BPSWAP: %v", err)
		}
		return okf("blueprint %s installed (%d views)", bp.Name, len(bp.Views))

	default:
		return errf("unknown verb %q", req.Verb)
	}
}

// healthFields renders the ROLE health suffix.  The reason is folded to
// one space-free token so the line stays trivially field-splittable.
func healthFields(healthy bool, reason string) string {
	if healthy {
		return " health=ok"
	}
	return " health=degraded reason=" + healthToken(reason)
}

// followerFields renders a follower's ROLE suffix.  Health first: its own
// replication loop failing terminally, or its upstream reporting a
// degraded journal.  Then staleness — the age, in whole milliseconds, of
// its last upstream freshness evidence; a follower that has never heard
// from its upstream reports nothing rather than a meaningless age.
func followerFields(ro ReadFollower) string {
	out := " health=ok"
	if err := ro.Err(); err != nil {
		out = " health=degraded reason=" + healthToken("replication: "+err.Error())
	} else if upOK, reason := ro.UpstreamHealth(); !upOK {
		out = " health=degraded reason=" + healthToken("upstream: "+reason)
	}
	if d, known := ro.Staleness(); known {
		out += fmt.Sprintf(" staleness=%d", d.Milliseconds())
	}
	return out
}

func healthToken(reason string) string {
	reason = strings.TrimSpace(reason)
	if reason == "" {
		reason = "unknown"
	}
	return strings.ReplaceAll(reason, " ", "_")
}
