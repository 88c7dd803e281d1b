// Package server implements the DAMOCLES project server of Figure 1: a TCP
// daemon owning the meta-database and the BluePrint engine.  Wrapper
// programs connect, post design events, create OIDs and links, and query
// project state; the engine processes events sequentially, first-in
// first-out.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"runtime/debug"
	"runtime/metrics"
	"slices"
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
	logf       func(format string, args ...any)
	followPing time.Duration // idle FOLLOW streams' liveness cadence; 0 = silent idle

	// testHookHandle, when set by an in-package test, runs at the top of
	// every handled request — the seam the panic-isolation test uses.
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
// clients.  The zero value means unlimited connections and no deadlines.
type Limits struct {
	// MaxConns caps concurrent connections; past it, new connections are
	// shed with an explicit "overloaded" error line, never silently
	// dropped.  0 means unlimited.
	MaxConns int

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

// MaxBatchItems caps the items of one BATCH request: one request must not
// expand into unbounded queued work.
const MaxBatchItems = 4096

// WithLimits applies connection and deadline bounds.
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

// WithJournal tells the server which journal persists its database.  The
// engine records to it through the database (the journal is its recorder)
// and the server commits it before it answers a write or SYNC.  The journal also
// makes the server a replication primary: the FOLLOW verb streams it.
func WithJournal(j *journal.Writer) Option { return func(s *Server) { s.role.Load().journal = j } }

// WithReadOnly puts the server in follower read mode: every write verb
// is refused — the database is mirrored from a primary and local writes
// would fork it — while the read verbs serve from the replicated state.  REPORT/GAP accept an optional minimum LSN that waits
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
	return s
}

// errf and okf build the single-line ERR and OK responses.
func errf(format string, a ...any) wire.Response {
	return wire.Response{OK: false, Detail: fmt.Sprintf(format, a...)}
}

func okf(format string, a ...any) wire.Response {
	return wire.Response{OK: true, Detail: fmt.Sprintf(format, a...)}
}

// Engine exposes the underlying engine, e.g. for in-process inspection in
// tests and tools.
func (s *Server) Engine() *engine.Engine { return s.eng }

// settle holds a write's acknowledgement until the write is on disk and
// the configured quorum of follower watermarks covers it: the one
// durability point of every write and of SYNC.  The LSN bound is read
// after the caller's work and before the commit, so it covers the caller's
// records and nothing a later writer adds; Commit returns at once when a
// flush already carried them.  A commit failure is the journal-io degraded
// contract speaking: the prefix tells the client its write was refused by
// the disk, not the protocol.  Once committed, a quorum timeout means
// under-replication, not loss, and the error says so explicitly instead of
// stalling forever or lying with an OK.
func (s *Server) settle(r *role) error {
	if r.journal == nil {
		return nil
	}
	lsn := r.journal.LastLSN()
	if err := r.journal.Commit(); err != nil {
		return fmt.Errorf("journal-io: %v", err)
	}
	if s.quorum == nil {
		return nil
	}
	return s.quorum.wait(lsn, s.quit)
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
				fmt.Fprintf(conn, "%s\n", errf("overloaded: connection limit %d reached", s.limits.MaxConns).Encode())
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
	if j := s.role.Load().journal; j != nil {
		return j.Commit()
	}
	return nil
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
	perFrame    bool // set by armFrame, on the reading goroutine
}

func (c *timeoutConn) Read(p []byte) (int, error) {
	if c.idle > 0 && !c.noIdle.Load() {
		c.Conn.SetReadDeadline(time.Now().Add(c.idle))
		if c.perFrame {
			c.noIdle.Store(true) // one deadline for the rest of the frame
		}
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

// armFrame is journal.ReadFollow's arm on a client's FOLLOW stream: for a
// frame, the first read that waits on the peer sets one deadline idle ahead
// and later reads leave it, so a frame must arrive whole within idle; for a
// snapshot's body every read re-arms it, as on any other connection.
func (c *timeoutConn) armFrame(body bool) {
	c.perFrame = !body
	c.noIdle.Store(false)
}

// connWriteBuffer is the size of a connection's write buffer.  Single-line
// responses are flushed as they are written whatever its size; it is the
// streamed REPORT/GAP and a FOLLOW's run of records that fill it.  The
// benchmark's report is 100 to 260 KB: at bufio's default 4 KiB that is a
// write(2) and a deadline reset every 40 to 90 rows, at 16 KiB a quarter of
// them.
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
	// Requests are some 20 bytes: readProtocolLine joins a longer line
	// across fills of the default buffer, up to maxLineBytes.
	r := bufio.NewReader(tc)
	w := bufio.NewWriterSize(tc, connWriteBuffer)
	ss := &session{w: w}
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
		// The fields are substrings of line, which is the request's own.
		ss.fields, err = wire.AppendFields(ss.fields[:0], line)
		var req wire.Request
		if err == nil {
			req, err = wire.ParseFields(ss.fields)
		}
		if err == nil && req.Verb == wire.VerbFollow {
			// FOLLOW dedicates the connection to the record stream; when
			// it returns, the conversation is over either way.  The stream
			// is a subscription, not a request: it may sit idle between
			// commits without tripping the idle deadline.
			tc.disableIdle()
			s.serveFollow(r, w, req)
			return
		}
		b := w.AvailableBuffer()
		if err != nil {
			b = appendErrf(b, "%v", err)
		} else {
			b = s.respond(ss, b, req)
		}
		if !ss.flush(b) || req.Verb == wire.VerbQuit {
			return
		}
	}
}

// session is what a connection reuses from one request to the next, so
// that a point read allocates nothing: the request's fields, a graph
// walk's keys, a STATE's reasons, and the write buffer its answers are
// rendered into.  Handle renders with a session of its own, into buf.
type session struct {
	fields  []string
	keys    []meta.Key
	reasons []byte
	mem     []metrics.Sample // STATS' heap and GC group; made by its first STATS
	w       *bufio.Writer    // nil: an answer grows in buf
	buf     []byte           // Handle's: the answer, split once it is whole
	dead    bool             // a write failed: the connection is gone
}

// room returns dst, a response being rendered, with room for n more
// bytes.  On a connection, a response that would outgrow the write buffer
// sends what it holds and goes on in the emptied buffer: a REPORT starts
// arriving after one buffer, never materializes as a whole, and costs a
// write per buffer, not per row.  A failed write marks the session dead.
func (ss *session) room(dst []byte, n int) []byte {
	if ss.w == nil || ss.dead || cap(dst)-len(dst) >= n {
		return dst
	}
	if _, err := ss.w.Write(dst); err != nil || ss.w.Flush() != nil {
		ss.dead = true
		return dst[:0]
	}
	return ss.w.AvailableBuffer()
}

// flush sends b, the rest of a response rendered into the free tail of the
// write buffer, and pushes the buffer to the socket; false means the
// connection is gone.
func (ss *session) flush(b []byte) bool {
	if ss.dead {
		return false
	}
	if _, err := ss.w.Write(b); err != nil {
		return false
	}
	return ss.w.Flush() == nil
}

// respond appends the answer to req to dst: a write verb's from Handle's
// write branch, any other verb's from its renderer.
func (s *Server) respond(ss *session, dst []byte, req wire.Request) []byte {
	if write, ok := writeVerbs[req.Verb]; ok {
		req.Args = slices.Clone(req.Args) // an event keeps its args past the request
		return wire.AppendResponse(dst, s.write(write, req))
	}
	return s.render(ss, dst, req)
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

// renderQuery answers QUERY <lsn> <reach|deps|equiv|resolve> <args...>:
// time-travel graph queries pinned at an LSN (0 = the current state).
// Primaries and read-only followers serve it alike — the LSN gate is the
// REPORT/GAP one (a follower blocks until it has applied the position), so
// the body at a given LSN is byte-identical on every node that has reached
// it.  reach/deps take an optional follow spec: "use" (hierarchy links),
// "all" (every link), or "type:t1,t2,..." (use links plus derive links of
// the named types); reach defaults to use, deps to all, matching the DB
// methods.  The walk runs on the pinned view through the versioned
// reachability index, takes no lock, and collects into the session's keys.
func (s *Server) renderQuery(ss *session, dst []byte, req wire.Request) []byte {
	if len(req.Args) < 2 {
		return appendErrf(dst, "QUERY wants <lsn> <reach|deps|equiv|resolve> <args...>")
	}
	lsn, err := strconv.ParseInt(req.Args[0], 10, 64)
	if err != nil || lsn < 0 {
		return appendErrf(dst, "QUERY: bad lsn %q", req.Args[0])
	}
	gateReq := wire.Request{Verb: req.Verb}
	if lsn > 0 {
		gateReq.Args = req.Args[:1]
	}
	v, resp := s.reportGate(gateReq)
	if v == nil {
		return wire.AppendResponse(dst, resp)
	}
	defer v.Close()
	kind, args := req.Args[1], req.Args[2:]
	switch kind {
	case "reach", "deps":
		if len(args) < 1 || len(args) > 2 {
			return appendErrf(dst, "QUERY %s wants <oid> [use|all|type:t1,t2,...]", kind)
		}
		root, err := meta.ParseKey(args[0])
		if err != nil {
			return appendErrf(dst, "%v", err)
		}
		var follow meta.FollowFunc
		if len(args) == 2 {
			if follow, err = parseFollowSpec(args[1]); err != nil {
				return appendErrf(dst, "%v", err)
			}
		}
		if !v.HasOID(root) {
			return appendErrf(dst, "oid %v: not found", root)
		}
		if kind == "reach" {
			ss.keys = v.AppendReachable(ss.keys[:0], root, follow)
		} else {
			ss.keys = v.AppendDependents(ss.keys[:0], root, follow)
		}
		return ss.appendKeys(dst, ss.keys)
	case "equiv":
		if len(args) != 1 {
			return appendErrf(dst, "QUERY equiv wants <oid>")
		}
		k, err := meta.ParseKey(args[0])
		if err != nil {
			return appendErrf(dst, "%v", err)
		}
		if !v.HasOID(k) {
			return appendErrf(dst, "oid %v: not found", k)
		}
		ss.keys = v.AppendEquivalents(ss.keys[:0], k)
		return ss.appendKeys(dst, ss.keys)
	case "resolve":
		if len(args) != 1 {
			return appendErrf(dst, "QUERY resolve wants <configuration>")
		}
		r, err := v.Resolve(args[0])
		if err != nil {
			return appendErrf(dst, "%v", err)
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
		return wire.AppendResponse(dst, wire.Response{OK: true,
			Detail: fmt.Sprintf("%d oids %d links %d missing",
				len(r.OIDs), len(r.Links), len(r.MissingOIDs)+len(r.MissingLinks)),
			Body: body})
	default:
		return appendErrf(dst, "QUERY: unknown kind %q (want reach, deps, equiv or resolve)", kind)
	}
}

// appendKeys appends the answer listing keys: "<n> keys", then a key a
// line.
func (ss *session) appendKeys(dst []byte, keys []meta.Key) []byte {
	if len(keys) == 0 {
		return append(dst, "OK 0 keys\n"...)
	}
	dst = append(dst, "OK+ "...)
	dst = strconv.AppendInt(dst, int64(len(keys)), 10)
	dst = append(dst, " keys\n"...)
	for _, k := range keys {
		dst = ss.room(dst, len(k.Block)+len(k.View)+24)
		dst = append(k.AppendTo(append(dst, '|')), '\n')
	}
	return append(dst, ".\n"...)
}

// appendErrf appends the one-line ERR response errf builds.
func appendErrf(dst []byte, format string, a ...any) []byte {
	return wire.AppendResponse(dst, errf(format, a...))
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

// renderReport answers REPORT/GAP: the latest version of every chain at
// the view the gate pins, in key order, a row a line — GAP only the rows
// that are not ready.  Each row is formatted in place in the response, so
// on a connection it goes straight to the write buffer (see room); a
// reader that stops reading blocks that write — its own connection only —
// until WriteTimeout ends the scan.  The header cannot count rows it has
// not yet scanned; Handle, with the body in hand, puts the count in.
func (s *Server) renderReport(ss *session, dst []byte, req wire.Request) []byte {
	v, resp := s.reportGate(req)
	if v == nil {
		return wire.AppendResponse(dst, resp)
	}
	defer v.Close()
	dst = append(dst, "OK+ streaming\n"...)
	gap := req.Verb == wire.VerbGap
	state.ScanSortedView(v, s.eng.Blueprint(), func(key meta.Key, ready bool, reasons []byte) bool {
		if gap && ready {
			return true
		}
		// A row holds no line break: a key's names are checked, and the
		// reasons are quoted.
		dst = ss.room(dst, reportRowMax(key, reasons)+2)
		dst = append(appendReportRow(append(dst, '|'), key, ready, reasons), '\n')
		return !ss.dead
	})
	return append(dst, ".\n"...)
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
// — from a tail of it: an OK+ header, then the stream's frames, until the
// follower hangs up or the server shuts down.  The request reader keeps draining in the background purely as a
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

// streamTail writes the events of a tail of j after position from to w
// until the tail fails or stops.  A record goes out as the frame the segment
// file holds, never decoded here.
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
// buffer when it fits there; false means the connection is gone.  A record
// stays in the buffer, which goes out when it fills or with the next event
// of any other kind: the tail always returns the watermark before it blocks
// after records, so a caught-up run costs one write, not one per record,
// and no record waits on an idle stream.
func writeEvent(w *bufio.Writer, ev journal.FollowEvent) bool {
	if _, err := w.Write(journal.AppendFollowEvent(w.AvailableBuffer(), ev)); err != nil {
		return false
	}
	return ev.Kind == journal.FollowRecord || w.Flush() == nil
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

// effect is what a write verb's body leaves for Handle to finish.
type effect uint8

const (
	unchanged effect = iota // a refusal or a no-op: nothing to settle
	recorded                // journal records: settle them
	posted                  // queued events: drain them, then settle
)

// writeVerbs are the mutating verbs and their bodies, which validate and
// then mutate or post.  A follower or a degraded primary refuses each one
// up front; Handle drains and settles after the body.
var writeVerbs = map[string]func(*Server, wire.Request) (wire.Response, effect){
	wire.VerbPost:     (*Server).writePost,
	wire.VerbBatch:    (*Server).writeBatch,
	wire.VerbCreate:   (*Server).writeCreate,
	wire.VerbLink:     (*Server).writeLink,
	wire.VerbSnapshot: (*Server).writeSnapshot,
	wire.VerbBPSwap:   (*Server).writeBPSwap,
}

// Handle processes one request against the engine and database, for
// in-process use (the flow simulator drives the same code path without
// TCP): a write verb through the write branch a connection runs, any other
// verb through the renderer a connection runs, its answer split back into
// a Response.  After QUIT's response the connection closes.
func (s *Server) Handle(req wire.Request) wire.Response {
	if write, ok := writeVerbs[req.Verb]; ok {
		return s.write(write, req)
	}
	ss := handleSessions.Get().(*session)
	ss.buf = s.render(ss, ss.buf[:0], req)
	resp := splitResponse(ss.buf)
	handleSessions.Put(ss)
	if (req.Verb == wire.VerbReport || req.Verb == wire.VerbGap) && resp.OK {
		resp.Detail = strconv.Itoa(len(resp.Body)) + " rows"
	}
	return resp
}

// handleSessions recycles Handle's sessions and the buffers they render
// into, which a REPORT grows to the size of the whole report.
var handleSessions = sync.Pool{New: func() any { return new(session) }}

// splitResponse parses a rendered response back into its parts, each a
// substring of one copy of it.
func splitResponse(b []byte) wire.Response {
	text := string(b)
	head, rest, _ := strings.Cut(text, "\n")
	resp, multiline, _ := wire.ParseResponseHeader(head)
	if !multiline {
		return resp
	}
	resp.Body = make([]string, 0, strings.Count(rest, "\n")-1)
	for {
		line, more, _ := strings.Cut(rest, "\n")
		if line == "." {
			return resp
		}
		resp.Body = append(resp.Body, line[len("|"):])
		rest = more
	}
}

// write runs one write verb's body: a follower or a degraded primary
// refuses it up front; after the body it drains what was posted and
// settles what was recorded.
func (s *Server) write(body func(*Server, wire.Request) (wire.Response, effect), req wire.Request) wire.Response {
	if s.testHookHandle != nil {
		s.testHookHandle(req)
	}
	r := s.role.Load()
	if r.readOnly != nil {
		s.counters.ReadOnlyRefused.Add(1)
		return errf("read-only follower: %s refused (write to the primary)", req.Verb)
	}
	// The degraded-mode contract: once the journal has hit a sticky
	// I/O failure, every write is refused up front with the reason —
	// never accepted-then-lost, never silently un-acked — while reads
	// keep serving.
	if r.journal != nil {
		if healthy, reason := r.journal.Health(); !healthy {
			s.counters.DegradedRefused.Add(1)
			return errf("journal-io: %s (node degraded: writes refused, reads still served)", reason)
		}
	}
	resp, eff := body(s, req)
	var err error
	if eff == posted {
		err = s.eng.Drain()
	}
	// A drain's error is answered after the settle; a settle error wins.
	if eff != unchanged {
		if serr := s.settle(r); serr != nil {
			err = serr
		}
	}
	if err != nil {
		return errf("%v", err)
	}
	return resp
}

// render appends the answer to a verb that is not a write to dst: each
// has one renderer, which a connection runs into its write buffer and
// Handle into a buffer of its own.  The point reads and the scans render
// their lines in place; the other verbs build a Response (answer).
func (s *Server) render(ss *session, dst []byte, req wire.Request) []byte {
	if s.testHookHandle != nil {
		s.testHookHandle(req)
	}
	switch req.Verb {
	case wire.VerbState:
		return s.renderState(ss, dst, req)
	case wire.VerbReport, wire.VerbGap:
		return s.renderReport(ss, dst, req)
	case wire.VerbQuery:
		return s.renderQuery(ss, dst, req)
	}
	return wire.AppendResponse(dst, s.answer(ss, req))
}

// renderState answers STATE <oid>: whether the OID is ready, its
// properties, and each condition that holds it back, evaluated as a REPORT
// row is.
func (s *Server) renderState(ss *session, dst []byte, req wire.Request) []byte {
	if len(req.Args) != 1 {
		return appendErrf(dst, "STATE wants <oid>")
	}
	k, err := meta.ParseKey(req.Args[0])
	if err != nil {
		return appendErrf(dst, "%v", err)
	}
	o, err := s.eng.DB().Head().GetOID(k)
	if err != nil {
		return appendErrf(dst, "%v", err)
	}
	// Each reason after a line feed, which no reason holds.
	var ready bool
	ss.reasons, ready = state.AppendReasons(ss.reasons[:0], "\n", o, s.eng.Blueprint())
	start := len(dst)
	dst = wire.EndLine(k.AppendTo(append(dst, "OK+ "...)), start)
	start = len(dst)
	dst = append(dst, "|ready "...)
	dst = wire.EndLine(strconv.AppendBool(dst, ready), start)
	o.Props.Each(func(name, value string) bool {
		dst = ss.room(dst, len("|prop  \n")+len(name)+2*len(value)+2)
		start := len(dst)
		dst = append(append(append(dst, "|prop "...), name...), ' ')
		dst = wire.EndLine(wire.AppendQuote(dst, value), start)
		return true
	})
	for rest, more := bytes.CutPrefix(ss.reasons, []byte("\n")); more; {
		var reason []byte
		reason, rest, more = bytes.Cut(rest, []byte("\n"))
		dst = ss.room(dst, len("|blocking \n")+2*len(reason))
		start := len(dst)
		dst = wire.EndLine(append(append(dst, "|blocking "...), reason...), start)
	}
	return append(dst, ".\n"...)
}

// answer is the Response of a verb that is neither a write nor rendered in
// place: the one-line probes, the node's role and replication verbs, and
// the cold reads.
func (s *Server) answer(ss *session, req wire.Request) wire.Response {
	r := s.role.Load()
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
		// Once no drain runs or waits, settle puts what they recorded on
		// disk: "idle" always means "settled and on disk".
		s.eng.WaitIdle()
		if err := s.settle(r); err != nil {
			return errf("%v", err)
		}
		return okf("idle")

	case wire.VerbQuit:
		return okf("bye")

	case wire.VerbStats:
		es := s.eng.Stats()
		v := s.eng.DB().ReadView()
		ds := v.Stats()
		v.Close()
		// The heap and GC group, read through runtime/metrics into the
		// session's samples: no stop-the-world, unlike ReadMemStats.
		if ss.mem == nil {
			ss.mem = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		}
		metrics.Read(ss.mem)
		c := &s.counters
		return okf("oids=%d links=%d posted=%d deliveries=%d propagations=%d rules=%d execs=%d"+
			" conns_shed=%d readonly_refused=%d degraded_refused=%d batch_oversize=%d panics=%d gc=%d heap_b=%d",
			ds.OIDs, ds.Links, es.Posted, es.Deliveries, es.Propagations, es.RulesFired, es.Execs,
			c.ConnsShed.Load(), c.ReadOnlyRefused.Load(),
			c.DegradedRefused.Load(), c.BatchOversize.Load(), c.Panics.Load(),
			ss.mem[0].Value.Uint64(), ss.mem[1].Value.Uint64())

	case wire.VerbLatest:
		if len(req.Args) != 2 {
			return errf("LATEST wants <block> <view>")
		}
		k, err := s.eng.DB().Head().Latest(req.Args[0], req.Args[1])
		if err != nil {
			return errf("%v", err)
		}
		return wire.Response{OK: true, Detail: k.String()}

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
			if len(l.Propagates) > 0 {
				line += " propagates=" + wire.Quote(strings.Join(l.Propagates, ","))
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

	default:
		return errf("unknown verb %q", req.Verb)
	}
}

func (s *Server) writePost(req wire.Request) (wire.Response, effect) {
	if len(req.Args) < 3 {
		return errf("POST wants <event> <up|down> <oid> [args...]"), unchanged
	}
	if err := s.post(req.Args[0], req.Args[1], req.Args[2], req.Args[3:], req.User); err != nil {
		return errf("%v", err), unchanged
	}
	return okf("posted %s", req.Args[0]), posted
}

// writeBatch posts many events in one round-trip, for one drain — the
// batched POST of a hierarchy check-in.  A bad item is reported in the
// body without blocking the rest.
func (s *Server) writeBatch(req wire.Request) (wire.Response, effect) {
	if len(req.Args) == 0 {
		return errf("BATCH wants at least one <event dir oid [args...]> item"), unchanged
	}
	if len(req.Args) > MaxBatchItems {
		// Bounded intake: one request must not expand into unbounded
		// queued work.  Nothing was posted — the client can split.
		s.counters.BatchOversize.Add(1)
		return errf("BATCH: %d items exceeds the %d-item bound (split the batch)", len(req.Args), MaxBatchItems), unchanged
	}
	body := make([]string, 0, len(req.Args))
	n := 0
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
		n++
	}
	resp := wire.Response{OK: n == len(req.Args),
		Detail: fmt.Sprintf("posted %d/%d", n, len(req.Args)), Body: body}
	if n == 0 {
		return resp, unchanged
	}
	return resp, posted
}

func (s *Server) writeCreate(req wire.Request) (wire.Response, effect) {
	if len(req.Args) != 2 {
		return errf("CREATE wants <block> <view>"), unchanged
	}
	k, err := s.eng.CreateOID(req.Args[0], req.Args[1], req.User)
	if err != nil {
		return errf("%v", err), unchanged
	}
	return wire.Response{OK: true, Detail: k.String()}, posted
}

func (s *Server) writeLink(req wire.Request) (wire.Response, effect) {
	if len(req.Args) != 3 {
		return errf("LINK wants <use|derive> <from-oid> <to-oid>"), unchanged
	}
	class, err := meta.ParseLinkClass(req.Args[0])
	if err != nil {
		return errf("%v", err), unchanged
	}
	from, err := meta.ParseKey(req.Args[1])
	if err != nil {
		return errf("from: %v", err), unchanged
	}
	to, err := meta.ParseKey(req.Args[2])
	if err != nil {
		return errf("to: %v", err), unchanged
	}
	id, err := s.eng.CreateLink(class, from, to)
	if err != nil {
		return errf("%v", err), unchanged
	}
	return wire.Response{OK: true, Detail: strconv.FormatInt(int64(id), 10)}, recorded
}

func (s *Server) writeSnapshot(req wire.Request) (wire.Response, effect) {
	if len(req.Args) != 2 {
		return errf("SNAPSHOT wants <name> <root-oid|*>"), unchanged
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
		return errf("%v", err), unchanged
	}
	return okf("%d oids %d links", len(cfg.OIDs), len(cfg.Links)), recorded
}

// writeBPSwap swaps the live blueprint: parse, analyze and atomically
// install the new policy while events keep flowing.  The swap is node
// configuration, not project data — it is NOT journaled and does not
// replicate; each node carries its own policy (docs/LOAD.md).
func (s *Server) writeBPSwap(req wire.Request) (wire.Response, effect) {
	if len(req.Args) != 1 {
		return errf("BPSWAP wants exactly one <source> arg"), unchanged
	}
	bp, err := bpl.Parse(req.Args[0])
	if err != nil {
		return errf("BPSWAP: %v", err), unchanged
	}
	if err := s.eng.SetBlueprint(bp); err != nil {
		return errf("BPSWAP: %v", err), unchanged
	}
	return okf("blueprint %s installed (%d views)", bp.Name, len(bp.Views)), unchanged
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
