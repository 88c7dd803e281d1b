package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/wire"
)

// Client is a wrapper-program connection to the project server — the
// library behind the postEvent command of section 3.1.
type Client struct {
	conn *timeoutConn
	r    *bufio.Reader
	w    *bufio.Writer

	// User attributes subsequent requests to a designer.
	User string
}

// ErrTimeout marks an I/O deadline expiry on a client operation — the
// hung-server case, distinguishable from a refused or broken connection.
var ErrTimeout = errors.New("client: operation timed out")

// Dial connects to a project server.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 5*time.Second, 0)
}

// DialTimeout connects to a project server with an explicit dial timeout
// and a per-operation I/O timeout (0 disables the latter, matching Dial).
func DialTimeout(addr string, dial, op time.Duration) (*Client, error) {
	if dial <= 0 {
		dial = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, dial)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return nil, fmt.Errorf("%w: dial %s: %v", ErrTimeout, addr, err)
		}
		return nil, fmt.Errorf("client: %w", err)
	}
	return NewClient(conn, op), nil
}

// NewClient wraps a connection its caller dialed — a follower dials its
// own, bounded and cancelable — and everything above the transport behaves
// exactly as after DialTimeout.
//
// op, when positive, bounds how long the peer may stay silent: every read
// from the connection and every write to it gets a deadline op ahead, so a
// hung server surfaces as ErrTimeout instead of blocking the caller
// forever, while a large REPORT body over a slow-but-live link — bytes
// arriving — never trips it.  On a FOLLOW stream op bounds the wait for each
// whole frame instead (see FollowFrom).  A primary that pings idle streams
// delivers a frame well inside any op longer than its ping interval, so
// there an expiry is a dead link: the half-open connection after a
// partition.  0 disables it.
func NewClient(conn net.Conn, op time.Duration) *Client {
	tc := &timeoutConn{Conn: conn, idle: op, write: op}
	return &Client{conn: tc, r: bufio.NewReaderSize(tc, 64*1024), w: bufio.NewWriter(tc)}
}

// wrapTimeout converts a deadline expiry into the typed ErrTimeout while
// passing every other error through untouched.
func wrapTimeout(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	return err
}

// Close terminates the connection politely.
func (c *Client) Close() error {
	_, _ = c.roundTrip(wire.Request{Verb: wire.VerbQuit})
	return c.conn.Close()
}

// Hangup closes the transport without the QUIT exchange — the only way to
// leave a FOLLOW stream, whose connection no longer answers requests.
func (c *Client) Hangup() error { return c.conn.Close() }

// errTornLine reports a line the transport cut off before its newline —
// the write that produced it never completed, so its content must not be
// trusted (a truncated line could parse as a different, valid one).
var errTornLine = errors.New("torn line at stream boundary")

// errLineTooLong reports a protocol line past maxLineBytes.
var errLineTooLong = fmt.Errorf("protocol line exceeds %d bytes", maxLineBytes)

// maxLineBytes bounds one protocol line on both sides of the connection:
// a peer streaming bytes without a newline must fail fast, not accumulate
// without bound in a long-lived server.  (A FOLLOW stream is not lines: its
// frames have the journal's bound.)
const maxLineBytes = 1 << 20

// readProtocolLine reads one newline-terminated protocol line from r.  A
// final fragment without its newline is reported as errTornLine, never
// returned as data — both the server's request loop and the client's
// response reader refuse to act on fragments, because a torn prefix of a
// longer line can itself be a valid, different line.
func readProtocolLine(r *bufio.Reader) (string, error) {
	frag, err := r.ReadSlice('\n')
	var long []byte // a line that outgrew the read buffer, joined
	for err == bufio.ErrBufferFull {
		if long = append(long, frag...); len(long) > maxLineBytes {
			return "", errLineTooLong
		}
		frag, err = r.ReadSlice('\n')
	}
	if long != nil {
		frag = append(long, frag...)
	}
	if err != nil {
		if (err == io.EOF || errors.Is(err, net.ErrClosed)) && len(frag) > 0 {
			return "", errTornLine
		}
		return "", err
	}
	if len(frag) > maxLineBytes {
		return "", errLineTooLong
	}
	return string(bytes.TrimRight(frag, "\r\n")), nil
}

// readLine reads one response line from the server.
func (c *Client) readLine() (string, error) {
	line, err := readProtocolLine(c.r)
	if err != nil && err != io.EOF {
		return "", fmt.Errorf("client: %w", wrapTimeout(err))
	}
	return line, err
}

// send writes one protocol line and pushes it to the socket.
func (c *Client) send(line string) error {
	_, err := c.w.WriteString(line + "\n")
	if err == nil {
		err = c.w.Flush()
	}
	if err != nil {
		return fmt.Errorf("client: send: %w", wrapTimeout(err))
	}
	return nil
}

// roundTrip sends one request and reads the complete response.
func (c *Client) roundTrip(req wire.Request) (wire.Response, error) {
	if req.User == "" {
		req.User = c.User
	}
	if err := c.send(req.Encode()); err != nil {
		return wire.Response{}, err
	}
	line, err := c.readLine()
	if err != nil {
		if err == io.EOF {
			return wire.Response{}, fmt.Errorf("client: connection closed")
		}
		return wire.Response{}, fmt.Errorf("client: recv: %w", err)
	}
	resp, multi, err := wire.ParseResponseHeader(line)
	if err != nil {
		return wire.Response{}, err
	}
	for multi {
		line, err := c.readLine()
		if err != nil {
			return wire.Response{}, fmt.Errorf("client: truncated response: %w", err)
		}
		content, done, err := wire.ParseBodyLine(line)
		if err != nil {
			return wire.Response{}, err
		}
		if done {
			break
		}
		resp.Body = append(resp.Body, content)
	}
	return resp, nil
}

// body, detail and key perform a request whose answer is, respectively,
// its body lines, its detail, and a key in its detail.
func (c *Client) body(verb string, args ...string) ([]string, error) {
	resp, err := c.do(verb, args...)
	return resp.Body, err
}

func (c *Client) detail(verb string, args ...string) (string, error) {
	resp, err := c.do(verb, args...)
	return resp.Detail, err
}

func (c *Client) key(verb string, args ...string) (meta.Key, error) {
	detail, err := c.detail(verb, args...)
	if err != nil {
		return meta.Key{}, err
	}
	return meta.ParseKey(detail)
}

// do performs a request and converts ERR responses into errors.
func (c *Client) do(verb string, args ...string) (wire.Response, error) {
	resp, err := c.roundTrip(wire.Request{Verb: verb, Args: args})
	if err != nil {
		return wire.Response{}, err
	}
	if !resp.OK {
		return wire.Response{}, fmt.Errorf("client: %s: %s", verb, resp.Detail)
	}
	return resp, nil
}

// Ping checks the server is alive.
func (c *Client) Ping() error {
	_, err := c.do(wire.VerbPing)
	return err
}

// Sync blocks until the server's event queue has settled — every drain
// finished, committed and, with a quorum configured, acknowledged.
func (c *Client) Sync() error {
	_, err := c.do(wire.VerbSync)
	return err
}

// PostEvent posts a design event:
//
//	client.PostEvent("ckin", "up", key, "logic sim passed")
func (c *Client) PostEvent(event, dir string, target meta.Key, args ...string) error {
	_, err := c.do(wire.VerbPost, append([]string{event, dir, target.String()}, args...)...)
	return err
}

// PostBatch posts many events in one round-trip — the BATCH verb.  The
// server posts every well-formed item, drains once, and reports per-item
// status.  It returns the number of accepted events; err is non-nil when
// the transport failed or any item was rejected (the per-item reasons are
// folded into the error).
func (c *Client) PostBatch(items []wire.BatchItem) (int, error) {
	if len(items) == 0 {
		return 0, nil
	}
	args := make([]string, len(items))
	for i, it := range items {
		args[i] = it.Encode()
	}
	resp, err := c.roundTrip(wire.Request{Verb: wire.VerbBatch, Args: args})
	if err != nil {
		return 0, err
	}
	posted := 0
	var failures []string
	for _, line := range resp.Body {
		fields, err := wire.Tokenize(line)
		if err != nil || len(fields) < 2 {
			continue
		}
		if fields[1] == "ok" {
			posted++
		} else {
			failures = append(failures, line)
		}
	}
	if !resp.OK {
		return posted, fmt.Errorf("client: BATCH: %s: %s", resp.Detail, strings.Join(failures, "; "))
	}
	return posted, nil
}

// Create makes a new version of (block, view) and returns its key.
func (c *Client) Create(block, view string) (meta.Key, error) {
	return c.key(wire.VerbCreate, block, view)
}

// Link relates two OIDs; class is "use" or "derive".
func (c *Client) Link(class string, from, to meta.Key) error {
	_, err := c.do(wire.VerbLink, class, from.String(), to.String())
	return err
}

// OIDState is the client-side decoding of a STATE response.
type OIDState struct {
	Key      meta.Key
	Ready    bool
	Props    map[string]string
	Blocking []string
}

// State queries the state of one OID.
func (c *Client) State(k meta.Key) (OIDState, error) {
	resp, err := c.do(wire.VerbState, k.String())
	if err != nil {
		return OIDState{}, err
	}
	st := OIDState{Key: k, Props: map[string]string{}}
	for _, line := range resp.Body {
		fields, err := wire.Tokenize(line)
		if err != nil || len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "ready":
			st.Ready = len(fields) > 1 && fields[1] == "true"
		case "prop":
			if len(fields) == 3 {
				st.Props[fields[1]] = fields[2]
			}
		case "blocking":
			st.Blocking = append(st.Blocking, strings.TrimPrefix(line, "blocking "))
		}
	}
	return st, nil
}

// Report retrieves the full project state report lines.
func (c *Client) Report() ([]string, error) {
	return c.body(wire.VerbReport)
}

// Gap retrieves the not-ready report lines.
func (c *Client) Gap() ([]string, error) {
	return c.body(wire.VerbGap)
}

// ReportAt retrieves the project state report as of at least the given
// journal LSN: on a follower the server first waits until the replica has
// applied that position, so a client that just wrote through the primary
// (and learned its LSN) reads its own write from any replica.
func (c *Client) ReportAt(lsn int64) ([]string, error) {
	return c.body(wire.VerbReport, strconv.FormatInt(lsn, 10))
}

// GapAt is Gap with the same minimum-LSN horizon as ReportAt.
func (c *Client) GapAt(lsn int64) ([]string, error) {
	return c.body(wire.VerbGap, strconv.FormatInt(lsn, 10))
}

// QueryAt runs a graph query pinned at the given journal LSN (0 = the
// server's current state).  kind is reach, deps, equiv or resolve; args
// are the kind's operands (an OID, optionally followed by a follow spec
// — use, all or type:t1,t2,... — for reach/deps; a configuration name
// for resolve).  On a follower the server first waits until the replica
// has applied the position, so the body at a given LSN is byte-identical
// on every node that has reached it.
func (c *Client) QueryAt(lsn int64, kind string, args ...string) ([]string, error) {
	return c.body(wire.VerbQuery, append([]string{strconv.FormatInt(lsn, 10), kind}, args...)...)
}

// LSN reports the server's journal position: the last journaled LSN on a
// primary, the applied LSN on a follower.
func (c *Client) LSN() (int64, error) {
	resp, err := c.do(wire.VerbLSN)
	if err != nil {
		return 0, err
	}
	fields, err := wire.Tokenize(resp.Detail)
	if err != nil || len(fields) != 2 || fields[0] != "lsn" {
		return 0, fmt.Errorf("client: LSN: bad response %q", resp.Detail)
	}
	return strconv.ParseInt(fields[1], 10, 64)
}

// ErrFollowRefused marks a FOLLOW the server rejected outright (not a
// replication primary, malformed position, a build of another stream
// version): retrying the same request cannot succeed.
var ErrFollowRefused = errors.New("follow refused")

// ErrFollowStream marks a terminal primary-side stream failure reported
// in-band (tail corruption, a position ahead of the primary's history):
// reconnecting with the same position cannot succeed.
var ErrFollowStream = errors.New("follow stream failed")

// FollowFrom switches the connection into replication-stream mode: it sends
// the FOLLOW handshake — after, the follower's applied position, and term,
// its history's election term there, which lets the primary fence a
// divergent tail (term 0: an observer, unfenced) — and hands fn every event
// of the stream, decoded by journal.ReadFollow, until the stream ends (nil
// return: the server shut down politely), the transport fails, or fn
// returns an error (returned verbatim).  A rejection wraps
// ErrFollowRefused; a primary-reported terminal failure wraps
// ErrFollowStream — both are pointless to retry, unlike transport errors.
// A frame cut off at the stream boundary, or whose checksum fails, is an
// error and never reaches fn.  The client's op timeout bounds the wait for
// each whole frame, not for each byte — a flipped length bit announces bytes
// that never come, while pings keep bytes coming — except inside a
// snapshot's body, where progress re-arms it.  The connection cannot be
// reused for request/response traffic afterwards.
func (c *Client) FollowFrom(after, term int64, fn func(journal.FollowEvent) error) error {
	if err := c.send(string(followRequest{after, term, journal.FollowVersion}.Bytes())); err != nil {
		return err
	}
	line, err := c.readLine()
	if err != nil {
		return fmt.Errorf("client: recv: %w", err)
	}
	resp, multi, err := wire.ParseResponseHeader(line)
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("client: FOLLOW, stream version %d: %s: %w", journal.FollowVersion, resp.Detail, ErrFollowRefused)
	}
	if !multi {
		return fmt.Errorf("client: FOLLOW: expected a streaming response, got %q", line)
	}
	return wrapTimeout(journal.ReadFollow(c.r, c.conn.armFrame, func(ev journal.FollowEvent) error {
		if ev.Kind == journal.FollowError {
			return fmt.Errorf("client: %s: %w", ev.Reason, ErrFollowStream)
		}
		return fn(ev)
	}))
}

// SendAck reports an applied-and-committed position upstream on a
// connection that is inside FollowFrom: the one line a follower may write
// on the stream, feeding the primary's quorum-ack accounting.  It must only
// be called from within the FollowFrom callback (the same goroutine owns
// both directions there).
func (c *Client) SendAck(lsn int64) error {
	return c.send(wire.AckPrefix + " " + strconv.FormatInt(lsn, 10))
}

// RoleInfo is the decoded ROLE response: the server's replication role
// and standing in one snapshot.
type RoleInfo struct {
	Role      string // "primary" or "follower"
	Term      int64
	Applied   int64
	Watermark int64
	Health    string // "ok" or "degraded" ("" from a server predating health)
	Reason    string // degraded reason, spaces folded to underscores on the wire

	// Staleness is a follower's wall-clock age of its last upstream
	// freshness evidence (an applied record, a caught-up watermark, or a
	// liveness ping), reported as staleness=<ms>.  A bounded value means
	// the replication link was provably alive that recently; a growing
	// one means the follower may be serving arbitrarily old reads.
	// false on a primary (its data is by definition current) and on
	// servers predating the field.
	HasStaleness bool
	Staleness    time.Duration
}

// Role queries the server's replication role, election term, applied LSN,
// commit watermark and health.
func (c *Client) Role() (RoleInfo, error) {
	resp, err := c.do(wire.VerbRole)
	if err != nil {
		return RoleInfo{}, err
	}
	info := RoleInfo{}
	for _, f := range strings.Fields(resp.Detail) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return RoleInfo{}, fmt.Errorf("client: ROLE: bad field %q in %q", f, resp.Detail)
		}
		switch k {
		case "role":
			info.Role = v
		case "health":
			info.Health = v
		case "reason":
			info.Reason = v
		case "term", "applied", "watermark", "staleness":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return RoleInfo{}, fmt.Errorf("client: ROLE: bad field %q in %q", f, resp.Detail)
			}
			switch k {
			case "term":
				info.Term = n
			case "applied":
				info.Applied = n
			case "watermark":
				info.Watermark = n
			case "staleness":
				info.HasStaleness = true
				info.Staleness = time.Duration(n) * time.Millisecond
			}
		}
	}
	if info.Role == "" || info.Term == 0 {
		return RoleInfo{}, fmt.Errorf("client: ROLE: bad response %q", resp.Detail)
	}
	return info, nil
}

// Promote asks a read-only follower server to become a primary, and
// returns the new election term and the LSN of its term-bump record.
func (c *Client) Promote() (term, lsn int64, err error) {
	resp, err := c.do(wire.VerbPromote)
	if err != nil {
		return 0, 0, err
	}
	fields, err := wire.Tokenize(resp.Detail)
	if err != nil || len(fields) != 5 || fields[0] != "promoted" || fields[1] != "term" || fields[3] != "lsn" {
		return 0, 0, fmt.Errorf("client: PROMOTE: bad response %q", resp.Detail)
	}
	term, err = strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("client: PROMOTE: bad response %q", resp.Detail)
	}
	lsn, err = strconv.ParseInt(fields[4], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("client: PROMOTE: bad response %q", resp.Detail)
	}
	return term, lsn, nil
}

// Snapshot stores a configuration server-side; root "*" captures the whole
// database.
func (c *Client) Snapshot(name, root string) (string, error) {
	return c.detail(wire.VerbSnapshot, name, root)
}

// Stats retrieves the server's one-line statistics summary.
func (c *Client) Stats() (string, error) {
	return c.detail(wire.VerbStats)
}

// StatsKV retrieves the server statistics parsed into a counter map —
// the engine counters plus the shed/refusal counters, so a load
// generator can reconcile its client-side error accounting against the
// server's own tallies.
func (c *Client) StatsKV() (map[string]int64, error) {
	detail, err := c.Stats()
	if err != nil {
		return nil, err
	}
	kv := map[string]int64{}
	for _, f := range strings.Fields(detail) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("client: STATS: bad field %q in %q", f, detail)
		}
		kv[k] = n
	}
	return kv, nil
}

// SwapBlueprint installs a new blueprint on a live server (BPSWAP): the
// source is parsed, analyzed and atomically swapped in while events keep
// flowing.  The swap is node-local configuration — it is not journaled
// and does not replicate to followers.
func (c *Client) SwapBlueprint(source string) error {
	_, err := c.do(wire.VerbBPSwap, source)
	return err
}

// Latest asks the server for the newest version of (block, view).
func (c *Client) Latest(block, view string) (meta.Key, error) {
	return c.key(wire.VerbLatest, block, view)
}

// Prop reads one property of an OID; ok reports whether it is set.
func (c *Client) Prop(k meta.Key, name string) (value string, ok bool, err error) {
	resp, err := c.do(wire.VerbProp, k.String(), name)
	if err != nil {
		return "", false, err
	}
	if resp.Detail == "unset" {
		return "", false, nil
	}
	fields, err := wire.Tokenize(resp.Detail)
	if err != nil || len(fields) != 2 || fields[0] != "set" {
		return "", false, fmt.Errorf("client: PROP: bad response %q", resp.Detail)
	}
	return fields[1], true, nil
}

// Links lists the links incident to an OID, one formatted line per link.
func (c *Client) Links(k meta.Key) ([]string, error) {
	return c.body(wire.VerbLinks, k.String())
}

// Dot retrieves a Graphviz rendering from the server: kind is "flow" (the
// BluePrint diagram, Figure 5) or "state" (the live project state).
func (c *Client) Dot(kind string) (string, error) {
	resp, err := c.do(wire.VerbDot, kind)
	if err != nil {
		return "", err
	}
	return strings.Join(resp.Body, "\n") + "\n", nil
}

// Blueprint retrieves the canonical source of the loaded blueprint.
func (c *Client) Blueprint() (string, error) {
	resp, err := c.do(wire.VerbBlueprint)
	if err != nil {
		return "", err
	}
	return strings.Join(resp.Body, "\n") + "\n", nil
}
