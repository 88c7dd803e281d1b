package server

// Overload, timeout and fault hardening: the connection gate sheds with
// an explicit "overloaded" error, a panicking handler costs exactly its
// own connection, stalled and silent peers are disconnected by deadline,
// the accept loop rides out temporary errors, and a degraded journal
// refuses writes loudly while reads keep serving.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/faultfs"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/wire"
)

func startServerWith(t *testing.T, opts ...Option) (*Server, string) {
	t.Helper()
	s := newTestServer(t, opts...)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func newTestServer(t testing.TB, opts ...Option) *Server {
	t.Helper()
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(meta.NewDB(), bp)
	if err != nil {
		t.Fatal(err)
	}
	return New(eng, opts...)
}

func TestMaxConnsShedsExplicitly(t *testing.T) {
	_, addr := startServerWith(t, WithLimits(Limits{MaxConns: 2}))
	c1 := dial(t, addr)
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	c2 := dial(t, addr)
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}

	// The third connection gets one explicit shed line, then closes —
	// load must never look like a network failure.
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatalf("shed connection closed without the explicit overload line: %v", sc.Err())
	}
	line := sc.Text()
	if !strings.HasPrefix(line, "ERR") || !strings.Contains(line, "overloaded") {
		t.Fatalf("shed line = %q, want an ERR naming the overload", line)
	}
	if sc.Scan() {
		t.Errorf("shed connection stayed open: %q", sc.Text())
	}

	// Hanging up releases the slot.
	c1.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		c4, err := Dial(addr)
		if err == nil {
			pingErr := c4.Ping()
			c4.Close()
			if pingErr == nil {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("connection slot was not released after a client hung up")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHandlerPanicIsolatedToConnection(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	s, addr := startServerWith(t, WithLogger(func(f string, a ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(f, a...))
		mu.Unlock()
	}))
	s.testHookHandle = func(req wire.Request) {
		if req.Verb == wire.VerbStats {
			panic("injected handler panic")
		}
	}

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "STATS\n")
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if sc := bufio.NewScanner(conn); sc.Scan() {
		t.Fatalf("panicking handler produced a response: %q", sc.Text())
	}

	// Only that connection died; the server and other clients carry on.
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatalf("server down after a handler panic: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, l := range logs {
		if strings.Contains(l, "panic") && strings.Contains(l, "injected handler panic") {
			found = true
		}
	}
	if !found {
		t.Errorf("panic was not logged with its message: %v", logs)
	}
}

func TestIdleTimeoutClosesSilentConnection(t *testing.T) {
	_, addr := startServerWith(t, WithLimits(Limits{IdleTimeout: 100 * time.Millisecond}))
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "PING\n")
	sc := bufio.NewScanner(conn)
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if !sc.Scan() || !strings.Contains(sc.Text(), "pong") {
		t.Fatalf("live connection did not answer: %q", sc.Text())
	}
	// Fall silent: the idle deadline must close the connection, and well
	// before the client-side guard below expires.
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if sc.Scan() {
		t.Fatalf("idle server sent data: %q", sc.Text())
	}
	if ne, ok := sc.Err().(net.Error); ok && ne.Timeout() {
		t.Fatal("idle connection was never closed by the server")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("idle close took %v, want around the 100ms deadline", elapsed)
	}
}

func TestFollowExemptFromIdleTimeout(t *testing.T) {
	idle := 100 * time.Millisecond
	// A write-idle primary that does not ping: its stream, once caught up,
	// sends nothing at all.
	w, _, err := journal.Open(t.TempDir(), journal.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Abort)
	_, addr := startServerWith(t,
		WithLimits(Limits{IdleTimeout: idle}),
		WithJournal(w),
		WithFollowPing(0))
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "%s\n", followRequest{version: journal.FollowVersion}.Bytes())
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "OK+") {
		t.Fatalf("FOLLOW header = %q, %v", line, err)
	}
	mark := streamOf(journal.FollowEvent{Kind: journal.FollowMark, Watermark: 0})
	frame := make([]byte, len(mark))
	if _, err := io.ReadFull(br, frame); err != nil || string(frame) != mark {
		t.Fatalf("caught-up frame = %q, %v; want %q", frame, err, mark)
	}
	// A write-idle primary is healthy silence: the stream must outlive
	// many idle windows instead of being reaped by the idle deadline.
	conn.SetReadDeadline(time.Now().Add(6 * idle))
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("unexpected data on a parked follow stream")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("follow stream closed during healthy silence: %v", err)
	}
}

func TestWriteTimeoutUnblocksStalledClient(t *testing.T) {
	s := newTestServer(t, WithLimits(Limits{WriteTimeout: 100 * time.Millisecond}))
	// net.Pipe has no buffering: a write the peer never reads blocks
	// immediately, exactly the stalled-consumer case.
	cli, srv := net.Pipe()
	defer cli.Close()
	done := make(chan struct{})
	go func() {
		s.serveConn(srv)
		close(done)
	}()
	go fmt.Fprintf(cli, "PING\n")
	// The client never reads the response; the write deadline must free
	// the handler instead of parking it forever.
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still parked on a write the client never consumed")
	}
}

func TestBatchItemBound(t *testing.T) {
	// The bound always applies — one request must never expand into
	// unbounded queued work.
	s := newTestServer(t)
	items := make([]string, MaxBatchItems+1)
	for i := range items {
		items[i] = "a b c"
	}
	resp := s.Handle(wire.Request{Verb: wire.VerbBatch, Args: items})
	if resp.OK || !strings.Contains(resp.Detail, "exceeds") {
		t.Fatalf("over-bound BATCH = %+v, want a refusal naming the bound", resp)
	}
	resp = s.Handle(wire.Request{Verb: wire.VerbBatch, Args: items[:MaxBatchItems]})
	if strings.Contains(resp.Detail, "exceeds") {
		t.Fatalf("in-bound BATCH refused: %+v", resp)
	}
}

// tempNetErr mimics the transient accept failures (EMFILE et al.) the
// accept loop must ride out.
type tempNetErr struct{}

func (tempNetErr) Error() string   { return "accept: too many open files" }
func (tempNetErr) Timeout() bool   { return false }
func (tempNetErr) Temporary() bool { return true }

// scriptedListener replays a fixed Accept sequence; a closed channel ends
// the script with a permanent error.
type scriptedListener struct {
	steps chan any // error or net.Conn
}

func (l *scriptedListener) Accept() (net.Conn, error) {
	v, ok := <-l.steps
	if !ok {
		return nil, errors.New("use of closed network connection")
	}
	if c, isConn := v.(net.Conn); isConn {
		return c, nil
	}
	return nil, v.(error)
}

func (l *scriptedListener) Close() error   { return nil }
func (l *scriptedListener) Addr() net.Addr { return &net.TCPAddr{} }

func TestAcceptBackoffRecoversFromTemporaryErrors(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	s := newTestServer(t, WithLogger(func(f string, a ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(f, a...))
		mu.Unlock()
	}))
	cli, srvConn := net.Pipe()
	defer cli.Close()
	ln := &scriptedListener{steps: make(chan any, 3)}
	ln.steps <- tempNetErr{}
	ln.steps <- tempNetErr{}
	ln.steps <- srvConn
	close(ln.steps)

	s.wg.Add(1)
	done := make(chan struct{})
	go func() {
		s.acceptLoop(ln)
		close(done)
	}()

	// The loop survived two transient failures and still serves the
	// connection that follows them.
	go fmt.Fprintf(cli, "PING\n")
	cli.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(cli).ReadString('\n')
	if err != nil || !strings.Contains(line, "pong") {
		t.Fatalf("connection after backoff answered (%q, %v), want pong", line, err)
	}
	cli.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("accept loop did not exit on the permanent error")
	}
	mu.Lock()
	defer mu.Unlock()
	retries := 0
	for _, l := range logs {
		if strings.Contains(l, "retrying") {
			retries++
		}
	}
	if retries != 2 {
		t.Errorf("logged %d accept retries, want 2: %v", retries, logs)
	}
}

// TestJournalDegradedServerContract drives the wedged-disk contract for
// every verb that commits: the commit that hits the fault fails its own
// request with the journal-io prefix, whichever verb it rode, every later
// write is refused up front with the sticky reason, reads keep serving,
// and ROLE reports health=degraded for failover drivers.
func TestJournalDegradedServerContract(t *testing.T) {
	cases := []struct {
		verb string
		args []string
	}{
		{wire.VerbPost, []string{"hdl_sim", "down", "a,HDL_model,1", "good"}},
		{wire.VerbBatch, []string{wire.BatchItem{Event: "hdl_sim", Dir: "down", OID: "a,HDL_model,1", Args: []string{"good"}}.Encode()}},
		{wire.VerbCreate, []string{"c", "HDL_model"}},
		{wire.VerbLink, []string{"derive", "a,HDL_model,1", "b,schematic,1"}},
		{wire.VerbSnapshot, []string{"cfg", "*"}},
		{wire.VerbSync, nil},
	}
	for _, tc := range cases {
		t.Run(tc.verb, func(t *testing.T) {
			// Write 1 is the segment header at Open; write 2 — the first
			// commit, which carries the setup's records and the verb's —
			// wedges the disk for good.
			inj := faultfs.New(faultfs.OS, faultfs.StickyFault(faultfs.OpWrite, 2, nil))
			s, _ := journaledServer(t, journal.Options{FS: inj})
			for _, bv := range [][2]string{{"a", "HDL_model"}, {"b", "schematic"}} {
				if _, err := s.Engine().DB().NewVersion(bv[0], bv[1]); err != nil {
					t.Fatal(err)
				}
			}
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			c := dial(t, addr)

			// The write that hits the fault: the contract's prefix, never
			// an OK.
			if resp := s.Handle(wire.Request{Verb: tc.verb, Args: tc.args}); resp.OK {
				t.Fatalf("%s acknowledged over a failed journal append: %+v", tc.verb, resp)
			} else if !strings.HasPrefix(resp.Detail, "journal-io: ") {
				t.Fatalf("%s commit failure = %q, want the journal-io: prefix", tc.verb, resp.Detail)
			}

			// Degraded now: writes are refused up front with the contract
			// line.
			if _, err := c.Create("ALU", "HDL_model"); err == nil {
				t.Fatal("degraded server accepted CREATE")
			} else if !strings.Contains(err.Error(), "degraded") || !strings.Contains(err.Error(), "journal-io") {
				t.Fatalf("refusal does not state the degraded contract: %v", err)
			}

			// Reads keep serving.
			if _, err := c.Report(); err != nil {
				t.Fatalf("degraded server stopped serving reads: %v", err)
			}

			// ROLE carries the health for failover drivers — and the
			// client parses it.
			ri, err := c.Role()
			if err != nil {
				t.Fatal(err)
			}
			if ri.Role != "primary" || ri.Health != "degraded" || ri.Reason == "" {
				t.Fatalf("ROLE = %+v, want primary/degraded with a reason", ri)
			}
		})
	}
}

func TestClientOperationTimeout(t *testing.T) {
	// A server that accepts and reads but never answers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()

	c, err := DialTimeout(ln.Addr().String(), 2*time.Second, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.Ping()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("ping against a mute server = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("timeout took %v, want around the 150ms deadline", elapsed)
	}
}
