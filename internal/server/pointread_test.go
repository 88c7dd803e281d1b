//go:build !race

package server

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/wire"
)

// projectServer serves the benchmark's design project: per tree 13 blocks
// in three views, the schematics a use-link hierarchy three wide, and each
// schematic derived into its netlist and its layout.
func projectServer(tb testing.TB, trees int) *Server {
	tb.Helper()
	s := newTestServer(tb)
	tb.Cleanup(func() { s.Close() })
	views := [3]string{"schematic", "netlist", "layout"}
	do := func(verb string, args ...string) {
		if resp := s.Handle(wire.Request{Verb: verb, Args: args}); !resp.OK {
			tb.Fatalf("%s %v: %s", verb, args, resp.Detail)
		}
	}
	for t := 0; t < trees; t++ {
		key := func(b, v int) string {
			return meta.Key{Block: fmt.Sprintf("t%db%d", t, b), View: views[v], Version: 1}.String()
		}
		for b := 0; b < 13; b++ {
			for _, v := range views {
				do(wire.VerbCreate, fmt.Sprintf("t%db%d", t, b), v)
			}
		}
		for b := 1; b < 13; b++ {
			do(wire.VerbLink, "use", key((b-1)/3, 0), key(b, 0))
		}
		for b := 0; b < 13; b++ {
			do(wire.VerbLink, "derive", key(b, 0), key(b, 1))
			do(wire.VerbLink, "derive", key(b, 0), key(b, 2))
		}
	}
	return s
}

// rawClient speaks the protocol over a live connection with buffers of its
// own and allocates nothing per request, so that what a process-wide
// allocation count moves by is the server's.
type rawClient struct {
	conn net.Conn
	buf  []byte
}

func dialRaw(tb testing.TB, addr string) *rawClient {
	tb.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	return &rawClient{conn: conn, buf: make([]byte, 64<<10)}
}

// do sends one request line, which ends in "\n", and reads its whole
// response: one line, or an "OK+" line through the "." terminator.
func (c *rawClient) do(tb testing.TB, req []byte) []byte {
	if _, err := c.conn.Write(req); err != nil {
		tb.Fatal(err)
	}
	n := 0
	for {
		if n == len(c.buf) {
			tb.Fatalf("response to %q outgrew %d bytes", req, n)
		}
		m, err := c.conn.Read(c.buf[n:])
		if err != nil {
			tb.Fatalf("response to %q: %v", req, err)
		}
		n += m
		resp := c.buf[:n]
		if i := bytes.IndexByte(resp, '\n'); i >= 0 {
			if !bytes.HasPrefix(resp, []byte("OK+")) && !bytes.HasPrefix(resp, []byte("ERR+")) {
				return resp
			}
			if bytes.HasSuffix(resp, []byte("\n.\n")) {
				return resp
			}
		}
	}
}

// pointReads are the reads a wrapper makes before it runs a tool: one OID's
// state, what it reaches and what a change to it invalidates, and the two
// one-line probes.
var pointReads = []struct{ name, line string }{
	{"state", "STATE t0b0,schematic,1\n"},
	{"reach", "QUERY 0 reach t0b0,schematic,1 all\n"},
	{"deps", "QUERY 0 deps t0b0,schematic,1\n"},
	{"ping", "PING\n"},
	{"lsn", "LSN\n"},
}

// bytesPerRead is the heap bytes, process-wide, one request of line costs
// over c, the fewest of three batches of n after a warm-up.
func bytesPerRead(tb testing.TB, c *rawClient, line []byte, n int) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 20; i++ {
		c.do(tb, line)
	}
	var ms runtime.MemStats
	best := ^uint64(0)
	for round := 0; round < 3; round++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < n; i++ {
			c.do(tb, line)
		}
		runtime.ReadMemStats(&ms)
		best = min(best, (ms.TotalAlloc-before)/uint64(n))
	}
	return best
}

// TestPointReadsAllocateNothing: a point read over a live connection — the
// request read and parsed, the answer rendered into the connection's write
// buffer — allocates a few hundred bytes at most, whatever the size of the
// project: no response is built as strings first, and no walk result is a
// slice of its own.
func TestPointReadsAllocateNothing(t *testing.T) {
	const budget = 320
	for _, trees := range []int{16, 64} {
		s := projectServer(t, trees)
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c := dialRaw(t, addr)
		c.conn.SetDeadline(time.Now().Add(time.Minute))
		for _, r := range pointReads {
			line := []byte(r.line)
			if resp := c.do(t, line); !bytes.HasPrefix(resp, []byte("OK")) {
				t.Fatalf("%s at %d trees: %q", r.name, trees, resp)
			}
			got := bytesPerRead(t, c, line, 200)
			t.Logf("%d trees: %s %d B", trees, r.name, got)
			if got > budget {
				t.Errorf("%s at %d trees allocates %d B a request: want at most %d", r.name, trees, got, budget)
			}
		}
	}
}

// BenchmarkPointReads is one STATE, QUERY reach and QUERY deps each over
// loopback on the 64-tree project, the request written and the response
// read whole by a client that allocates nothing: B/op and allocs/op are the
// server's.
func BenchmarkPointReads(b *testing.B) {
	s := projectServer(b, 64)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	c := dialRaw(b, addr)
	for _, r := range pointReads[:3] {
		b.Run(fmt.Sprintf("verb=%s", r.name), func(b *testing.B) {
			line := []byte(r.line)
			c.do(b, line)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.do(b, line)
			}
		})
	}
}
