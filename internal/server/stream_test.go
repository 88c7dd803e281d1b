package server

import (
	"net"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestReportStreamsRowsBeforeTerminator: REPORT over a connection must
// send rows as its write buffer fills, not build the whole body first.  The
// server side runs on a synchronous, unbuffered net.Pipe playing a slow
// reader: each write rendezvouses with the Reads that take it, so if the
// server built the entire response first, the terminator would be in the
// pipe before the first row was read.  Streaming instead delivers the
// header and the first buffer of rows while later rows have not been
// evaluated — no chunk is larger than the write buffer, and rows arrive
// before the terminator.
func TestReportStreamsRowsBeforeTerminator(t *testing.T) {
	const trees = 16
	s := treeServer(t, trees)

	cli, srv := net.Pipe()
	defer cli.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.serveConn(srv)
	}()

	if _, err := cli.Write([]byte("REPORT\n")); err != nil {
		t.Fatal(err)
	}

	// Drain the response chunk by chunk.  The pipe is unbuffered, so a
	// Read never returns more than one write.
	var chunks []string
	var total strings.Builder
	buf := make([]byte, 64*1024)
	cli.SetReadDeadline(time.Now().Add(10 * time.Second))
	for !strings.HasSuffix(total.String(), "\n.\n") {
		n, err := cli.Read(buf)
		if err != nil {
			t.Fatalf("read after %d chunks: %v\nso far:\n%s", len(chunks), err, total.String())
		}
		if n > connWriteBuffer {
			t.Fatalf("a chunk of %d bytes: more than one write buffer (%d) was built before sending", n, connWriteBuffer)
		}
		chunks = append(chunks, string(buf[:n]))
		total.WriteString(string(buf[:n]))
	}

	// The first chunk is the header and the first rows — certainly not the
	// terminator.  A buffered implementation would deliver everything at
	// once.
	if !strings.HasPrefix(chunks[0], "OK+ streaming\n|") || strings.Contains(chunks[0], "\n.\n") {
		t.Fatalf("first chunk is not the header and some rows:\n%q", chunks[0])
	}
	if least := total.Len() / connWriteBuffer; len(chunks) < least || least < 2 {
		t.Fatalf("%d bytes arrived in %d chunks; streaming a buffer at a time takes at least %d", total.Len(), len(chunks), least)
	}

	// And the reassembled response is a correct, sorted report.
	lines := strings.Split(strings.TrimRight(total.String(), "\n"), "\n")
	if lines[len(lines)-1] != "." {
		t.Fatalf("bad terminator %q", lines[len(lines)-1])
	}
	body := lines[1 : len(lines)-1]
	if len(body) != trees*39 {
		t.Fatalf("%d body rows, want %d:\n%s", len(body), trees*39, total.String())
	}
	for i, l := range body {
		if !strings.HasPrefix(l, "|") {
			t.Fatalf("row %d lacks the body prefix: %q", i, l)
		}
	}
	if !slices.IsSorted(body) || !strings.HasPrefix(body[0], "|t0b0,layout,1 ") {
		t.Fatalf("rows not in sorted key order:\n%s", strings.Join(body, "\n"))
	}

	cli.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serveConn never returned after hangup")
	}
}

// TestServerIgnoresTornRequestLine: a request cut off mid-send — the
// connection dies before the newline — must never be executed, because a
// truncated prefix can itself parse as a valid, different request; on a
// journaled primary the wrong mutation would be committed and replicated.
func TestServerIgnoresTornRequestLine(t *testing.T) {
	s, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// A complete-looking CREATE torn from a longer line ("...HDL_modelX").
	if _, err := conn.Write([]byte("CREATE TORN HDL_model")); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// A full round-trip on a fresh connection orders us after the torn
	// one was (not) processed only heuristically; give the server a beat.
	time.Sleep(100 * time.Millisecond)
	if _, err := s.eng.DB().Head().Latest("TORN", "HDL_model"); err == nil {
		t.Fatal("server executed a torn request fragment")
	}

	// And a properly terminated line on a live connection still works.
	c := dial(t, addr)
	if _, err := c.Create("WHOLE", "HDL_model"); err != nil {
		t.Fatal(err)
	}
}

// TestReportMinLSNGate: the optional REPORT <min-lsn> argument needs an
// LSN space to compare against; a server with neither journal nor replica
// refuses it rather than silently serving unversioned state.
func TestReportMinLSNGate(t *testing.T) {
	_, addr := startServer(t) // no journal attached
	c := dial(t, addr)
	if _, err := c.ReportAt(1); err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("REPORT min-lsn without a journal: %v", err)
	}
}
