package server

// Client-side silence detection against scripted peers: the per-op
// timeout must bound peer silence (not total transfer time — the
// whole-op deadline bug made big slow bodies indistinguishable from
// hangs), a server that goes mute mid-body must surface ErrTimeout
// within two timeout windows, and a follow stream that falls silent
// must trip the same timeout the same way — while a snapshot's body that
// keeps arriving does not.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
)

// muteServer accepts one connection, reads one request line, writes the
// scripted lines (one flush each, gap apart), then goes mute — holding
// the connection open without closing it, the half-open peer whose
// silence only a deadline can detect.
func muteServer(t *testing.T, gap time.Duration, lines ...string) string {
	t.Helper()
	chunks := make([]string, len(lines))
	for i, l := range lines {
		chunks[i] = l + "\n"
	}
	return chunkServer(t, gap, chunks...)
}

// chunkServer is muteServer writing raw chunks, so a write can end in the
// middle of a line the way a TCP segment or a full server buffer does.
func chunkServer(t *testing.T, gap time.Duration, chunks ...string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	t.Cleanup(func() {
		close(hold)
		ln.Close()
	})
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := bufio.NewReader(c).ReadString('\n'); err != nil {
			return
		}
		for _, l := range chunks {
			if gap > 0 {
				time.Sleep(gap)
			}
			if _, err := c.Write([]byte(l)); err != nil {
				return
			}
		}
		<-hold // mute: never another byte, never a close
	}()
	return ln.Addr().String()
}

// TestClientTimeoutBoundsSilenceNotTransfer: eight body lines, each gap
// well inside the per-op timeout, total well past it.  A slow-but-live
// body is progress and must complete — the deadline refreshes per line
// read, it does not cap the whole response.
func TestClientTimeoutBoundsSilenceNotTransfer(t *testing.T) {
	const op = 150 * time.Millisecond
	lines := []string{"OK+ rows"}
	for i := 0; i < 8; i++ {
		lines = append(lines, fmt.Sprintf("|row%d", i))
	}
	lines = append(lines, ".")
	addr := muteServer(t, 60*time.Millisecond, lines...)

	c, err := DialTimeout(addr, time.Second, op)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Hangup()
	rows, err := c.Report()
	if err != nil {
		t.Fatalf("slow-but-live response tripped the per-op timeout: %v", err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
}

// TestClientTimeoutBoundsSilenceMidLine: the same slow-but-live body, but
// every chunk ends in the middle of a row, so the client's buffer is never
// empty between reads.  The deadline must still refresh before each read
// that waits on the peer.
func TestClientTimeoutBoundsSilenceMidLine(t *testing.T) {
	const op = 150 * time.Millisecond
	chunks := []string{"OK+ rows\n|ro"}
	for i := 0; i < 8; i++ {
		chunks = append(chunks, fmt.Sprintf("w%d\n|ro", i))
	}
	chunks = append(chunks, "w8\n.\n")
	addr := chunkServer(t, 60*time.Millisecond, chunks...)

	c, err := DialTimeout(addr, time.Second, op)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Hangup()
	rows, err := c.Report()
	if err != nil {
		t.Fatalf("slow-but-live response cut mid-line tripped the per-op timeout: %v", err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(rows))
	}
}

// TestClientReadStallMidLine: the peer stops in the middle of a row.  The
// half line in the buffer is not progress to wait on forever.
func TestClientReadStallMidLine(t *testing.T) {
	const op = 250 * time.Millisecond
	addr := chunkServer(t, 0, "OK+ rows\n|row0\n|ro")

	c, err := DialTimeout(addr, time.Second, op)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Hangup()
	start := time.Now()
	_, err = c.Report()
	if elapsed := time.Since(start); !errors.Is(err, ErrTimeout) || elapsed > 2*op {
		t.Fatalf("mute-mid-line server = %v after %v, want ErrTimeout within %v", err, elapsed, 2*op)
	}
}

// TestClientReadStallMidBody: the peer sends the header and one row,
// then nothing — ever.  The client must surface ErrTimeout within two
// timeout windows instead of hanging on the open connection.
func TestClientReadStallMidBody(t *testing.T) {
	const op = 250 * time.Millisecond
	addr := muteServer(t, 0, "OK+ rows", "|row0")

	c, err := DialTimeout(addr, time.Second, op)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Hangup()
	start := time.Now()
	_, err = c.Report()
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("mute-after-header server = %v, want ErrTimeout", err)
	}
	if elapsed > 2*op {
		t.Fatalf("stall surfaced after %v, want within %v", elapsed, 2*op)
	}
}

// TestClientFollowStreamStall: a follow stream delivers its handshake
// and one frame, then falls silent.  The client's timeout must turn that
// silence into ErrTimeout within two windows — after delivering the
// frame that did arrive.
func TestClientFollowStreamStall(t *testing.T) {
	const stall = 250 * time.Millisecond
	addr := chunkServer(t, 0, "OK+ streaming\n", streamOf(journal.FollowEvent{Kind: journal.FollowMark, Watermark: 7}))

	c, err := DialTimeout(addr, time.Second, stall)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Hangup()

	var marks int
	start := time.Now()
	err = c.FollowFrom(0, 0, func(ev journal.FollowEvent) error {
		if ev.Kind == journal.FollowMark {
			marks++
			if ev.Watermark != 7 {
				t.Errorf("watermark %d, want 7", ev.Watermark)
			}
		}
		return nil
	})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("silent follow stream = %v, want ErrTimeout", err)
	}
	if marks != 1 {
		t.Fatalf("delivered %d frames before the stall, want 1", marks)
	}
	if elapsed > 2*stall {
		t.Fatalf("stream stall surfaced after %v, want within %v", elapsed, 2*stall)
	}
}

// TestClientFollowSnapshotBodyProgress: a snapshot's body, whose size came
// in a checked frame, trickles in over four times the client's timeout, each
// gap well inside it.  A follow stream times each frame whole, but progress
// inside a body re-arms the bound, so the bootstrap arrives whole.
func TestClientFollowSnapshotBodyProgress(t *testing.T) {
	const op = 150 * time.Millisecond
	body := strings.Repeat("0123456789", 80)
	snap := streamOf(journal.FollowEvent{Kind: journal.FollowSnapshot, SnapLSN: 3, Snapshot: []byte(body)})
	chunks := []string{"OK+ streaming\n" + snap[:len(snap)-len(body)]}
	for part := range 8 {
		chunks = append(chunks, body[part*100:(part+1)*100])
	}
	chunks = append(chunks, streamOf(journal.FollowEvent{Kind: journal.FollowEnd}))
	addr := chunkServer(t, 60*time.Millisecond, chunks...)

	c, err := DialTimeout(addr, time.Second, op)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Hangup()
	var got string
	err = c.FollowFrom(0, 0, func(ev journal.FollowEvent) error {
		if ev.Kind == journal.FollowSnapshot {
			got = string(ev.Snapshot)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("slow-but-live snapshot body tripped the stall bound: %v", err)
	}
	if got != body {
		t.Fatalf("snapshot body %d bytes, want %d", len(got), len(body))
	}
}
