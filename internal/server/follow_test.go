package server

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/wire"
)

// streamOf encodes events as a FOLLOW stream carries them.
func streamOf(evs ...journal.FollowEvent) string {
	var b []byte
	for _, ev := range evs {
		b = journal.AppendFollowEvent(b, ev)
	}
	return string(b)
}

// recordEvent is the record event of a payload, framed as the writer frames
// it.
func recordEvent(payload string) journal.FollowEvent {
	return journal.FollowEvent{Kind: journal.FollowRecord, Frame: journal.AppendFrame(nil, []byte(payload))}
}

// frameBound is the journal's bound on one frame's payload.
const frameBound = 16 << 20

// FuzzFollowFrame: whatever bytes a FOLLOW stream carries, decoding them
// never panics, never allocates more than they hold plus one frame's bound,
// and hands on only events that encode back to the very bytes they came
// from — a record as its frame, byte for byte, so what the primary's
// segment file holds is what the follower appends.
func FuzzFollowFrame(f *testing.F) {
	mark := journal.FollowEvent{Kind: journal.FollowMark, Watermark: 17}
	valid := streamOf(recordEvent("1 1 event ckin"), mark)
	f.Add(streamOf(recordEvent(`7 5 update cpu,HDL_model,1 1 note "a b \"q\" \\"`)))
	f.Add(streamOf(recordEvent("1 0 event")))
	f.Add(streamOf(recordEvent("9223372036854775807 -1 \"\" \"\""), mark))
	f.Add(streamOf(recordEvent("4\t4 \"oid\" odd,HDL_model,1 4")))
	f.Add(streamOf(recordEvent("5 5 event ckin\nrecord 6 6 oid forged,HDL_model,1 6")))
	f.Add(streamOf(journal.FollowEvent{Kind: journal.FollowSnapshot, SnapLSN: 42, Snapshot: []byte("DJS2 body\n\x00\xff")}))
	f.Add(streamOf(journal.FollowEvent{Kind: journal.FollowPing, Watermark: 17}))
	f.Add(streamOf(journal.FollowEvent{Kind: journal.FollowHealth, Reason: "journal fsync: no space left"}))
	f.Add(streamOf(journal.FollowEvent{Kind: journal.FollowError, Reason: "tail: position 9 is ahead of the journal"}))
	f.Add(valid + streamOf(journal.FollowEvent{Kind: journal.FollowEnd}) + valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:5] + "\x00" + valid[6:])
	f.Add("\xff\xff\xff\x7f\x00\x00\x00\x00")
	f.Add(string(journal.AppendFrame(nil, []byte("gossip 1"))))
	f.Add(string(journal.AppendFrame(nil, []byte("watermark +17"))))
	f.Add(string(journal.AppendFrame(nil, []byte("snapshot 42 99999999"))) + "short")
	f.Fuzz(func(t *testing.T, data string) {
		out := make([]byte, 0, len(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		journal.ReadFollow(strings.NewReader(data), func(ev journal.FollowEvent) error {
			out = journal.AppendFollowEvent(out, ev)
			return nil
		})
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(data)+frameBound) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if !strings.HasPrefix(data, string(out)) {
			t.Fatalf("%q decodes to events that encode as %q", data, out)
		}
	})
}

// TestFollowRequestRoundTrip: the handshake a follower writes is the
// handshake the server reads.
func TestFollowRequestRoundTrip(t *testing.T) {
	for _, h := range []followRequest{
		{after: 0, term: 0, version: journal.FollowVersion},
		{after: 4116, term: 1, version: journal.FollowVersion},
		{after: 1<<62 + 3, term: 7, version: journal.FollowVersion},
	} {
		req, err := wire.ParseRequest(string(h.Bytes()))
		if err != nil || req.Verb != wire.VerbFollow {
			t.Fatalf("%q: %+v, %v", h.Bytes(), req, err)
		}
		got, err := parseFollowRequest(req.Args)
		if err != nil || got != h {
			t.Fatalf("%q came back as %+v, %v; want %+v", h.Bytes(), got, err, h)
		}
	}
}

// TestFollowVersionRefused: a FOLLOW of another stream version — version
// 1's, without a version, or a newer one — is refused at the handshake with
// a message naming both versions, and a follower told so stops: the refusal
// wraps ErrFollowRefused.
func TestFollowVersionRefused(t *testing.T) {
	w, _, err := journal.Open(t.TempDir(), journal.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Abort)
	_, addr := startServerWith(t, WithJournal(w))
	for line, want := range map[string]error{
		"FOLLOW 0":       errFollowOld,
		"FOLLOW 0 1":     errFollowOld,
		"FOLLOW 0 1 1":   errFollowOld,
		"FOLLOW 0 1 3":   errFollowNew,
		"FOLLOW 0 1 3 x": errFollowNew,
	} {
		_, err := parseFollowRequest(strings.Fields(line)[1:])
		if !errors.Is(err, want) || !strings.Contains(err.Error(), "this server speaks version 2") {
			t.Errorf("%s: %v, want %v naming version 2", line, err, want)
		}
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(conn, 2*time.Second)
		if err := c.send(line); err != nil {
			t.Fatal(err)
		}
		resp, err := c.readLine()
		c.Hangup()
		if err != nil || !strings.HasPrefix(resp, "ERR "+want.Error()) {
			t.Errorf("%s: answered %q, %v", line, resp, err)
		}
	}

	// The follower's side: a primary of stream version 1 refuses this
	// build's handshake as malformed, and that is a refusal — terminal.
	v1 := chunkServer(t, 0, "ERR FOLLOW wants <last-applied-lsn> [<term>]\n")
	c, err := DialTimeout(v1, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Hangup()
	err = c.FollowFrom(0, 1, func(journal.FollowEvent) error { return nil })
	if !errors.Is(err, ErrFollowRefused) || !strings.Contains(err.Error(), "stream version 2") {
		t.Fatalf("a primary of stream version 1: %v, want ErrFollowRefused naming version 2", err)
	}
}
