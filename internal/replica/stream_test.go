package replica_test

// The FOLLOW stream is the journal's own frames: a record longer than any
// protocol line replicates, streamed and inside a bootstrap checkpoint, and
// a bit flipped in flight fails the frame's checksum — nothing of it is
// applied, and the follower resumes at exactly the record it refused.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/netfault"
	"repro/internal/replica"
)

// caughtUp waits for node n to apply lsn, reporting — not failing on — a
// follower that does not get there: where it stopped, its counters and
// what its ROLE says.
func caughtUp(t *testing.T, n *fnode, lsn int64) bool {
	t.Helper()
	if _, err := n.fol.WaitApplied(lsn, 15*time.Second); err != nil {
		role, rerr := dialT(t, n.addr).Role()
		t.Errorf("follower at lsn %d of %d: %v; stats %+v, ROLE %+v (%v), terminal %v",
			n.fol.AppliedLSN(), lsn, err, n.fol.Stats(), role, rerr, n.fol.Err())
		return false
	}
	return true
}

// TestFollowerReplicatesLongRecord: a 1.5 MiB property value — past the
// 1 MiB bound of a protocol line, inside the journal's bound of a frame —
// reaches a follower once as a streamed record and once inside the
// checkpoint a cold follower bootstraps from (one-byte segments: every
// commit rotates, so the snapshot compacts away every record it covers).
// Both followers reach the primary's LSN with its Save byte for byte, and
// the bootstrapped one holds the primary's checkpoint file byte for byte.
func TestFollowerReplicatesLongRecord(t *testing.T) {
	p := startPrimary(t, t.TempDir(), journal.Options{SegmentBytes: 1, SnapshotEvery: -1})
	streamed := startNode(t, t.TempDir(), p.addr, journal.Options{})
	k, err := p.db.NewVersion("cpu", "HDL_model")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.db.SetProp(k, "netlist", strings.Repeat("0123456789abcdef", 3<<15)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.db.NewVersion("alu", "HDL_model"); err != nil {
		t.Fatal(err)
	}
	last := p.quiesce()
	want := saveBytes(t, p.db)
	if caughtUp(t, streamed, last) && !bytes.Equal(saveBytes(t, streamed.fol.DB()), want) {
		t.Errorf("the streamed follower's Save differs from the primary's")
	}

	if err := p.w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	cold := startNode(t, t.TempDir(), p.addr, journal.Options{})
	if caughtUp(t, cold, last) {
		if !bytes.Equal(saveBytes(t, cold.fol.DB()), want) || cold.fol.Stats().Bootstraps != 1 {
			t.Errorf("the bootstrapped follower's Save differs from the primary's, after %d bootstraps", cold.fol.Stats().Bootstraps)
		}
		name := fmt.Sprintf("snapshot-%016x.json", p.w.SnapshotLSN())
		prim, perr := os.ReadFile(filepath.Join(p.dir, name))
		foll, ferr := os.ReadFile(filepath.Join(cold.dir, name))
		if perr != nil || ferr != nil || !bytes.Equal(prim, foll) {
			t.Errorf("the follower's %s is not the primary's (%v, %v)", name, perr, ferr)
		}
	}
}

// followLog is a dialer that keeps every FOLLOW handshake a follower
// writes.
type followLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *followLog) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := netfault.System.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &loggedConn{Conn: c, log: l}, nil
}

func (l *followLog) handshakes() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

type loggedConn struct {
	net.Conn
	log *followLog
}

func (c *loggedConn) Write(b []byte) (int, error) {
	if line, ok := bytes.CutPrefix(b, []byte("FOLLOW ")); ok {
		c.log.mu.Lock()
		c.log.lines = append(c.log.lines, strings.TrimSpace(string(line)))
		c.log.mu.Unlock()
	}
	return c.Conn.Write(b)
}

// TestFollowerRefusesCorruptFrame: one bit of a record's payload flips on
// its way to the follower.  The frame fails its checksum, nothing of it is
// applied, and the follower reconnects asking for exactly that record —
// FOLLOW at the record before it — without a bootstrap, and ends with the
// primary's Save and the primary's log, frame for frame.
func TestFollowerRefusesCorruptFrame(t *testing.T) {
	p := startPrimary(t, t.TempDir(), journal.Options{SnapshotEvery: -1})
	pc := dialT(t, p.addr)
	for i := 0; i < 10; i++ {
		if _, err := pc.Create(fmt.Sprintf("blk%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	last := p.quiesce()

	// The flip lands on the block name's digit in the payload of record
	// bad, an OID another record creates when the digit loses its low bit.
	// Downstream, the segment's frames follow the handshake's answer.
	const bad = 6
	seg, err := os.ReadFile(filepath.Join(p.dir, "journal-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	_, frames, _ := bytes.Cut(seg, []byte{'\n'})
	at := len(seg) - len(frames)
	for lsn := 1; lsn < bad; lsn++ {
		at += 8 + int(binary.LittleEndian.Uint32(seg[at:]))
	}
	payload := seg[at+8 : at+8+int(binary.LittleEndian.Uint32(seg[at:]))]
	digit := bytes.Index(payload, []byte("blk")) + 3
	if digit < 3 {
		t.Fatalf("record %d is %q, want a CREATE's", bad, payload)
	}
	t.Logf("flipping the low bit of %q in record %q", payload[digit], payload)
	answer := "OK+ following after lsn 0\n"
	nth := int64(len(answer) + at - (len(seg) - len(frames)) + 8 + digit + 1)

	proxy, err := netfault.NewProxy(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.CorruptAfter(netfault.Down, nth)
	var log followLog
	a := startNode(t, t.TempDir(), proxy.Addr(), journal.Options{}, append(fastLink(time.Second), replica.WithDialer(&log))...)
	if !caughtUp(t, a, last) {
		return
	}
	if err := a.fol.Writer().Commit(); err != nil {
		t.Fatal(err)
	}
	if got := a.fol.Stats(); got.Failures != 1 || got.Bootstraps != 0 || a.fol.Err() != nil {
		t.Errorf("stats %+v, terminal %v; want one failure and no bootstrap", got, a.fol.Err())
	}
	if got, want := log.handshakes(), []string{"0 1 2", fmt.Sprintf("%d 1 2", bad-1)}; strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("FOLLOW handshakes %q, want %q", got, want)
	}
	if !bytes.Equal(saveBytes(t, a.fol.DB()), saveBytes(t, p.db)) {
		t.Errorf("the follower's Save differs from the primary's")
	}
	prim, foll := segmentFrames(t, p.dir), segmentFrames(t, a.dir)
	for lsn := int64(1); lsn <= last; lsn++ {
		if !bytes.Equal(prim[lsn], foll[lsn]) {
			t.Errorf("lsn %d: primary frame %q, follower frame %q", lsn, prim[lsn], foll[lsn])
		}
	}
}
