package replica_test

// The FOLLOW stream is the journal's own frames: a record longer than any
// protocol line replicates, streamed and inside a bootstrap checkpoint, a
// bit flipped in flight fails the frame's checksum — nothing of it is
// applied, and the follower resumes at exactly the record it refused — and
// a bit flipped in a frame's length, outside the checksum, stalls the
// stream within the stall timeout however many bytes keep arriving.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
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
	"repro/internal/server"
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
// Both followers reach the primary's LSN with its checkpoint byte for byte, and
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
	want := dbText(t, p.db)
	if caughtUp(t, streamed, last) && !bytes.Equal(dbText(t, streamed.fol.DB()), want) {
		t.Errorf("the streamed follower's checkpoint differs from the primary's")
	}

	if err := p.w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	cold := startNode(t, t.TempDir(), p.addr, journal.Options{})
	if caughtUp(t, cold, last) {
		if !bytes.Equal(dbText(t, cold.fol.DB()), want) || cold.fol.Stats().Bootstraps != 1 {
			t.Errorf("the bootstrapped follower's checkpoint differs from the primary's, after %d bootstraps", cold.fol.Stats().Bootstraps)
		}
		name := fmt.Sprintf("snapshot-%016x.json", p.w.SnapshotLSN())
		prim, perr := os.ReadFile(filepath.Join(p.dir, name))
		foll, ferr := os.ReadFile(filepath.Join(cold.dir, name))
		if perr != nil || ferr != nil || !bytes.Equal(prim, foll) {
			t.Errorf("the follower's %s is not the primary's (%v, %v)", name, perr, ferr)
		}
	}
}

// followLog is a relay in front of target that keeps every FOLLOW
// handshake a follower sends through it; the follower dials addr.
type followLog struct {
	addr  string
	mu    sync.Mutex
	lines []string
}

func logFollows(t *testing.T, target string) *followLog {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &followLog{addr: ln.Addr().String()}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.relay(c, target)
			}()
		}
	}()
	return l
}

// relay copies c's lines up to target, noting each FOLLOW line, and
// target's bytes back down, until either side closes.
func (l *followLog) relay(c net.Conn, target string) {
	defer c.Close()
	up, err := net.Dial("tcp", target)
	if err != nil {
		return
	}
	down := make(chan struct{})
	go func() {
		defer close(down)
		io.Copy(c, up)
		c.Close()
	}()
	r := bufio.NewReader(c)
	for {
		line, err := r.ReadString('\n')
		if rest, ok := strings.CutPrefix(line, "FOLLOW "); ok {
			l.mu.Lock()
			l.lines = append(l.lines, strings.TrimSpace(rest))
			l.mu.Unlock()
		}
		if _, werr := io.WriteString(up, line); err != nil || werr != nil {
			break
		}
	}
	up.Close()
	<-down
}

func (l *followLog) handshakes() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// frameAt returns the offset in the primary's first segment of record
// lsn's frame, and that of the first frame: the stream carries the frames
// from there on right after the FOLLOW answer.
func frameAt(t *testing.T, p *pnode, lsn int) (seg []byte, at, first int) {
	t.Helper()
	seg, err := os.ReadFile(filepath.Join(p.dir, "journal-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	_, frames, _ := bytes.Cut(seg, []byte{'\n'})
	first = len(seg) - len(frames)
	at = first
	for l := 1; l < lsn; l++ {
		at += 8 + int(binary.LittleEndian.Uint32(seg[at:]))
	}
	return seg, at, first
}

// TestFollowerRefusesCorruptFrame: one bit of a record's payload flips on
// its way to the follower.  The frame fails its checksum, nothing of it is
// applied, and the follower reconnects asking for exactly that record —
// FOLLOW at the record before it — without a bootstrap, and ends with the
// primary's checkpoint and the primary's log, frame for frame.
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
	seg, at, first := frameAt(t, p, bad)
	payload := seg[at+8 : at+8+int(binary.LittleEndian.Uint32(seg[at:]))]
	digit := bytes.Index(payload, []byte("blk")) + 3
	if digit < 3 {
		t.Fatalf("record %d is %q, want a CREATE's", bad, payload)
	}
	t.Logf("flipping the low bit of %q in record %q", payload[digit], payload)
	answer := "OK+ following after lsn 0\n"
	nth := int64(len(answer) + at - first + 8 + digit + 1)

	proxy, err := netfault.NewProxy(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.CorruptAfter(netfault.Down, nth)
	log := logFollows(t, proxy.Addr())
	a := startNode(t, t.TempDir(), log.addr, journal.Options{}, fastLink(time.Second)...)
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
	if !bytes.Equal(dbText(t, a.fol.DB()), dbText(t, p.db)) {
		t.Errorf("the follower's checkpoint differs from the primary's")
	}
	prim, foll := segmentFrames(t, p.dir), segmentFrames(t, a.dir)
	for lsn := int64(1); lsn <= last; lsn++ {
		if !bytes.Equal(prim[lsn], foll[lsn]) {
			t.Errorf("lsn %d: primary frame %q, follower frame %q", lsn, prim[lsn], foll[lsn])
		}
	}
}

// TestFollowerStallsOnPhantomFrameLength: one bit of a record's length field
// — outside the frame's checksum — flips on its way to the follower, so the
// frame announces 64 KiB more than the record has.  The primary's pings keep
// bytes coming, and they feed the phantom frame, but the follower must still
// count a stall within its timeout: the bound is on a whole frame, not on a
// byte.  It then reconnects asking for exactly the record it never got,
// without a bootstrap, and ends with the primary's checkpoint.
func TestFollowerStallsOnPhantomFrameLength(t *testing.T) {
	const stall = 500 * time.Millisecond
	p := startPrimary(t, t.TempDir(), journal.Options{SnapshotEvery: -1}, fastPing)
	pc := dialT(t, p.addr)
	for i := 0; i < 50; i++ {
		if _, err := pc.Create(fmt.Sprintf("blk%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	last := p.quiesce()

	// Bit 0 of the length's third byte adds 1<<16 to record bad's length.
	const bad = 6
	_, at, first := frameAt(t, p, bad)
	answer := "OK+ following after lsn 0\n"
	nth := int64(len(answer) + at - first + 2 + 1)

	proxy, err := netfault.NewProxy(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.CorruptAfter(netfault.Down, nth)
	log := logFollows(t, proxy.Addr())
	a := startNode(t, t.TempDir(), log.addr, journal.Options{}, fastLink(stall)...)
	waitStalls(t, a.fol, 1, 3*stall)
	if !caughtUp(t, a, last) {
		return
	}
	if got := a.fol.Stats(); got.Bootstraps != 0 || a.fol.Err() != nil {
		t.Errorf("stats %+v, terminal %v; want no bootstrap", got, a.fol.Err())
	}
	if got, want := log.handshakes(), []string{"0 1 2", fmt.Sprintf("%d 1 2", bad-1)}; strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("FOLLOW handshakes %q, want %q", got, want)
	}
	if !bytes.Equal(dbText(t, a.fol.DB()), dbText(t, p.db)) {
		t.Errorf("the follower's checkpoint differs from the primary's")
	}
}

// TestFollowerAppliesRunWithoutPing: the primary sends a run's records with
// the watermark that ends the run, so a follower of a primary that never
// pings, and goes quiet after one commit, applies the whole run and learns
// its watermark at once, not at a ping or a later commit that never come.
// Its stall detector is off, so a record left in the primary's write
// buffer could not come back through a reconnect either.
func TestFollowerAppliesRunWithoutPing(t *testing.T) {
	p := startPrimary(t, t.TempDir(), journal.Options{SnapshotEvery: -1}, server.WithFollowPing(0))
	run := func(prefix string) int64 {
		for i := 0; i < 50; i++ {
			if _, err := p.db.NewVersion(fmt.Sprintf("%s%d", prefix, i), "HDL_model"); err != nil {
				t.Fatal(err)
			}
		}
		return p.quiesce() // one commit: the run
	}
	applied := func(n *fnode, lsn int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); n.fol.AppliedLSN() < lsn || n.fol.Watermark() < lsn; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("follower at lsn %d, watermark %d; want both at %d (terminal: %v)",
					n.fol.AppliedLSN(), n.fol.Watermark(), lsn, n.fol.Err())
			}
		}
	}

	caughtUp := run("old") // streamed as the follower's catch-up
	f := startNode(t, t.TempDir(), p.addr, journal.Options{}, replica.WithStallTimeout(0))
	applied(f, caughtUp)
	applied(f, run("new")) // streamed to a parked follower
	if st := f.fol.Stats(); st.Connects != 1 || st.Stalls != 0 {
		t.Fatalf("stats %+v, want one connection and no stall", st)
	}
}
