package replica_test

// Wire-level edge cases of the FOLLOW stream, driven by a fake primary
// that speaks raw bytes: a record torn at the stream boundary (the
// connection dies mid-frame) must never be applied — even when the
// truncated prefix is a different, VALID record payload — and the follower
// must reconnect and resume from its persisted position.

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wire"
)

// fakePrimary accepts FOLLOW connections and plays scripted byte streams:
// script[i] is written to the i-th connection verbatim after the OK+
// header, then the connection closes (except the last script, which stays
// open so the follower parks instead of spinning).
type fakePrimary struct {
	t       *testing.T
	ln      net.Listener
	scripts []string
	conns   atomic.Int32
	follows chan string // the FOLLOW request line of each connection
}

func startFakePrimary(t *testing.T, scripts []string) *fakePrimary {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fp := &fakePrimary{t: t, ln: ln, scripts: scripts, follows: make(chan string, 16)}
	go fp.loop()
	t.Cleanup(func() { ln.Close() })
	return fp
}

func (fp *fakePrimary) loop() {
	for {
		conn, err := fp.ln.Accept()
		if err != nil {
			return
		}
		n := int(fp.conns.Add(1)) - 1
		go fp.serve(conn, n)
	}
}

func (fp *fakePrimary) serve(conn net.Conn, n int) {
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil {
		conn.Close()
		return
	}
	fp.follows <- strings.TrimRight(line, "\r\n")
	if n >= len(fp.scripts) {
		// No script left: hold the connection open silently so the
		// follower waits instead of reconnect-spinning.
		return
	}
	if _, err := conn.Write([]byte("OK+ following\n" + fp.scripts[n])); err != nil {
		conn.Close()
		return
	}
	if n < len(fp.scripts)-1 {
		conn.Close() // the tear: mid-line for scripts that end without \n
	}
}

// record renders a record's journal payload as the writer spells it, with
// its sequence number equal to its LSN.
func record(lsn int64, op string, args ...string) string {
	fields := []string{fmt.Sprint(lsn), fmt.Sprint(lsn), wire.Quote(op)}
	for _, a := range args {
		fields = append(fields, wire.Quote(a))
	}
	return strings.Join(fields, " ")
}

// frameLine renders a record as the stream carries it: its journal frame.
func frameLine(payload string) string {
	return string(journal.AppendFrame(nil, []byte(payload)))
}

// markLine renders a caught-up watermark as the stream carries it.
func markLine(lsn int64) string {
	return string(journal.AppendFollowEvent(nil, journal.FollowEvent{Kind: journal.FollowMark, Watermark: lsn}))
}

// TestFollowerIgnoresTornRecordAtStreamBoundary: the third record's frame
// is cut off exactly where the truncated payload still parses as a valid —
// but wrong — record (workspace root "/d" instead of "/data").  The
// follower must discard the fragment, reconnect with FOLLOW 2, and apply
// only the authoritative replay.
func TestFollowerIgnoresTornRecordAtStreamBoundary(t *testing.T) {
	r1 := record(1, meta.OpOID, "cpu,HDL_model,1", "1")
	r2 := record(2, meta.OpOID, "alu,HDL_model,1", "2")
	r3 := record(3, meta.OpWorkspace, "w33", "/data")
	r4 := record(4, meta.OpBind, "w33", "cpu,HDL_model,1", "some/path")

	full3 := frameLine(r3)
	torn3 := strings.TrimSuffix(full3, "ata") // the frame of "3 3 workspace w33 /data", cut after "/d"
	if !strings.HasSuffix(torn3, "/d") {
		t.Fatalf("tear landed wrong: %q", torn3)
	}

	scripts := []string{
		// Connection 1: two good records, then the torn line, then the
		// transport dies.
		frameLine(r1) + frameLine(r2) + torn3,
		// Connection 2: the resume — must be asked from lsn 2 — replays
		// the real record 3 and continues.  Ends with a watermark and
		// stays open.
		frameLine(r3) + frameLine(r4) + markLine(4),
	}
	fp := startFakePrimary(t, scripts)

	fol, err := replica.Start(t.TempDir(), fp.ln.Addr().String(), journal.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Abort()

	want := func(req string) {
		t.Helper()
		select {
		case got := <-fp.follows:
			if got != req {
				t.Fatalf("primary saw %q, want %q", got, req)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %q", req)
		}
	}
	// The follower announces its history's term (genesis 1) with every
	// FOLLOW so the primary can fence divergent tails, and the version of
	// the stream it reads.
	want("FOLLOW 0 1 2")
	// The reconnect must resume from the persisted position — record 3
	// (torn) not applied, records 1-2 kept.
	want("FOLLOW 2 1 2")

	if _, err := fol.WaitApplied(4, 10*time.Second); err != nil {
		t.Fatalf("follower never caught up: %v (terminal: %v)", err, fol.Err())
	}
	ws, err := fol.DB().Head().GetWorkspace("w33")
	if err != nil {
		t.Fatal(err)
	}
	if ws.Root != "/data" {
		t.Fatalf("workspace root %q — the torn record's valid-looking prefix was applied", ws.Root)
	}
	if p, ok := ws.Path(meta.Key{Block: "cpu", View: "HDL_model", Version: 1}); !ok || p != "some/path" {
		t.Fatalf("bind missing after resume: %q %v", p, ok)
	}
	if err := fol.Err(); err != nil {
		t.Fatalf("follower reported terminal error: %v", err)
	}
}

// TestFollowerRejectsGapInStream: a primary that skips an LSN must stop
// the follower terminally — applying around a hole would silently fork
// the replica.
func TestFollowerRejectsGapInStream(t *testing.T) {
	r1 := record(1, meta.OpOID, "cpu,HDL_model,1", "1")
	r3 := record(3, meta.OpOID, "reg,HDL_model,1", "3") // 2 never sent
	fp := startFakePrimary(t, []string{frameLine(r1) + frameLine(r3) + markLine(3)})

	fol, err := replica.Start(t.TempDir(), fp.ln.Addr().String(), journal.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Abort()

	deadline := time.Now().Add(10 * time.Second)
	for fol.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("follower never flagged the gap")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(fol.Err().Error(), "gap") {
		t.Fatalf("terminal error %v, want a gap report", fol.Err())
	}
	if got := fol.AppliedLSN(); got != 1 {
		t.Fatalf("applied lsn %d after gap, want 1 (nothing beyond the hole)", got)
	}
}

// TestFollowerAheadOfPrimaryIsTerminal: a follower whose position exceeds
// everything the primary has committed means divergent histories (reset
// primary journal, or the wrong primary entirely); the stream must refuse
// with an in-band error frame and the follower must stop terminally
// instead of waiting to apply the new history's records under old LSNs.
func TestFollowerAheadOfPrimaryIsTerminal(t *testing.T) {
	c := newCluster(t, 4, journal.Options{SnapshotEvery: -1})
	pc := c.dial(c.paddr)
	defer pc.Close()
	if _, err := pc.Create("ONLY", "HDL_model"); err != nil {
		t.Fatal(err)
	}

	// Pre-seed the follower's directory with a journal that is AHEAD of
	// the primary (as if the primary's directory had been wiped).
	folDir := t.TempDir()
	fw, _, err := journal.OpenFollower(folDir, journal.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if _, err := fw.ApplyAppend([]byte(frameLine(record(int64(i), meta.OpOID, fmt.Sprintf("old%d,HDL_model,1", i), fmt.Sprint(i))))); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	fol, err := replica.Start(folDir, c.paddr, journal.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Abort()
	deadline := time.Now().Add(10 * time.Second)
	for fol.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("ahead-of-primary follower never stopped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(fol.Err().Error(), "ahead of the primary") {
		t.Fatalf("terminal error %v, want the ahead-of-primary report", fol.Err())
	}
	if got := fol.AppliedLSN(); got != 40 {
		t.Fatalf("applied lsn %d changed, want the untouched 40", got)
	}
}

// TestFollowerRefusedByNonPrimary: pointing -follow at a server without a
// replication source is a configuration error; the follower must stop
// terminally rather than reconnect-spin against a permanent refusal.
func TestFollowerRefusedByNonPrimary(t *testing.T) {
	eng, err := engineNoJournal(t)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng) // no journal
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fol, err := replica.Start(t.TempDir(), addr, journal.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Abort()
	deadline := time.Now().Add(10 * time.Second)
	for fol.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("refused follower never stopped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(fol.Err().Error(), "not a replication primary") {
		t.Fatalf("terminal error %v, want the not-a-primary refusal", fol.Err())
	}
}

func engineNoJournal(t *testing.T) (*engine.Engine, error) {
	t.Helper()
	return engine.New(meta.NewDB(), testBlueprint(t))
}

// TestFollowerColdBootstrapOverWire: a cold follower attaching to a
// primary whose history is already compacted receives the snapshot frame
// and converges — the FOLLOW framing of the re-bootstrap path, checked
// against the real server rather than the fake.
func TestFollowerColdBootstrapOverWire(t *testing.T) {
	c := newCluster(t, 4, journal.Options{SegmentBytes: 256, SnapshotEvery: -1})
	pc := c.dial(c.paddr)
	defer pc.Close()
	for i := 0; i < 12; i++ {
		if _, err := pc.Create(fmt.Sprintf("COLD%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.pw.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Only now does the follower first attach: its FOLLOW 0 predates the
	// oldest retained segment, so the stream must open with a snapshot.
	c.startFollower()
	c.assertConverged()
	if got := c.fol.DB().Head().Stats().OIDs; got != 12 {
		t.Fatalf("cold-bootstrapped follower has %d oids, want 12", got)
	}
}
