package replica_test

// Replicated fault injection: a primary whose disk wedges mid-stream must
// freeze its durable watermark, stop releasing quorum-gated writes, and
// never ship the unsynced suffix to a follower — and the follower must
// learn (and report over the wire) that its upstream is degraded.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultfs"
	"repro/internal/journal"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wire"
)

// journalSyncFault wedges the nth fsync of a journal segment for good.
func journalSyncFault(nth int64) faultfs.Plan {
	return faultfs.Plan{Faults: []faultfs.Fault{
		{Op: faultfs.OpSync, Path: "journal-", Nth: nth, Sticky: true},
	}}
}

// TestQuorumFsyncGate is the fsyncgate regression across the full
// replication stack: writes that reached the follower quorum succeed;
// the write whose fsync fails returns an explicit error, advances no
// watermark, and releases no acknowledgement; the follower's durable
// position freezes at the last synced LSN and its state stays
// byte-identical to the primary's durable prefix.
func TestQuorumFsyncGate(t *testing.T) {
	primDir := t.TempDir()
	// Each CREATE costs two syncs (the drain's data-carrying commit, then
	// the server's empty flush); sync 5 is the third create's DATA sync,
	// so its records are written to the segment but never made durable.
	inj := faultfs.New(faultfs.OS, journalSyncFault(5))
	pw, pdb, err := journal.Open(primDir, journal.Options{SnapshotEvery: -1, Fsync: true, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pw.Abort)
	eng, err := engine.New(pdb, testBlueprint(t), engine.WithJournal(pw))
	if err != nil {
		t.Fatal(err)
	}
	psrv := server.New(eng,
		server.WithJournal(pw),
		server.WithQuorum(1, 5*time.Second))
	paddr, err := psrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { psrv.Close() })

	fol, err := replica.Start(t.TempDir(), paddr, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fol.Abort)

	pc, err := server.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	// Quorum-gated writes succeed only once the follower's acknowledged
	// watermark covers them, so every OK below proves the ack path.
	var wm int64
	var failErr error
	for i := 0; i < 10; i++ {
		if _, err := pc.Create(fmt.Sprintf("BLK%d", i), "HDL_model"); err != nil {
			failErr = err
			break
		}
		wm = pw.CommittedLSN()
	}
	if failErr == nil {
		t.Fatal("sync fault never fired across 10 writes")
	}
	if !strings.Contains(failErr.Error(), "journal") {
		t.Fatalf("failed-fsync write error does not name the journal: %v", failErr)
	}
	if wm == 0 {
		t.Fatal("no write succeeded before the fault; cannot test the gate")
	}

	// The failed fsync froze the durable watermark: the failing write's
	// records reached the segment (LastLSN moved) but must never be
	// covered by the watermark.
	if got := pw.CommittedLSN(); got != wm {
		t.Fatalf("watermark moved after a failed fsync: %d -> %d", wm, got)
	}
	if last := pw.LastLSN(); last <= wm {
		t.Fatalf("LastLSN %d, want > durable %d (the fault was supposed to hit a data-carrying sync)", last, wm)
	}
	if healthy, reason := pw.Health(); healthy || !strings.Contains(reason, "fsync") {
		t.Fatalf("journal health = (%v, %q), want degraded with an fsync reason", healthy, reason)
	}
	// …and later writes are refused up front rather than parked on a
	// quorum that can never be reached.
	start := time.Now()
	if _, err := pc.Create("LATE", "HDL_model"); err == nil {
		t.Fatal("degraded primary accepted a quorum-gated write")
	} else if !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("post-fault refusal = %v, want the degraded contract", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("degraded refusal parked on the quorum gate instead of failing fast")
	}

	// The follower converges on the durable prefix and freezes there: the
	// unsynced suffix was never acked, so it must never be streamed.
	if at, err := fol.WaitApplied(wm, 10*time.Second); err != nil {
		t.Fatalf("follower stuck at %d waiting for durable lsn %d: %v", at, wm, err)
	}
	time.Sleep(200 * time.Millisecond)
	if got := fol.AppliedLSN(); got != wm {
		t.Fatalf("follower applied lsn %d, want frozen at durable %d", got, wm)
	}
	if got := fol.Watermark(); got > wm {
		t.Fatalf("follower watermark %d ran past the primary's durable %d", got, wm)
	}

	// Byte-identical to the primary's durable prefix (not its in-memory
	// state, which may hold the never-acked suffix).
	durable, lsn, err := journal.ReplayUpTo(primDir, wm)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != wm {
		t.Fatalf("durable replay reached %d, want %d", lsn, wm)
	}
	if !bytes.Equal(dbText(t, durable), dbText(t, fol.DB())) {
		t.Fatal("follower state differs from the primary's durable prefix")
	}
}

// TestUpstreamHealthPropagation: when the primary's journal degrades, the
// health frame rides the FOLLOW stream, the follower's UpstreamHealth
// flips, and the follower's own ROLE reports it over the wire — so a
// failover driver interrogating replicas sees the primary's disk fault
// from anywhere in the cluster.
func TestUpstreamHealthPropagation(t *testing.T) {
	inj := faultfs.New(faultfs.OS, journalSyncFault(4))
	c := newCluster(t, journal.Options{SnapshotEvery: -1, Fsync: true, FS: inj})
	c.startFollower()

	pc := c.dial(c.paddr)
	defer pc.Close()
	var failErr error
	for i := 0; i < 10; i++ {
		if _, err := pc.Create(fmt.Sprintf("BLK%d", i), "HDL_model"); err != nil {
			failErr = err
			break
		}
	}
	if failErr == nil {
		t.Fatal("sync fault never fired across 10 writes")
	}

	// The follower learns the upstream reason through the stream.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok, reason := c.fol.UpstreamHealth()
		if !ok {
			if !strings.Contains(reason, "fsync") {
				t.Fatalf("upstream reason = %q, want the fsync fault", reason)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never learned its upstream degraded")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// And reports it on its own ROLE line.
	fc := c.dial(c.faddr)
	defer fc.Close()
	ri, err := fc.Role()
	if err != nil {
		t.Fatal(err)
	}
	if ri.Health != "degraded" || !strings.Contains(ri.Reason, "upstream") {
		t.Fatalf("follower ROLE = %+v, want health=degraded with an upstream reason", ri)
	}

	// Reads keep serving on both nodes throughout.
	if _, err := pc.Report(); err != nil {
		t.Fatalf("degraded primary stopped serving reads: %v", err)
	}
	if _, err := fc.Report(); err != nil {
		t.Fatalf("follower of a degraded primary stopped serving reads: %v", err)
	}
}

// TestFollowerCatchUpFsyncs: a -fsync follower catching up on a backlog
// commits when it is caught up — at the primary's watermark frame — not
// every few hundred records, so 4,000 records cost it one or two segment
// syncs.  A relay between the two nodes reads every ACK the follower sends
// and finds it at or below the follower's committed position: an ACK
// still follows its commit.
func TestFollowerCatchUpFsyncs(t *testing.T) {
	p := startPrimary(t, t.TempDir(), journal.Options{SnapshotEvery: -1})
	for i := 0; p.w.LastLSN() < 4000; i++ {
		if _, err := p.db.NewVersion(fmt.Sprintf("b%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	last := p.quiesce()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var (
		fw   atomic.Pointer[journal.Writer]
		acks atomic.Int64
		bad  atomic.Value // string: the first ACK above the committed position
	)
	ready := make(chan struct{})
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", p.addr)
			if err != nil {
				down.Close()
				return
			}
			go func() { io.Copy(down, up); down.Close() }()
			go func() {
				defer up.Close()
				r := bufio.NewReader(down)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					if f := strings.Fields(line); len(f) == 2 && f[0] == wire.AckPrefix {
						<-ready
						lsn, _ := strconv.ParseInt(f[1], 10, 64)
						acks.Add(1)
						if c := fw.Load().CommittedLSN(); lsn > c {
							bad.CompareAndSwap(nil, fmt.Sprintf("ACK %d with the follower committed through %d", lsn, c))
						}
					}
					if _, err := up.Write([]byte(line)); err != nil {
						return
					}
				}
			}()
		}
	}()

	inj := faultfs.New(faultfs.OS, faultfs.Plan{})
	fol, err := replica.Start(t.TempDir(), ln.Addr().String(), journal.Options{SnapshotEvery: -1, Fsync: true, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fol.Abort)
	fw.Store(fol.Writer())
	close(ready)
	if at, err := fol.WaitApplied(last, 20*time.Second); err != nil {
		t.Fatalf("follower stuck at lsn %d of %d: %v (terminal: %v)", at, last, err, fol.Err())
	}
	deadline := time.Now().Add(10 * time.Second)
	for fol.Writer().CommittedLSN() < last || acks.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("follower committed through %d of %d, %d ACKs", fol.Writer().CommittedLSN(), last, acks.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	syncs := inj.Count(faultfs.OpSync)
	t.Logf("%d records caught up with %d syncs, %d ACKs", last, syncs, acks.Load())
	if syncs > 2 {
		t.Errorf("%d syncs to catch up %d records, want at most 2", syncs, last)
	}
	if b := bad.Load(); b != nil {
		t.Error(b)
	}
}
