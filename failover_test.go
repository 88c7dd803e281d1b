package repro

// Failover acceptance tests against real damocles processes: the
// three-node SIGKILL/promote/re-point chaos path with -ack 1, the
// partition drill (a follower's replication link dark under -ack 1), the
// SIGKILL-during-PROMOTE atomicity sweep, and graceful SIGTERM shutdown.
// All of them drive the built binary over TCP — no in-process shortcuts —
// and verify recovered state by replaying the journal directories
// directly.

import (
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/netfault"
	"repro/internal/server"
	"repro/internal/wire"
)

var promotedRE = regexp.MustCompile(`promoted \S+: term (\d+), bump record at lsn (\d+)`)

// dbText is how the tests compare databases: the checkpoint of a view
// pinned on db, a line per record — its op, its Seq and its spelled args,
// and a term's LSN.  The view's LSN is left out, so that databases at two
// positions compare.
func dbText(t testing.TB, db *meta.DB) []byte {
	t.Helper()
	v := db.ReadView()
	defer v.Close()
	var b []byte
	if err := v.Checkpoint(func(r meta.Record, args []byte) error {
		if r.Op == meta.OpTerm {
			b = fmt.Appendf(b, "@%d ", r.LSN)
		}
		b = fmt.Appendf(b, "%s %d%s\n", r.Op, r.Seq, args)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return b
}

// replayText replays a journal directory read-only and returns the
// database's dbText plus the last LSN.
func replayText(t *testing.T, dir string) ([]byte, int64) {
	t.Helper()
	db, lsn, err := journal.Replay(dir, 0)
	if err != nil {
		t.Fatalf("replay %s: %v", dir, err)
	}
	return dbText(t, db), lsn
}

// checkpointRoundTrip loads the checkpoint of db into a new database.
func checkpointRoundTrip(t *testing.T, db *meta.DB) *meta.DB {
	t.Helper()
	v := db.ReadView()
	var records []meta.Record
	err := v.Checkpoint(func(r meta.Record, args []byte) error {
		var err error
		r.Args, err = wire.Tokenize(string(args))
		records = append(records, r)
		return err
	})
	v.Close()
	var db2 *meta.DB
	if err == nil {
		db2, err = meta.LoadCheckpoint(func(add func(meta.Record) error) error {
			for _, r := range records {
				if err := add(r); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return db2
}

// TestFailoverChaosSIGKILL is the acceptance chaos path: a primary under
// -ack 1 with two follower processes, SIGKILLed mid-traffic at an
// arbitrary LSN.  The most-advanced follower is promoted with the
// `damocles -promote` CLI, the survivor re-points to it, both converge
// byte-identically, no acknowledged write is lost, and the revived old
// primary is fenced when its tail diverges.
func TestFailoverChaosSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes")
	}
	bin, err := buildDamocles()
	if err != nil {
		t.Fatal(err)
	}
	pdir, adir, bdir := t.TempDir(), t.TempDir(), t.TempDir()

	prim := startProc(t, bin, "-addr", "127.0.0.1:0", "-journal", pdir, "-ack", "1")
	folA := startProc(t, bin, "-addr", "127.0.0.1:0", "-journal", adir, "-follow", prim.addr)
	folB := startProc(t, bin, "-addr", "127.0.0.1:0", "-journal", bdir, "-follow", prim.addr)

	// Traffic under quorum acks: every Create that returns OK was
	// committed on the primary AND covered by at least one follower's
	// applied watermark — those writes must survive the failover.
	var ackedMu sync.Mutex
	var acked []string
	trafficDone := make(chan struct{})
	go func() {
		defer close(trafficDone)
		tc, err := server.Dial(prim.addr)
		if err != nil {
			return
		}
		defer tc.Hangup()
		for i := 0; ; i++ {
			name := fmt.Sprintf("ACKED%d", i)
			if _, err := tc.Create(name, "HDL_model"); err != nil {
				return // the kill landed (or quorum degraded mid-kill)
			}
			ackedMu.Lock()
			acked = append(acked, name)
			ackedMu.Unlock()
		}
	}()

	// Let the cluster make progress, then SIGKILL the primary mid-stream.
	deadline := time.Now().Add(15 * time.Second)
	for {
		ackedMu.Lock()
		n := len(acked)
		ackedMu.Unlock()
		if n >= 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster made no acknowledged progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := prim.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	prim.cmd.Wait()
	<-trafficDone
	ackedMu.Lock()
	ackedWrites := append([]string(nil), acked...)
	ackedMu.Unlock()

	// Pick the most-advanced follower once both applied positions settle
	// (the stream may still be draining received frames).
	applied := func(addr string) int64 { return roleOf(t, addr).Applied }
	var aLSN, bLSN int64
	for settle := 0; settle < 3; {
		a2, b2 := applied(folA.addr), applied(folB.addr)
		if a2 == aLSN && b2 == bLSN {
			settle++
		} else {
			aLSN, bLSN, settle = a2, b2, 0
		}
		time.Sleep(50 * time.Millisecond)
	}
	winner, winnerDir, survivor, survivorDir := folA, adir, folB, bdir
	if bLSN > aLSN {
		winner, winnerDir, survivor, survivorDir = folB, bdir, folA, adir
	}
	t.Logf("killed primary; follower positions a=%d b=%d, promoting %s", aLSN, bLSN, winner.addr)

	// Promote through the CLI — the operator's real failover command.
	out, err := exec.Command(bin, "-promote", winner.addr).CombinedOutput()
	if err != nil {
		t.Fatalf("damocles -promote: %v\n%s", err, out)
	}
	m := promotedRE.FindStringSubmatch(string(out))
	if m == nil {
		t.Fatalf("-promote output missing the promotion line:\n%s", out)
	}
	bump, _ := strconv.ParseInt(m[2], 10, 64)
	if ri := roleOf(t, winner.addr); ri.Role != "primary" || ri.Term != 2 {
		t.Fatalf("promoted node ROLE = %+v, want primary at term 2", ri)
	}

	// The new primary serves writes; push fresh traffic under term 2.
	wc, err := server.Dial(winner.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Hangup()
	for i := 0; i < 5; i++ {
		if _, err := wc.Create(fmt.Sprintf("NEWTERM%d", i), "HDL_model"); err != nil {
			t.Fatalf("write to the promoted primary: %v", err)
		}
	}
	if err := wc.Sync(); err != nil {
		t.Fatal(err)
	}
	finalLSN, err := wc.LSN()
	if err != nil {
		t.Fatal(err)
	}

	// Re-point the survivor: restart its process against the new primary
	// (the CLI's re-point path), resuming from its persisted position.
	survivor.sigterm()
	survivor2 := startProc(t, bin, "-addr", "127.0.0.1:0", "-journal", survivorDir, "-follow", winner.addr)
	sc, err := server.Dial(survivor2.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Hangup()
	var survivorReport []string
	deadline = time.Now().Add(30 * time.Second)
	for {
		survivorReport, err = sc.ReportAt(finalLSN)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-pointed survivor never reached lsn %d: %v\n%s", finalLSN, err, survivor2.output())
		}
		time.Sleep(100 * time.Millisecond)
	}
	winnerReport, err := wc.ReportAt(finalLSN)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(survivorReport, "\n"), strings.Join(winnerReport, "\n"); got != want {
		t.Errorf("survivor REPORT differs from the new primary at lsn %d:\n--- new primary\n%s\n--- survivor\n%s", finalLSN, want, got)
	}
	// Zero acked-write loss: every quorum-acknowledged block is present.
	rows := map[string]bool{}
	for _, r := range winnerReport {
		rows[strings.SplitN(r, ",", 2)[0]] = true
	}
	for _, name := range ackedWrites {
		if !rows[name] {
			t.Errorf("acknowledged write %s lost across the failover", name)
		}
	}

	// The revived old primary rejoins as a follower of the new one.  Its
	// journal replays to an arbitrary kill LSN: a tail reaching into the
	// new lineage (≥ the bump) is divergent and must be fenced with a
	// terminal term error; a tail that stops short is shared history and
	// must converge instead.
	_, oldLSN := replayText(t, pdir)
	ghost := spawnProc(t, bin, "-addr", "127.0.0.1:0", "-journal", pdir, "-follow", winner.addr)
	if oldLSN >= bump {
		werr := ghost.cmd.Wait()
		if werr == nil {
			t.Fatalf("deposed primary (lsn %d ≥ bump %d) rejoined without being fenced:\n%s", oldLSN, bump, ghost.output())
		}
		if !strings.Contains(ghost.output(), "divergent tail") {
			t.Fatalf("deposed primary died without the divergent-tail fence:\n%s", ghost.output())
		}
		t.Logf("deposed primary at lsn %d fenced (bump %d)", oldLSN, bump)
	} else {
		if m := ghost.waitFor(servingRE, 15*time.Second); m == nil {
			t.Fatalf("shared-history old primary (lsn %d < bump %d) did not rejoin:\n%s", oldLSN, bump, ghost.output())
		} else {
			gc, err := server.Dial(m[1])
			if err != nil {
				t.Fatal(err)
			}
			defer gc.Hangup()
			if _, err := gc.ReportAt(finalLSN); err != nil {
				t.Fatalf("rejoined old primary never converged: %v", err)
			}
		}
		t.Logf("old primary at lsn %d rejoined below the bump %d", oldLSN, bump)
	}

	// Byte-identical convergence on disk: shut both nodes down cleanly and
	// replay their journals.
	winner.sigterm()
	survivor2.sigterm()
	wText, wLSN := replayText(t, winnerDir)
	sText, sLSN := replayText(t, survivorDir)
	if wLSN != sLSN || !bytes.Equal(wText, sText) {
		t.Errorf("replayed journals diverge: new primary lsn %d vs survivor lsn %d", wLSN, sLSN)
	}
}

// timed is one operation of the partition drill: when it started, how long
// it took, and how it ended.
type timed struct {
	start time.Time
	took  time.Duration
	err   error
}

// TestPartitionDrillProcesses is the other operator drill: the primary
// stays up under -ack 1 while its follower's replication link, routed
// through a netfault.Proxy, goes dark for 2s — both directions silent,
// nothing closed, the half-open partition TCP cannot report — and then
// heals.  A writer on the primary and a REPORT reader on the follower run
// on their own goroutines throughout.  The audits: every ROLE poll of the
// dark follower admits its staleness, its REPORTs stay fast (p50 ≤ 20ms,
// max ≤ 250ms) while the link is dark, the follower catches the primary
// within 30s of the heal, ack-gated writes are back under 500ms once it
// has, and REPORT at the final LSN is byte-identical on both nodes.  The
// short stall timeout and ping cadence make the liveness machinery act
// inside the dark window.
func TestPartitionDrillProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes")
	}
	bin, err := buildDamocles()
	if err != nil {
		t.Fatal(err)
	}
	const (
		dark     = 2 * time.Second
		catchup  = 30 * time.Second
		writeSLO = 500 * time.Millisecond
		// The dark follower's reads serve from its own state and must
		// not notice the partition: a few tenths of a millisecond at the
		// median, about one at worst, with room for -race and a loaded
		// runner.
		darkReadP50 = 20 * time.Millisecond
		darkReadMax = 250 * time.Millisecond
	)
	prim := startProc(t, bin, "-addr", "127.0.0.1:0", "-journal", t.TempDir(), "-ack", "1", "-follow-ping", "250ms")
	px, err := netfault.NewProxy(prim.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	fol := startProc(t, bin, "-addr", "127.0.0.1:0", "-journal", t.TempDir(), "-follow", px.Addr(),
		"-stall-timeout", "1500ms", "-follow-ping", "250ms")

	pc, err := server.Dial(prim.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Hangup()
	fc, err := server.Dial(fol.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Hangup()
	var pool []meta.Key
	for i := 0; i < 16; i++ {
		k, err := pc.Create(fmt.Sprintf("PD%02d", i), "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, k)
	}

	// The writer posts check-ins back to back, each held until the follower
	// covers it; the reader streams the follower's REPORT every 5ms.  Each
	// has its own connection and its own log, and stops at its first error.
	var writes, reads []timed
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(log *[]timed, pause time.Duration, op func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-time.After(pause):
				}
				start := time.Now()
				err := op(i)
				*log = append(*log, timed{start, time.Since(start), err})
				if err != nil {
					return
				}
			}
		}()
	}
	loop(&writes, 0, func(i int) error { return pc.PostEvent("ckin", "up", pool[i%len(pool)], "drill") })
	loop(&reads, 5*time.Millisecond, func(int) error { _, err := fc.Report(); return err })
	var stopOnce sync.Once
	stopTraffic := func() { stopOnce.Do(func() { close(stop); wg.Wait() }) }
	defer stopTraffic()

	time.Sleep(500 * time.Millisecond)
	px.Blackhole()
	darkAt := time.Now()
	polls, silent, maxStale := 0, 0, time.Duration(0)
	for time.Since(darkAt) < dark {
		time.Sleep(50 * time.Millisecond)
		ri := roleOf(t, fol.addr)
		polls++
		if !ri.HasStaleness {
			silent++
		}
		maxStale = max(maxStale, ri.Staleness)
	}
	px.Heal()
	healAt := time.Now()
	if silent > 0 {
		t.Errorf("%d of %d ROLE polls of the dark follower carried no staleness=", silent, polls)
	}

	var caughtAt time.Time
	for caughtAt.IsZero() {
		if time.Since(healAt) > catchup {
			t.Fatalf("the follower did not catch the primary within %v of the heal:\n%s", catchup, fol.output())
		}
		if p := roleOf(t, prim.addr).Applied; roleOf(t, fol.addr).Applied >= p {
			caughtAt = time.Now()
		} else {
			time.Sleep(50 * time.Millisecond)
		}
	}
	time.Sleep(time.Second)
	stopTraffic()

	var darkReads, darkWrites []time.Duration
	for _, r := range reads {
		if r.err != nil {
			t.Errorf("follower REPORT %v after the link went dark: %v", r.start.Sub(darkAt), r.err)
		} else if r.start.After(darkAt) && r.start.Before(healAt) {
			darkReads = append(darkReads, r.took)
		}
	}
	after, recovery := 0, time.Duration(0)
	for _, w := range writes {
		end := w.start.Add(w.took)
		late := w.err != nil || w.took > writeSLO
		if w.err != nil {
			t.Errorf("write %v after the link went dark: %v", w.start.Sub(darkAt), w.err)
		}
		if w.start.Before(healAt) && end.After(darkAt) {
			darkWrites = append(darkWrites, w.took)
		}
		if !w.start.Before(caughtAt) {
			after++
			if late {
				t.Errorf("write %v after the catch-up took %v", w.start.Sub(caughtAt), w.took)
			}
		}
		if late && end.After(healAt) {
			recovery = max(recovery, end.Sub(healAt))
		}
	}
	if len(darkReads) == 0 || len(darkWrites) == 0 || after == 0 {
		t.Fatalf("traffic stalled: %d reads and %d writes in the dark window, %d writes after the catch-up",
			len(darkReads), len(darkWrites), after)
	}
	slices.Sort(darkReads)
	readP50, readMax := darkReads[len(darkReads)/2], darkReads[len(darkReads)-1]
	t.Logf("dark window %v: %d follower REPORTs, p50 %v, max %v", healAt.Sub(darkAt).Round(time.Millisecond),
		len(darkReads), readP50, readMax)
	if readP50 > darkReadP50 || readMax > darkReadMax {
		t.Errorf("dark follower REPORTs p50 %v, max %v; want at most %v and %v", readP50, readMax, darkReadP50, darkReadMax)
	}
	t.Logf("dark window: %d ack-gated writes in flight, the longest %v", len(darkWrites),
		slices.Max(darkWrites).Round(time.Millisecond))
	t.Logf("max admitted staleness %v over %d polls; caught up %v after the heal; writes back under %v %v after it",
		maxStale, polls, caughtAt.Sub(healAt).Round(time.Microsecond), writeSLO, recovery.Round(time.Microsecond))

	if err := pc.Sync(); err != nil {
		t.Fatal(err)
	}
	final, err := pc.LSN()
	if err != nil {
		t.Fatal(err)
	}
	want, err := pc.ReportAt(final)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fc.ReportAt(final)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("follower REPORT differs from the primary's at lsn %d:\n--- primary\n%s\n--- follower\n%s",
			final, strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
}

// TestPromoteSIGKILLSweep: SIGKILL the follower at staggered delays after
// a PROMOTE lands.  Whatever the stage, the journal must recover into
// exactly one of {still-follower (term 1), fully-primary (term 2)} — the
// term-bump record's commit is the atomic hinge — and the process must be
// restartable in the recovered role.
func TestPromoteSIGKILLSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes")
	}
	bin, err := buildDamocles()
	if err != nil {
		t.Fatal(err)
	}
	delays := []time.Duration{0, time.Millisecond, 3 * time.Millisecond,
		8 * time.Millisecond, 20 * time.Millisecond, 60 * time.Millisecond}
	var sawFollower, sawPrimary bool
	for i, delay := range delays {
		t.Run(fmt.Sprintf("delay=%v", delay), func(t *testing.T) {
			pdir, fdir := t.TempDir(), t.TempDir()
			prim := startProc(t, bin, "-addr", "127.0.0.1:0", "-journal", pdir)
			pc, err := server.Dial(prim.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer pc.Hangup()
			for j := 0; j <= i; j++ {
				if _, err := pc.Create(fmt.Sprintf("SW%d", j), "HDL_model"); err != nil {
					t.Fatal(err)
				}
			}
			lsn, err := pc.LSN()
			if err != nil {
				t.Fatal(err)
			}
			fol := startProc(t, bin, "-addr", "127.0.0.1:0", "-journal", fdir, "-follow", prim.addr)
			fc, err := server.Dial(fol.addr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fc.ReportAt(lsn); err != nil {
				t.Fatalf("follower never caught up: %v", err)
			}
			fc.Hangup()

			// Fire PROMOTE asynchronously and SIGKILL into its window.
			go exec.Command(bin, "-promote", fol.addr).Run()
			time.Sleep(delay)
			if err := fol.cmd.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatal(err)
			}
			fol.cmd.Wait()

			db, flsn, err := journal.Replay(fdir, 0)
			if err != nil {
				t.Fatalf("post-kill replay: %v", err)
			}
			switch db.CurrentTerm() {
			case 1:
				// Still a follower: a restart must resume replicating.
				sawFollower = true
				if _, err := pc.Create("POSTKILL", "HDL_model"); err != nil {
					t.Fatal(err)
				}
				lsn2, err := pc.LSN()
				if err != nil {
					t.Fatal(err)
				}
				fol2 := startProc(t, bin, "-addr", "127.0.0.1:0", "-journal", fdir, "-follow", prim.addr)
				fc2, err := server.Dial(fol2.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer fc2.Hangup()
				if _, err := fc2.ReportAt(lsn2); err != nil {
					t.Fatalf("still-follower restart never converged: %v", err)
				}
			case 2:
				// Fully primary: the bump committed; a restart on the same
				// journal is a standalone primary that accepts writes.
				sawPrimary = true
				if flsn < lsn+1 {
					t.Fatalf("term 2 recovered but lsn %d predates the bump window (settled %d)", flsn, lsn)
				}
				np := startProc(t, bin, "-addr", "127.0.0.1:0", "-journal", fdir)
				nc, err := server.Dial(np.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer nc.Hangup()
				if ri, err := nc.Role(); err != nil || ri.Role != "primary" || ri.Term != 2 {
					t.Fatalf("restarted promoted node ROLE = %+v, %v, want primary term 2", ri, err)
				}
				if _, err := nc.Create("POSTPROMO", "HDL_model"); err != nil {
					t.Fatalf("restarted promoted node refused a write: %v", err)
				}
			default:
				t.Fatalf("recovered term %d, want exactly 1 (follower) or 2 (primary)", db.CurrentTerm())
			}
		})
	}
	t.Logf("sweep outcomes: still-follower=%v fully-primary=%v", sawFollower, sawPrimary)
}

// TestGracefulShutdownSIGTERM: SIGTERM exits cleanly on both roles, the
// follower's applied marker is committed (a restart resumes from exactly
// the shutdown position, not an earlier commit point), and the primary's
// journal is flushed and snapshotted.
func TestGracefulShutdownSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes")
	}
	bin, err := buildDamocles()
	if err != nil {
		t.Fatal(err)
	}
	pdir, fdir := t.TempDir(), t.TempDir()
	prim := startProc(t, bin, "-addr", "127.0.0.1:0", "-journal", pdir)
	pc, err := server.Dial(prim.addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"CPU", "ALU", "REG"} {
		k, err := pc.Create(b, "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		if err := pc.PostEvent("ckin", "up", k, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := pc.Sync(); err != nil {
		t.Fatal(err)
	}
	lsn, err := pc.LSN()
	if err != nil {
		t.Fatal(err)
	}

	fol := startProc(t, bin, "-addr", "127.0.0.1:0", "-journal", fdir, "-follow", prim.addr)
	fc, err := server.Dial(fol.addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.ReportAt(lsn); err != nil {
		t.Fatalf("follower never caught up: %v", err)
	}
	fc.Hangup()

	// Follower SIGTERM: clean exit, closing log line, applied marker
	// committed at exactly the caught-up position.
	fol.sigterm()
	if !strings.Contains(fol.output(), "follower closed at applied lsn") {
		t.Fatalf("follower shutdown without its closing line:\n%s", fol.output())
	}
	if _, flsn := replayText(t, fdir); flsn != lsn {
		t.Fatalf("follower journal replays to lsn %d after graceful shutdown, want %d", flsn, lsn)
	}
	fol2 := startProc(t, bin, "-addr", "127.0.0.1:0", "-journal", fdir, "-follow", prim.addr)
	if m := appliedLSNRE.FindStringSubmatch(fol2.output()); m == nil || m[1] != strconv.FormatInt(lsn, 10) {
		t.Fatalf("restarted follower did not resume from the shutdown position %d:\n%s", lsn, fol2.output())
	}
	fol2.sigterm()

	// Primary SIGTERM: clean exit, journal flushed + final snapshot, and
	// the state replays identically.
	before, err := pc.Report()
	if err != nil {
		t.Fatal(err)
	}
	pc.Hangup()
	prim.sigterm()
	if !strings.Contains(prim.output(), "journal closed at lsn") {
		t.Fatalf("primary shutdown without its closing line:\n%s", prim.output())
	}
	if _, plsn := replayText(t, pdir); plsn != lsn {
		t.Fatalf("primary journal replays to lsn %d after graceful shutdown, want %d", plsn, lsn)
	}
	prim2 := startProc(t, bin, "-addr", "127.0.0.1:0", "-journal", pdir)
	pc2, err := server.Dial(prim2.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc2.Hangup()
	after, err := pc2.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(after, "\n"), strings.Join(before, "\n"); got != want {
		t.Errorf("REPORT changed across a graceful restart:\n--- before\n%s\n--- after\n%s", want, got)
	}
}
