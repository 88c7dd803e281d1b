package repro

// Failover acceptance tests against real damocles processes: the
// three-node SIGKILL/promote/re-point chaos path with -ack 1, the
// SIGKILL-during-PROMOTE atomicity sweep, and graceful SIGTERM shutdown.
// All of them drive the built binary over TCP — no in-process shortcuts —
// and verify recovered state by replaying the journal directories
// directly.

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/server"
)

// proc is a spawned damocles process with its accumulated stderr, so
// tests can wait for arbitrary log lines (bound address, applied lsn,
// shutdown confirmations).
type proc struct {
	t    *testing.T
	cmd  *exec.Cmd
	addr string

	mu    sync.Mutex
	lines []string
	eof   chan struct{} // closed once the stderr reader has read everything
}

// startProc launches the binary with the given arguments and waits until
// it logs its serving address.
func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := spawnProc(t, bin, args...)
	m := p.waitFor(servingRE, 15*time.Second)
	if m == nil {
		p.kill()
		t.Fatal("damocles did not start serving")
	}
	p.addr = m[1]
	return p
}

func spawnProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{t: t, cmd: cmd, eof: make(chan struct{})}
	go func() {
		defer close(p.eof)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.mu.Unlock()
		}
	}()
	t.Cleanup(p.kill)
	return p
}

// waitFor polls the accumulated stderr for the first line matching re and
// returns its submatches (nil on timeout).
func (p *proc) waitFor(re *regexp.Regexp, timeout time.Duration) []string {
	deadline := time.Now().Add(timeout)
	seen := 0
	for {
		eof := false
		select {
		case <-p.eof: // observed before the scan, so the scan sees every line
			eof = true
		default:
		}
		p.mu.Lock()
		for ; seen < len(p.lines); seen++ {
			if m := re.FindStringSubmatch(p.lines[seen]); m != nil {
				p.mu.Unlock()
				return m
			}
		}
		p.mu.Unlock()
		if eof || time.Now().After(deadline) {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines, "\n")
}

func (p *proc) kill() {
	if p.cmd.Process != nil && p.cmd.ProcessState == nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

// sigterm sends SIGTERM and waits for a clean (exit 0) shutdown.
func (p *proc) sigterm() {
	p.t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.t.Fatal(err)
	}
	// Wait closes the stderr pipe under the reader: let it reach the end
	// first — the process closing its side — or the closing log lines the
	// callers look for are lost.
	select {
	case <-p.eof:
	case <-time.After(30 * time.Second):
		p.t.Fatalf("no exit within 30s of SIGTERM:\n%s", p.output())
	}
	if err := p.cmd.Wait(); err != nil {
		p.t.Fatalf("graceful shutdown exited dirty: %v\n%s", err, p.output())
	}
}

var (
	appliedLSNRE = regexp.MustCompile(`following \S+ from applied lsn (\d+)`)
	promotedRE   = regexp.MustCompile(`promoted \S+: term (\d+), bump record at lsn (\d+)`)
)

// replaySave replays a journal directory read-only and returns the
// database's canonical Save bytes plus the last LSN.
func replaySave(t *testing.T, dir string) ([]byte, int64) {
	t.Helper()
	db, lsn, err := journal.Replay(dir, meta.DefaultShards)
	if err != nil {
		t.Fatalf("replay %s: %v", dir, err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), lsn
}

// roleOf asks a node for its ROLE line.
func roleOf(t *testing.T, addr string) server.RoleInfo {
	t.Helper()
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ri, err := c.Role()
	if err != nil {
		t.Fatal(err)
	}
	return ri
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
	_, oldLSN := replaySave(t, pdir)
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
	wSave, wLSN := replaySave(t, winnerDir)
	sSave, sLSN := replaySave(t, survivorDir)
	if wLSN != sLSN || !bytes.Equal(wSave, sSave) {
		t.Errorf("replayed journals diverge: new primary lsn %d vs survivor lsn %d", wLSN, sLSN)
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

			db, flsn, err := journal.Replay(fdir, meta.DefaultShards)
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
	if _, flsn := replaySave(t, fdir); flsn != lsn {
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
	if _, plsn := replaySave(t, pdir); plsn != lsn {
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
