package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/meta"
	"repro/internal/server"
	"repro/internal/wire"
)

// cluster is the spawned damocles fleet of one run.
type cluster struct {
	sb       *sandbox
	wl       *Workload
	primary  *proc
	follower *proc
	pdir     string // journal directories, removed with the processes
	fdir     string
}

func (c *cluster) primaryArgs(addr string, final bool) []string {
	args := []string{"-addr", addr, "-journal", c.pdir}
	// The measured flags only go on once the project is loaded.  With -ack 1
	// and no follower yet every load write would time out; and a load that
	// fsyncs 1,232 times takes as long as the disk is slow that minute, which
	// made durable's setup_s drift by 20 % between two sets of ten runs.  A
	// bulk import needs neither per request: what it wrote is in the page
	// cache and survives the kill -9 that follows.
	if final && c.wl.Fsync {
		args = append(args, "-fsync")
	}
	if final && c.wl.Ack > 0 {
		args = append(args, "-ack", strconv.Itoa(c.wl.Ack))
	}
	return args
}

// logs returns each node's ROLE and last stderr lines, for a failed run's
// error message.
func (c *cluster) logs() string {
	out := ""
	for _, n := range []struct {
		name string
		p    *proc
	}{{"primary", c.primary}, {"follower", c.follower}} {
		if n.p == nil {
			continue
		}
		out += n.name + ":"
		if cl, err := admin(n.p.addr); err == nil {
			role, err := cl.Role()
			out += fmt.Sprintf(" %+v %v", role, err)
			cl.Hangup()
		}
		out += "\n" + n.p.tail.String() + "\n"
	}
	return out
}

func (c *cluster) kill() {
	if c.follower != nil {
		c.follower.kill()
	}
	if c.primary != nil {
		c.primary.kill()
	}
	os.RemoveAll(c.pdir)
	os.RemoveAll(c.fdir)
}

// settle waits until the primary is not writing a snapshot: no temporary
// snapshot file in its journal directory on two looks 10 ms apart.
func (c *cluster) settle() error {
	quiet := 0
	for deadline := time.Now().Add(10 * time.Second); quiet < 2; time.Sleep(10 * time.Millisecond) {
		tmp, err := filepath.Glob(filepath.Join(c.pdir, "snapshot-*.tmp"))
		if err != nil {
			return err
		}
		if len(tmp) == 0 {
			quiet++
		} else if quiet = 0; time.Now().After(deadline) {
			return fmt.Errorf("the primary is still writing %s after 10s", tmp[0])
		}
	}
	return nil
}

// sendReq performs one wire request through the typed server.Client calls.
// It returns what callers validate the answer by: the number of body rows,
// the accepted items of a BATCH, or the version a CREATE made.
func sendReq(c *server.Client, req wire.Request) (int, error) {
	a := req.Args
	switch req.Verb {
	case wire.VerbPost:
		k, err := meta.ParseKey(a[2])
		if err != nil {
			return 0, err
		}
		return 0, c.PostEvent(a[0], a[1], k, a[3:]...)
	case wire.VerbBatch:
		items := make([]wire.BatchItem, len(a))
		for i, raw := range a {
			it, err := wire.ParseBatchItem(raw)
			if err != nil {
				return 0, err
			}
			items[i] = it
		}
		return c.PostBatch(items)
	case wire.VerbCreate:
		k, err := c.Create(a[0], a[1])
		return k.Version, err
	case wire.VerbLink:
		from, err := meta.ParseKey(a[1])
		if err != nil {
			return 0, err
		}
		to, err := meta.ParseKey(a[2])
		if err != nil {
			return 0, err
		}
		return 0, c.Link(a[0], from, to)
	case wire.VerbState:
		k, err := meta.ParseKey(a[0])
		if err != nil {
			return 0, err
		}
		st, err := c.State(k)
		return len(st.Props), err
	case wire.VerbQuery:
		lsn, err := strconv.ParseInt(a[0], 10, 64)
		if err != nil {
			return 0, err
		}
		body, err := c.QueryAt(lsn, a[1], a[2:]...)
		return len(body), err
	case wire.VerbReport, wire.VerbGap:
		body, err := scan(c, req)
		return len(body), err
	}
	return 0, fmt.Errorf("bench: no client call for verb %s", req.Verb)
}

// scan performs a REPORT or GAP request and returns its rows.
func scan(c *server.Client, req wire.Request) ([]string, error) {
	report := req.Verb == wire.VerbReport
	if len(req.Args) == 0 {
		if report {
			return c.Report()
		}
		return c.Gap()
	}
	lsn, err := strconv.ParseInt(req.Args[0], 10, 64)
	if err != nil {
		return nil, err
	}
	if report {
		return c.ReportAt(lsn)
	}
	return c.GapAt(lsn)
}

func digest(rows []string) string {
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// admin dials a connection whose traffic is not counted as load.
func admin(addr string) (*server.Client, error) {
	var sent, recv atomic.Int64
	return dial(addr, &sent, &recv)
}

// load spawns a primary on a fresh journal directory and builds the project
// on it over one connection, returning how long that took.
func load(sb *sandbox, wl *Workload, preload []wire.Request) (*cluster, time.Duration, error) {
	c := &cluster{sb: sb, wl: wl, pdir: sb.newDir("primary")}
	t0 := time.Now()
	var err error
	if c.primary, err = sb.spawn(c.primaryArgs("127.0.0.1:0", false)...); err != nil {
		return nil, 0, err
	}
	cl, err := admin(c.primary.addr)
	if err != nil {
		c.kill()
		return nil, 0, err
	}
	defer cl.Hangup()
	for _, req := range preload {
		if _, err := sendReq(cl, req); err != nil {
			c.kill()
			return nil, 0, fmt.Errorf("preload %s: %w", req.Encode(), err)
		}
	}
	return c, time.Since(t0), nil
}

// attachFollower spawns a fresh follower of the primary and returns how
// long it took, from spawn, to apply the primary's LSN.
func (c *cluster) attachFollower() (time.Duration, error) {
	t0 := time.Now()
	c.fdir = c.sb.newDir("follower")
	args := []string{"-addr", "127.0.0.1:0", "-journal", c.fdir, "-follow", c.primary.addr}
	if c.wl.Fsync {
		args = append(args, "-fsync")
	}
	var err error
	if c.follower, err = c.sb.spawn(args...); err != nil {
		return 0, err
	}
	pc, err := admin(c.primary.addr)
	if err != nil {
		return 0, err
	}
	defer pc.Hangup()
	fc, err := admin(c.follower.addr)
	if err != nil {
		return 0, err
	}
	defer fc.Hangup()
	want, err := pc.LSN()
	if err != nil {
		return 0, err
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		got, err := fc.LSN()
		if err != nil {
			return 0, err
		}
		if got >= want {
			return time.Since(t0), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("follower at lsn %d has not reached %d after 30s", got, want)
		}
	}
}

// restart SIGKILLs the primary, respawns it on the same journal directory
// and address with the measured flag set, and returns the time from the
// kill until LSN answers, plus the REPORT digest of the recovered project.
func (c *cluster) restart() (time.Duration, string, error) {
	addr := c.primary.addr
	t0 := time.Now()
	c.primary.kill()
	p, err := c.sb.spawn(c.primaryArgs(addr, true)...)
	if err != nil {
		return 0, "", err
	}
	c.primary = p
	cl, err := admin(p.addr)
	if err != nil {
		return 0, "", err
	}
	defer cl.Hangup()
	if _, err := cl.LSN(); err != nil {
		return 0, "", err
	}
	took := time.Since(t0)
	rows, err := cl.Report()
	if err != nil {
		return 0, "", err
	}
	return took, digest(rows), nil
}

// degradedMark is in every refusal of a node whose journal has flipped to
// its degraded, write-refusing state.  The write that is in the server when
// the journal flips gets the journal's own error instead, straight from the
// drain's commit and without that prefix ("journal: snapshot: meta: view lsn
// below the retained version horizon"): flipMark is in every one of those.
const (
	degradedMark = "journal-io:"
	flipMark     = "journal: "
)

// setup is what the set-up samples of a run measured.
type setup struct {
	cluster  *cluster
	setupS   []float64 // spawn + preload (+ follower catch-up), one per sample
	catchup  []float64 // follower spawn to caught up, ms
	restarts []float64 // kill -9 to serving, ms
	retries  int       // loads repeated because the node degraded under them
}

// maxLoadRetries bounds the loads one run repeats because the node
// degraded under them (README.md, defect 3): on a fresh node every 4,096th
// record arms a snapshot and a reclaim pass at once, and a project load
// writes some 290 records a tree back to back.  No request of a load is
// among the run's attempted operations, so a refused one is not among its
// failed ones; it shows in client.retries, and -compare judges that.
const maxLoadRetries = 3

// load is the package's load, repeated when the node degraded under it.
func (s *setup) load(sb *sandbox, wl *Workload, preload []wire.Request) (*cluster, time.Duration, error) {
	for {
		c, took, err := load(sb, wl, preload)
		if !isDegraded(err) || s.retries == maxLoadRetries {
			return c, took, err
		}
		s.retries++
	}
}

// A run's setup_s is the median of seven set-ups: startSamples at the
// start, the last of which becomes the measured cluster, and idleSamples
// after the cruise and after the sat phase, while that cluster is idle.
const (
	startSamples = 3
	idleSamples  = 2
)

// sample sets a whole cluster up on fresh directories, as a run's set-up
// does — spawn, project load, follower caught up — takes the time, and
// kills it again.  The run takes its samples spread over its length, so
// that a slow stretch of the machine does not fall on all of them.
func (s *setup) sample(sb *sandbox, wl *Workload) error {
	c, took, err := s.load(sb, wl, Preload(wl.Trees))
	if err != nil {
		return err
	}
	defer c.kill()
	if wl.Follower {
		catchup, err := c.attachFollower()
		if err != nil {
			return err
		}
		took += catchup
		s.catchup = append(s.catchup, ms(catchup))
	}
	s.setupS = append(s.setupS, took.Seconds())
	return nil
}

// idle takes the set-up samples that follow a measured phase.
func (s *setup) idle(sb *sandbox, wl *Workload) error {
	for i := 0; i < idleSamples; i++ {
		if err := s.sample(sb, wl); err != nil {
			return fmt.Errorf("set-up sample: %w", err)
		}
	}
	return nil
}

// setUp builds the cluster of a run: three set-up samples, the last of
// which is kept, killed and recovered restartReps times — each recovery
// must read back byte for byte — and then gets its follower.
func setUp(sb *sandbox, wl *Workload, res *RunResult) (*setup, error) {
	s := &setup{}
	for i := 0; i < startSamples-1; i++ {
		if err := s.sample(sb, wl); err != nil {
			return s, err
		}
	}
	c, took, err := s.load(sb, wl, Preload(wl.Trees))
	if err != nil {
		return s, err
	}
	s.cluster = c
	cl, err := admin(c.primary.addr)
	if err != nil {
		c.kill()
		return s, err
	}
	rows, err := cl.Report()
	cl.Hangup()
	if err != nil {
		c.kill()
		return s, err
	}
	if len(rows) != wl.Trees*oidsPerTree {
		res.fail("preloaded REPORT has %d rows, want %d", len(rows), wl.Trees*oidsPerTree)
	}
	want := digest(rows)
	for i := 0; i < restartReps; i++ {
		took, got, err := c.restart()
		if err != nil {
			c.kill()
			return s, fmt.Errorf("restart %d: %w", i, err)
		}
		if got != want {
			res.fail("restart %d: REPORT digest %.12s differs from the acknowledged state %.12s", i, got, want)
		}
		s.restarts = append(s.restarts, ms(took))
	}
	if wl.Follower {
		catchup, err := c.attachFollower()
		if err != nil {
			c.kill()
			return s, err
		}
		took += catchup
		s.catchup = append(s.catchup, ms(catchup))
	}
	s.setupS = append(s.setupS, took.Seconds())
	return s, nil
}
